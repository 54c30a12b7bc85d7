package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/par"
)

// DBSCANConfig parameterizes DBSCAN (Ester et al. [21]).
type DBSCANConfig struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the minimum number of ε-neighbors (self excluded, matching
	// the η convention of the distance constraints) for a core point.
	MinPts int
	// Index optionally supplies a prebuilt neighbor index over the
	// relation.
	Index neighbors.Index
}

// DBSCAN clusters the relation: density-reachable points join their core
// point's cluster; everything else is noise (-1). It works over any metric
// schema, including textual attributes. A panic in a range query is
// re-raised here.
func DBSCAN(rel *data.Relation, cfg DBSCANConfig) Result {
	res, err := DBSCANContext(context.Background(), rel, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// DBSCANContext is DBSCAN with cancellation. It runs one ε-range query per
// tuple on GOMAXPROCS goroutines, so cfg.Index is queried from that many
// goroutines at once, as detection queries its index; a counting view
// passed as cfg.Index still receives every query's counts. Each core tuple
// is joined with its core neighbors in a disjoint set whose root is the
// set's smallest index. The sets are the clusters, numbered in the order
// of their roots, and a tuple that is not core takes the smallest number
// among its core neighbors' clusters, or stays noise. Labels and K are
// those of the serial seed expansion, whatever order the queries run in:
// the ε-relation is symmetric, and each tuple publishes that it is core
// before it reads its neighbors' status, so of two neighboring core tuples
// at least one sees the other and joins their sets.
//
// Once ctx is cancelled no further query starts, and the run returns every
// tuple as noise with K = 0 and the context's error. A panic in a query is
// returned as an error, again with every tuple as noise. A nil error means
// the clustering is complete.
func DBSCANContext(ctx context.Context, rel *data.Relation, cfg DBSCANConfig) (Result, error) {
	n := rel.N()
	labels := make([]int, n)
	idx := cfg.Index
	if idx == nil {
		idx = neighbors.Build(rel, cfg.Eps)
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	views, join := neighbors.Fork(idx, workers)
	// parent[i] is -1 until tuple i's query finds it core, then a link
	// towards the root of its set. Links only point at smaller indexes.
	parent := make([]atomic.Int32, n)
	for i := range parent {
		parent[i].Store(-1)
	}
	ws := make([]dbscanWorker, workers)
	errs := par.ForEachWorker(ctx, n, workers, func(w, i int) error {
		wk := &ws[w]
		wk.nbs = neighbors.WithinBuf(views[w], wk.nbs, rel.Tuples[i], cfg.Eps, i)
		if len(wk.nbs) < cfg.MinPts {
			// Which neighbors are core is known only after the join, so
			// keep the ids, as (i, count, ids...), for the border pass.
			wk.border = append(wk.border, int32(i), int32(len(wk.nbs)))
			for _, nb := range wk.nbs {
				wk.border = append(wk.border, int32(nb.Idx))
			}
			return nil
		}
		parent[i].Store(int32(i))
		for _, nb := range wk.nbs {
			if parent[nb.Idx].Load() >= 0 {
				union(parent, int32(i), int32(nb.Idx))
			}
		}
		return nil
	})
	join()
	if err := par.FirstErr(errs); err != nil {
		for i := range labels {
			labels[i] = -1
		}
		if errors.Is(err, ctx.Err()) {
			return Result{Labels: labels}, ctx.Err()
		}
		return Result{Labels: labels}, fmt.Errorf("cluster: DBSCAN: %w", err)
	}
	k := 0
	for i := range labels {
		switch r := find(parent, int32(i)); {
		case r < 0:
			labels[i] = -1
		case int(r) == i:
			labels[i] = k
			k++
		default:
			labels[i] = labels[r]
		}
	}
	for w := range ws {
		b := ws[w].border
		for len(b) > 0 {
			i, m := b[0], b[1]
			for _, j := range b[2 : 2+m] {
				if parent[j].Load() >= 0 && (labels[i] < 0 || labels[j] < labels[i]) {
					labels[i] = labels[j]
				}
			}
			b = b[2+m:]
		}
	}
	return Result{Labels: labels, K: k}, nil
}

// dbscanWorker is one goroutine's scratch: the buffer its range queries
// fill, and the neighbor ids of the tuples it found not core.
type dbscanWorker struct {
	nbs    []neighbors.Neighbor
	border []int32
}

// find returns the root of x's set, or -1 when x is not core, halving the
// path on the way: each visited link is swung to its grandparent, which is
// still an ancestor whatever other goroutines link meanwhile.
func find(parent []atomic.Int32, x int32) int32 {
	for {
		p := parent[x].Load()
		if p == x || p < 0 {
			return p
		}
		gp := parent[p].Load()
		if gp != p {
			parent[x].CompareAndSwap(p, gp)
		}
		x = gp
	}
}

// union joins the sets of core tuples x and y by linking the larger root
// under the smaller; the CAS fails only when another goroutine linked that
// root first, and the loop then retries from the new roots.
func union(parent []atomic.Int32, x, y int32) {
	for {
		x, y = find(parent, x), find(parent, y)
		if x == y {
			return
		}
		if x < y {
			x, y = y, x
		}
		if parent[x].CompareAndSwap(x, y) {
			return
		}
	}
}
