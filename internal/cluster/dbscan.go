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

// DBSCANContext is DBSCAN with cancellation. It runs on GOMAXPROCS
// goroutines, so cfg.Index is queried from that many goroutines at once,
// as detection queries its index; a counting view passed as cfg.Index
// still receives every query's counts. Core tuples are joined in a
// disjoint set whose root is the set's smallest index. The sets are the
// clusters, numbered in the order of their roots, and a tuple that is not
// core takes the smallest number among its core neighbors' clusters, or
// stays noise. Labels and K are those of the serial seed expansion on
// either of two paths, whatever order the queries run in. Which path runs
// is chosen by what the index can do, never by its kind:
//
//   - Two passes, over an index that shows each candidate before
//     evaluating it (neighbors.VisitingOf: Brute, Grid and counting views
//     over them). Pass 1 is detection's core test: each tuple collects
//     neighbor ids until it has MinPts, so a core tuple costs about MinPts
//     evaluations, and a tuple left below MinPts has seen its whole ball
//     and keeps those ids for the border rule. MinPts ≤ 0 marks every
//     tuple core without a query. Pass 2 runs from core tuples only. Every
//     core flag is final by then, so each core pair needs checking from
//     one end: tuple i visits only the j > i, passes over j before its
//     distance unless j is core and in another set than i (sets only
//     merge, so a pair found joined stays joined), and joins the two sets
//     on a hit. That is n + #core range queries, with MinPts ≤ 0 skipping
//     pass 1's n. The passes save evaluations, not walks: a core tuple
//     walks its cells twice, so where balls hold a few tuples and the walk
//     is the cost (a sparse grid) they take longer than the fused pass.
//   - One fused pass over any other index (the VP-tree, which must
//     evaluate each vantage point to navigate, a Mutable, a foreign
//     Index): each tuple runs one full ε-range query, and a core tuple
//     publishes that it is core before it reads its neighbors' status, so
//     of two neighboring core tuples at least one sees the other and joins
//     their sets. That is n range queries.
//
// Once ctx is cancelled no further query starts, in either pass or between
// them, and the run returns every tuple as noise with K = 0 and the
// context's error. A panic in a query, in either pass, is returned as an
// error, again with every tuple as noise; errors.As reaches its value and
// stack as a *par.PanicError. A nil error means the clustering is
// complete.
func DBSCANContext(ctx context.Context, rel *data.Relation, cfg DBSCANConfig) (Result, error) {
	n := rel.N()
	labels := make([]int, n)
	idx := cfg.Index
	if idx == nil {
		idx = neighbors.Build(rel, cfg.Eps)
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	views, join := neighbors.Fork(idx, workers)
	// parent[i] is -1 until tuple i is found core, then a link towards the
	// root of its set. Links only point at smaller indexes.
	d := &dbscan{rel: rel, cfg: cfg, parent: make([]atomic.Int32, n), ws: make([]dbscanWorker, workers)}
	for i := range d.parent {
		d.parent[i].Store(-1)
	}
	var errs []par.ItemError
	if vs := visitors(views); vs != nil {
		errs = d.twoPass(ctx, vs)
	} else {
		errs = d.fusedPass(ctx, views)
	}
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
	parent := d.parent
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
	for w := range d.ws {
		b := d.ws[w].border
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

// dbscan is one DBSCANContext run: the disjoint set of core tuples and one
// scratch per worker.
type dbscan struct {
	rel    *data.Relation
	cfg    DBSCANConfig
	parent []atomic.Int32
	ws     []dbscanWorker
}

// dbscanWorker is one goroutine's scratch: the buffer its fused range
// queries fill, and the tuples it found not core as (i, count, ids...)
// records, whose neighbors' status is known only after the join.
type dbscanWorker struct {
	nbs    []neighbors.Neighbor
	border []int32
	// i is the tuple being visited in the two-pass path, root the last
	// root of its set seen by the join, and start the offset of its ids in
	// border; the three callbacks read them, so they are made once per
	// run instead of once per visit.
	i, root                 int32
	start                   int
	collect, joinable, link func(j int) bool
}

// visitors returns the views' Visiting capabilities, or nil when the index
// behind them has none.
func visitors(views []neighbors.Index) []neighbors.Visiting {
	vs := make([]neighbors.Visiting, len(views))
	for w, v := range views {
		if vs[w] = neighbors.VisitingOf(v); vs[w] == nil {
			return nil
		}
	}
	return vs
}

// fusedPass runs one full range query per tuple and joins each core tuple
// with its neighbors already found core.
func (d *dbscan) fusedPass(ctx context.Context, views []neighbors.Index) []par.ItemError {
	parent := d.parent
	return par.ForEachWorker(ctx, d.rel.N(), len(views), func(w, i int) error {
		wk := &d.ws[w]
		wk.nbs = neighbors.WithinBuf(views[w], wk.nbs, d.rel.Tuples[i], d.cfg.Eps, i)
		if len(wk.nbs) < d.cfg.MinPts {
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
}

// twoPass runs the core test, then the one-sided join from core tuples. A
// failed or cancelled core test skips the join.
func (d *dbscan) twoPass(ctx context.Context, vs []neighbors.Visiting) []par.ItemError {
	parent, minPts, eps := d.parent, d.cfg.MinPts, d.cfg.Eps
	for w := range d.ws {
		wk := &d.ws[w]
		wk.collect = func(j int) bool {
			wk.border = append(wk.border, int32(j))
			return len(wk.border)-wk.start < minPts
		}
		// wk.root is a root i's set had; while it is still a root, j
		// finding it is in i's set. Only a mismatch pays for a fresh
		// find(i), so each candidate costs one find, not two.
		wk.joinable = func(j int) bool {
			rj := find(parent, int32(j))
			if rj < 0 || rj == wk.root {
				return false
			}
			wk.root = find(parent, wk.i)
			return rj != wk.root
		}
		wk.link = func(j int) bool {
			union(parent, wk.i, int32(j))
			return true
		}
	}
	n := d.rel.N()
	if minPts <= 0 {
		for i := range parent {
			parent[i].Store(int32(i))
		}
	} else if errs := par.ForEachWorker(ctx, n, len(vs), func(w, i int) error {
		wk := &d.ws[w]
		wk.border = append(wk.border, int32(i), 0)
		wk.start = len(wk.border)
		vs[w].VisitWithin(d.rel.Tuples[i], eps, 0, i, nil, wk.collect)
		if m := len(wk.border) - wk.start; m < minPts {
			wk.border[wk.start-1] = int32(m)
		} else {
			wk.border = wk.border[:wk.start-2]
			parent[i].Store(int32(i))
		}
		return nil
	}); errs != nil {
		return errs
	}
	return par.ForEachWorker(ctx, n, len(vs), func(w, i int) error {
		if parent[i].Load() < 0 {
			return nil
		}
		wk := &d.ws[w]
		wk.i = int32(i)
		wk.root = find(parent, wk.i)
		vs[w].VisitWithin(d.rel.Tuples[i], eps, i+1, -1, wk.joinable, wk.link)
		return nil
	})
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
