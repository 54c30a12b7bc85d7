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
//   - Two passes, over an index that lists its tuples by cell
//     (neighbors.JoinerOf: Brute, which is one cell, Grid, VPTree, and
//     counting views over them). The index's cells are listed first.
//     Pass 1 is detection's core test, in the listing's order: each tuple
//     visits its neighbors in the order of a capped count (the grid's own
//     cell first, the VP-tree's nearer side first) until it has MinPts, so
//     a core tuple costs about a count capped at MinPts, and a tuple left
//     below MinPts has seen its whole ball and keeps those ids for the
//     border rule. A tuple found core joins the tuples its visit found
//     that are already core. A tuple alone in its cell visits through
//     VisitCell, which on a VP-tree also lists the cell's near cells in
//     the same walk, at most the cost of the tuple's range query, where a
//     separate near walk would retrace the visit's path. MinPts ≤ 0 marks
//     every tuple core without a query. Every core flag is final by then;
//     the listing is told which tuples are core, and pass 2 joins cells,
//     not tuples, in one parallel loop whose items come phase by phase.
//     First each core tuple probes the later core tuples of its own cell.
//     Then each cell joins each later cell its index lists near it, or its
//     pass-1 visit listed (a grid cell whose box, a VP-tree cell whose
//     cover, can hold a tuple within Eps of one of its own; a VP-tree lists
//     only cells that hold a core tuple): the pair is passed over whole
//     when both cells' core tuples are already one set, a tuple whose
//     reach test fails probes nothing (a visit's listing has applied it),
//     and the pair stops once a hit makes both cells one set. A probe
//     passes over a candidate before its distance unless the candidate is
//     core and in another set (sets only merge, so a pair found joined
//     stays joined), and joins the two sets on a hit. That is n visits,
//     one probe per core tuple and one per reach test passed between
//     cells, with MinPts ≤ 0 skipping the visits; a VP-tree's near walks
//     and reach tests evaluate distances too, a grid's do not. On brute,
//     one cell, the join is the one-sided join from each core tuple to the
//     later ones in index order.
//   - One fused pass over any other index (a Mutable, which also scans
//     its delta buffer, or a foreign Index): each tuple runs one full
//     ε-range query, and a core tuple publishes that it is core before it
//     reads its neighbors' status, so of two neighboring core tuples at
//     least one sees the other and joins their sets. That is n range
//     queries.
//
// Once ctx is cancelled no further query starts, in any phase or between
// them, and the run returns every tuple as noise with K = 0 and the
// context's error. A panic in a query, in any phase, is returned as an
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
	if js := joiners(views); js != nil {
		errs = d.twoPass(ctx, js)
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
// scratch per worker, and on the two-pass path the index's cell listing
// and the state of each cell.
type dbscan struct {
	rel    *data.Relation
	cfg    DBSCANConfig
	parent []atomic.Int32
	ws     []dbscanWorker
	cs     neighbors.Cells
	cells  []cellState
}

// cellState is one cell of the join: its smallest core tuple (-1 for
// none), whether its core tuples have been found to be one set, which
// they then stay, since sets only merge, and, for a cell of one tuple
// whose pass-1 visit listed its near cells, that listing (nil otherwise).
type cellState struct {
	rep  int32
	one  atomic.Bool
	near []int32
}

// dbscanWorker is one goroutine's scratch: the buffer its fused range
// queries fill, the tuples it found not core as (i, count, ids...)
// records, whose neighbors' status is known only after the join, the
// near lists its core test's visits made, one after another, and the
// buffer its cells' near lists fill in the join. start is the offset of
// the visited tuple's ids in border, which collect, the core test's visit
// callback made once per run, reads.
type dbscanWorker struct {
	nbs     []neighbors.Neighbor
	border  []int32
	listed  []int32
	near    []int32
	start   int
	collect func(j int) bool
}

// joiners returns the views' Joiner capabilities, or nil when the index
// behind them has none.
func joiners(views []neighbors.Index) []neighbors.Joiner {
	js := make([]neighbors.Joiner, len(views))
	for w, v := range views {
		if js[w] = neighbors.JoinerOf(v); js[w] == nil {
			return nil
		}
	}
	return js
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

// twoPass runs the core test, then joins the core tuples of each cell,
// then those of each listed pair of cells. A failed or cancelled core test
// skips the join.
func (d *dbscan) twoPass(ctx context.Context, js []neighbors.Joiner) []par.ItemError {
	parent, minPts, eps := d.parent, d.cfg.MinPts, d.cfg.Eps
	n := d.rel.N()
	d.cs = js[0].Cells(eps)
	cs := &d.cs
	d.cells = make([]cellState, cs.Len())
	lone := 0
	for c := range d.cells {
		if minPts > 0 && len(cs.Ids(c)) == 1 {
			lone++
		}
	}
	for w := range d.ws {
		wk := &d.ws[w]
		// At radius = cell, a cell of a three-attribute grid lists at most
		// 13 near cells unless its tuples sit within a rounding of a side;
		// a one-tuple cell of a VP-tree lists about 6 on Table 1 Letter.
		// Both buffers grow as needed.
		size := 8 * lone / len(d.ws)
		buf := make([]int32, 0, size+32)
		wk.listed, wk.near = buf[:0:size], buf[size:size]
		wk.collect = func(j int) bool {
			wk.border = append(wk.border, int32(j))
			return len(wk.border)-wk.start < minPts
		}
	}
	if minPts <= 0 {
		for i := range parent {
			parent[i].Store(int32(i))
		}
	} else if errs := par.ForEachWorker(ctx, n, len(js), func(w, k int) error {
		wk := &d.ws[w]
		i, _ := cs.At(k)
		wk.border = append(wk.border, int32(i), 0)
		wk.start = len(wk.border)
		if c := cs.Cell(k); len(cs.Ids(c)) == 1 {
			// A listing stays valid where a later append moves the buffer.
			at := len(wk.listed)
			if near, ok := js[w].VisitCell(cs, c, wk.collect, wk.listed); ok {
				wk.listed, d.cells[c].near = near, near[at:len(near):len(near)]
			}
		} else {
			js[w].VisitWithin(d.rel.Tuples[i], eps, i, wk.collect)
		}
		hits := wk.border[wk.start:]
		if len(hits) < minPts {
			wk.border[wk.start-1] = int32(len(hits))
			return nil
		}
		parent[i].Store(int32(i))
		for _, j := range hits {
			if parent[j].Load() >= 0 {
				union(parent, int32(i), j)
			}
		}
		wk.border = wk.border[:wk.start-2]
		return nil
	}); errs != nil {
		return errs
	}
	cs.Keep(func(i int) bool { return parent[i].Load() >= 0 })
	for c := range d.cells {
		d.cells[c].rep = -1
		for _, i := range cs.Ids(c) {
			if parent[i].Load() >= 0 {
				d.cells[c].rep = int32(i)
				break
			}
		}
	}
	// The join runs its two phases as one parallel loop whose items come
	// in phase order: each core tuple's join inside its cell, then each
	// cell's join with its listed later cells.
	return par.ForEachWorker(ctx, n+cs.Len(), len(js), func(w, k int) error {
		if k < n {
			if i, later := cs.At(k); parent[i].Load() >= 0 {
				d.join(js[w], i, later, -1, -1)
			}
			return nil
		}
		c, wk := k-n, &d.ws[w]
		if d.cells[c].rep < 0 {
			return nil // no core tuple to join from
		}
		if near := d.cells[c].near; near != nil {
			for _, b := range near {
				d.joinCells(js[w], c, int(b), true)
			}
			return nil
		}
		wk.near = js[w].Near(cs, c, wk.near[:0])
		for _, b := range wk.near {
			d.joinCells(js[w], c, int(b), false)
		}
		return nil
	})
}

// join probes core tuple i against the core tuples ids and joins their
// sets on each hit. It passes over a candidate before its distance unless
// the candidate is core and in another set than i: root is a root i's set
// had, and while it is still a root, j finding it is in i's set, so only a
// mismatch pays for a fresh find(i). Between cells c and b (both -1 inside
// one cell) it stops, reporting true, once a hit leaves the core tuples of
// both cells one set.
func (d *dbscan) join(j neighbors.Joiner, i int, ids []int, c, b int) (done bool) {
	parent := d.parent
	pr := j.Probe(i, d.cfg.Eps)
	root := find(parent, int32(i))
	for _, x := range ids {
		rx := find(parent, int32(x))
		if rx < 0 || rx == root {
			continue
		}
		if root = find(parent, int32(i)); rx == root || !pr.Within(x) {
			continue
		}
		union(parent, int32(i), int32(x))
		if c >= 0 && d.joined(c, b) {
			done = true
			break
		}
	}
	pr.Release()
	return done
}

// joinCells joins the core tuples of cells c and b, the later one: each
// core tuple of c whose reach test passes against b (each of them when
// reached, since VisitCell's listing applied it) probes b's core tuples,
// until the two cells' core tuples are one set. A pair already one set is
// passed over whole.
func (d *dbscan) joinCells(j neighbors.Joiner, c, b int, reached bool) {
	if d.joined(c, b) {
		return
	}
	ids := d.cs.Ids(b)
	for _, i := range d.cs.Ids(c) {
		if d.parent[i].Load() >= 0 && (reached || j.Reach(&d.cs, i, b)) && d.join(j, i, ids, c, b) {
			return
		}
	}
}

// joined reports whether the core tuples of cells c and b are one set, or
// either cell has none.
func (d *dbscan) joined(c, b int) bool {
	if d.cells[c].rep < 0 || d.cells[b].rep < 0 {
		return true
	}
	r := find(d.parent, d.cells[c].rep)
	return d.oneSet(c, r) && d.oneSet(b, r)
}

// oneSet reports whether every core tuple of cell c is in the set whose
// root is r. A set found at a root another goroutine has since linked
// reads as a mismatch, so a false answer is only ever a missed skip.
func (d *dbscan) oneSet(c int, r int32) bool {
	cell := &d.cells[c]
	if cell.one.Load() {
		return find(d.parent, cell.rep) == r
	}
	for _, i := range d.cs.Ids(c) {
		if d.parent[i].Load() >= 0 && find(d.parent, int32(i)) != r {
			return false
		}
	}
	cell.one.Store(true)
	return true
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
