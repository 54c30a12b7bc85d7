// Package neighbors provides ε-neighbor and k-nearest-neighbor search over
// relations (Formula 4 of the paper): a brute-force scan that works for any
// schema, a grid index for low-dimensional numeric data (the GPS/Flight
// style datasets), and a vantage-point tree that exploits the triangle
// inequality of the distance functions (§2.1.1) for any metric schema,
// including textual edit distances.
package neighbors

import (
	"math"
	"slices"

	"repro/internal/data"
)

// Neighbor is one search result: a tuple index in the indexed relation and
// its distance to the query.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Index answers ε-range and k-NN queries against a fixed relation.
// The skip argument excludes one tuple index from the results (pass -1 to
// keep all); the paper's |r_ε(t)| never counts t itself.
type Index interface {
	// Within returns all tuples with Δ(q, t) ≤ eps, in arbitrary order.
	Within(q data.Tuple, eps float64, skip int) []Neighbor
	// CountWithin counts tuples with Δ(q, t) ≤ eps, stopping early once
	// the count reaches cap (cap ≤ 0 disables the early exit).
	CountWithin(q data.Tuple, eps float64, skip, cap int) int
	// KNN returns the k nearest tuples sorted by ascending distance
	// (fewer if the relation is smaller).
	KNN(q data.Tuple, k, skip int) []Neighbor
	// Rel returns the indexed relation.
	Rel() *data.Relation
}

// CountWithinAtLeast reports whether q has at least k ε-neighbors in idx
// (excluding skip). Callers that only need the boolean — "count ≥ η" — ride
// CountWithin's cap early-exit: the scan stops at the k-th hit instead of
// counting the whole ball. k ≤ 0 is vacuously true.
func CountWithinAtLeast(idx Index, q data.Tuple, eps float64, skip, k int) bool {
	if k <= 0 {
		return true
	}
	return idx.CountWithin(q, eps, skip, k) >= k
}

// WithinAppender is the optional extension of Index for allocation-
// sensitive callers: WithinAppend appends the ε-neighbors to dst (which
// may be nil or a reused buffer truncated by the caller) instead of
// allocating a fresh result slice per query. All three concrete indexes
// and the counting view implement it; DBSCAN's fused pass, the path it
// takes over an index without a Joiner, reuses one buffer per worker
// through it.
type WithinAppender interface {
	WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor
}

// WithinBuf routes a range query through WithinAppend when the index
// supports it, falling back to Within plus a copy into dst otherwise.
// The result always starts at dst[:0], so callers can reuse one scratch
// buffer across queries.
func WithinBuf(idx Index, dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return withinAppend(idx, dst[:0], q, eps, skip)
}

// withinAppend appends idx's ε-neighbors to dst, using the index's own
// WithinAppend when available (a counting view over a foreign index
// forwards through here, so buffers survive the wrapping).
func withinAppend(idx Index, dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if wa, ok := idx.(WithinAppender); ok {
		return wa.WithinAppend(dst, q, eps, skip)
	}
	return append(dst, idx.Within(q, eps, skip)...)
}

// Joiner is the optional capability of an index whose tuples sit in cells
// it can list, so a caller can join tuples cell by cell instead of running
// a range query per tuple. Brute (one cell), Grid and VPTree offer it: a
// grid's cells are its boxes, a grid whose walk at the join's radius
// would fall back to its brute scan is one cell, and a VP-tree's cells
// are its subtrees whose cover fits the radius and the vantage points
// above them, one tuple each. A Mutable also scans its
// delta buffer, so it does not offer it. Look it up with JoinerOf, which
// sees through counting views; DBSCAN's two-pass path is its caller.
type Joiner interface {
	// VisitWithin calls hit(j) for each tuple j other than skip that lies
	// within eps of q, until hit returns false. Candidates come in the
	// order of the index's capped count (the grid's own cell, then the
	// nearest; the VP-tree's nearer side of each vantage point first), so
	// a visit that stops after k hits costs what a count capped at k costs.
	VisitWithin(q data.Tuple, eps float64, skip int, hit func(j int) bool)
	// Cells lists the index's cells for a join at radius eps: every pair
	// of tuples within eps of each other lies in one cell, or in cells c
	// and d with d in Near(cs, c) and Reach(cs, i, d) true for the pair's
	// tuple i in c. After cs.Keep, only pairs of kept tuples.
	Cells(eps float64) Cells
	// VisitCell visits from the tuple of c, a cell of cs that holds one
	// tuple, as VisitWithin(that tuple, the listing's radius, it, hit)
	// does. An index that can list c's near cells in the same walk (the
	// VP-tree, whose near walk from c would retrace the visit's path)
	// also appends to dst, whether or not hit stopped the visit, the
	// cells Near(cs, c) lists before any Keep, each through the reach
	// test of c's tuple, and reports true; one that cannot appends
	// nothing and reports false.
	VisitCell(cs *Cells, c int, hit func(j int) bool, dst []int32) ([]int32, bool)
	// Near appends to dst the cells of cs, a listing of this index, after
	// cell c that can hold a tuple within the listing's radius of one of
	// c's tuples, and returns it.
	Near(cs *Cells, c int, dst []int32) []int32
	// Reach reports whether cell d of cs can hold a tuple within the
	// listing's radius of tuple i.
	Reach(cs *Cells, i, d int) bool
	// Probe binds tuple i for pair tests at radius eps.
	Probe(i int, eps float64) Probe
}

// joiner is Joiner's body with the calling view's counters (nil for a
// direct call), as counted is for the Index queries.
type joiner interface {
	Cells(eps float64) Cells
	visitWithin(q data.Tuple, eps float64, skip int, hit func(j int) bool, c *Counters)
	visitCell(cs *Cells, c int, hit func(j int) bool, dst []int32, ct *Counters) ([]int32, bool)
	near(cs *Cells, c int, dst []int32, ct *Counters) []int32
	reach(cs *Cells, i, d int, ct *Counters) bool
	probe(i int, eps float64, c *Counters) Probe
}

// JoinerOf returns idx's Joiner capability, or nil when idx lacks it.
// Through a counting view over Brute, Grid or VPTree it returns a Joiner
// that counts each visit (VisitWithin or VisitCell) and each probe as a
// range query, and their
// evaluations and those of its near walks and reach tests, into the
// view's counters; a counting view over any other index has none.
func JoinerOf(idx Index) Joiner {
	if cv, ok := idx.(*counting); ok {
		if j, ok := cv.idx.(joiner); ok {
			return &countedJoin{j: j, c: cv.c}
		}
		return nil
	}
	j, _ := idx.(Joiner)
	return j
}

// countedJoin is the Joiner of a counting view.
type countedJoin struct {
	j joiner
	c *Counters
}

// VisitWithin implements Joiner.
func (cj *countedJoin) VisitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool) {
	cj.c.RangeQueries++
	cj.j.visitWithin(q, eps, skip, hit, cj.c)
}

// Cells implements Joiner. Listing cells evaluates no distance.
func (cj *countedJoin) Cells(eps float64) Cells { return cj.j.Cells(eps) }

// VisitCell implements Joiner.
func (cj *countedJoin) VisitCell(cs *Cells, c int, hit func(int) bool, dst []int32) ([]int32, bool) {
	cj.c.RangeQueries++
	return cj.j.visitCell(cs, c, hit, dst, cj.c)
}

// Near implements Joiner.
func (cj *countedJoin) Near(cs *Cells, c int, dst []int32) []int32 {
	return cj.j.near(cs, c, dst, cj.c)
}

// Reach implements Joiner.
func (cj *countedJoin) Reach(cs *Cells, i, d int) bool { return cj.j.reach(cs, i, d, cj.c) }

// Probe implements Joiner.
func (cj *countedJoin) Probe(i int, eps float64) Probe {
	cj.c.RangeQueries++
	return cj.j.probe(i, eps, cj.c)
}

// Probe is one tuple bound for pair tests against the other tuples of its
// index: a range query whose candidates the caller names one at a time,
// so it can pass over a candidate before its distance is evaluated.
type Probe struct {
	kq    *data.KernelQuery
	bound float64
	dead  *deadSet
	c     *Counters
}

// Within reports whether tuple j lies within the probe's radius of its
// tuple, deciding exactly as a range query does.
func (p Probe) Within(j int) bool {
	if p.dead.has(j) {
		return false
	}
	_, within := p.kq.DistToLE(j, p.bound)
	return within
}

// Release folds the probe's evaluations into the counters of the view
// that bound it and returns its query to the kernel's pool; the probe is
// spent afterwards.
func (p Probe) Release() { release(p.kq, p.c) }

// Kerneled is implemented by indexes backed by a compiled distance
// kernel (see data.Kernel). KernelOf unwraps views to reach it.
type Kerneled interface {
	Kernel() *data.Kernel
}

// KernelOf returns the compiled kernel behind idx, looking through a
// counting view, or nil when the index is not kernel-backed. Callers like
// the saver's bound computations use it to share one kernel — and its
// text-distance cache — with the index built over the same relation.
func KernelOf(idx Index) *data.Kernel {
	for {
		switch t := idx.(type) {
		case Kerneled:
			return t.Kernel()
		case *counting:
			idx = t.idx
		case uncounted:
			idx = t.Index
		default:
			return nil
		}
	}
}

// Build indexes the relation with the kind autoKind selects. eps hints the
// grid cell size.
func Build(r *data.Relation, eps float64) Index {
	kern := data.CompileKernel(r)
	return build(r, kern, eps, autoKind(kern, eps), nil)
}

// Project indexes the attribute columns cols of r for queries decided by
// the distance over those attributes alone. kern must be r's compiled
// kernel; the index reads it through data.Kernel.Project, so it copies no
// column and shares the text caches, and autoKind picks its kind from the
// projected attributes. Query tuples stay full-width. A Mutable's
// projections come from Mutable.Project instead, which keeps them in step
// with its inserts and tombstones.
func Project(r *data.Relation, kern *data.Kernel, cols []int, eps float64) Index {
	pk := kern.Project(cols)
	return build(r, pk, eps, autoKind(pk, eps), nil)
}

// autoKind is the one index-selection rule, behind Build, Project and
// KindAuto: a grid when the kernel's attributes are all numeric and at
// most six (range queries touch 3^m cells) and eps > 0 sizes its cells,
// else a VP-tree once the kernel holds 64 rows, else a brute scan. The
// grid serves every supported norm, not only the L2 default: its walk
// aggregates per-axis cell gaps under the schema's own norm, so the cell
// bound stays valid for any of them.
func autoKind(kern *data.Kernel, eps float64) IndexKind {
	switch {
	case kern.AllNumeric() && kern.M() <= 6 && eps > 0:
		return KindGrid
	case kern.N() >= 64:
		return KindVP
	}
	return KindBrute
}

// build constructs the concrete index of kind (never KindAuto) over r,
// sharing the compiled kernel kern and wiring in dead, the tombstone table
// of a Mutable wrapper (nil outside one).
func build(r *data.Relation, kern *data.Kernel, eps float64, kind IndexKind, dead *deadSet) counted {
	switch kind {
	case KindGrid:
		g := newGridKernel(r, kern, eps)
		g.dead, g.brute.dead = dead, dead
		return g
	case KindVP:
		t := newVPTreeKernel(r, kern, 1)
		t.dead = dead
		return t
	}
	b := newBruteKernel(r, kern)
	b.dead = dead
	return b
}

// Brute is the exhaustive-scan index; it is the correctness reference for
// the other implementations. Scans run over the compiled distance kernel:
// queries bind once, rows are read from flat columns, and range scans
// abandon a pair as soon as its partial aggregate exceeds ε.
type Brute struct {
	r    *data.Relation
	kern *data.Kernel
	// n freezes the scanned row count at build time: under the mutable-
	// session discipline the relation grows append-only, and rows past n
	// belong to the Mutable wrapper's delta buffer until a merge (the
	// grid's native inserts extend n instead, see Grid.insert).
	n int
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper; tombstoned rows are skipped mid-scan so counts, ranges
	// and k-NN results never see deleted tuples.
	dead *deadSet
}

// NewBrute indexes r, compiling a distance kernel over it.
func NewBrute(r *data.Relation) *Brute { return newBruteKernel(r, data.CompileKernel(r)) }

// newBruteKernel indexes r reusing an already-compiled kernel (the grid
// shares one kernel between its cells and its brute fallback; the
// Mutable wrapper shares one kernel across merges).
func newBruteKernel(r *data.Relation, k *data.Kernel) *Brute {
	return &Brute{r: r, kern: k, n: r.N()}
}

// Rel returns the indexed relation.
func (b *Brute) Rel() *data.Relation { return b.r }

// Kernel implements Kerneled.
func (b *Brute) Kernel() *data.Kernel { return b.kern }

// Within implements Index.
func (b *Brute) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return b.within(nil, q, eps, skip, nil)
}

// WithinAppend implements WithinAppender.
func (b *Brute) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return b.within(dst, q, eps, skip, nil)
}

// CountWithin implements Index.
func (b *Brute) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return b.countWithin(q, eps, skip, cap, nil)
}

// KNN implements Index.
func (b *Brute) KNN(q data.Tuple, k, skip int) []Neighbor { return b.knn(q, k, skip, nil) }

// within is the range scan (see counted for c).
func (b *Brute) within(dst []Neighbor, q data.Tuple, eps float64, skip int, c *Counters) []Neighbor {
	kq := b.kern.Bind(q)
	defer release(kq, c)
	bound := b.kern.LEBound(eps)
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		if d, within := kq.DistToLE(i, bound); within {
			dst = append(dst, Neighbor{Idx: i, Dist: d})
		}
	}
	return dst
}

// VisitWithin implements Joiner.
func (b *Brute) VisitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool) {
	b.visitWithin(q, eps, skip, hit, nil)
}

// visitWithin is the visiting scan, in index order.
func (b *Brute) visitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool, c *Counters) {
	kq := b.kern.Bind(q)
	defer release(kq, c)
	bound := b.kern.LEBound(eps)
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		if _, within := kq.DistToLE(i, bound); within && !hit(i) {
			return
		}
	}
}

// Cells implements Joiner: a brute scan is one cell, its tuples in index
// order.
func (b *Brute) Cells(float64) Cells { return oneCell(b.n) }

// VisitCell implements Joiner: a scan lists no cells.
func (b *Brute) VisitCell(cs *Cells, c int, hit func(int) bool, dst []int32) ([]int32, bool) {
	return b.visitCell(cs, c, hit, dst, nil)
}

func (b *Brute) visitCell(cs *Cells, c int, hit func(int) bool, dst []int32, ct *Counters) ([]int32, bool) {
	i := cs.Ids(c)[0]
	b.visitWithin(b.r.Tuples[i], cs.eps, i, hit, ct)
	return dst, false
}

// Near implements Joiner: one cell has no other near it.
func (b *Brute) Near(cs *Cells, c int, dst []int32) []int32 { return dst }

func (b *Brute) near(cs *Cells, c int, dst []int32, _ *Counters) []int32 { return dst }

// Reach implements Joiner.
func (b *Brute) Reach(*Cells, int, int) bool { return true }

func (b *Brute) reach(*Cells, int, int, *Counters) bool { return true }

// Probe implements Joiner.
func (b *Brute) Probe(i int, eps float64) Probe { return b.probe(i, eps, nil) }

func (b *Brute) probe(i int, eps float64, c *Counters) Probe {
	return Probe{kq: b.kern.Bind(b.r.Tuples[i]), bound: b.kern.LEBound(eps), dead: b.dead, c: c}
}

// countWithin is the capped counting scan.
func (b *Brute) countWithin(q data.Tuple, eps float64, skip, cap int, c *Counters) int {
	kq := b.kern.Bind(q)
	defer release(kq, c)
	bound := b.kern.LEBound(eps)
	n := 0
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		if _, within := kq.DistToLE(i, bound); within {
			n++
			if cap > 0 && n >= cap {
				return n
			}
		}
	}
	return n
}

// knn is the k-NN scan. Once the heap is full, its (distance, index)
// bound doubles as an early-exit radius: a pair whose partial aggregate
// exceeds the current k-th distance cannot enter the heap, so the scan
// abandons it. The inclusive DistToLE test keeps exact ties, which the
// heap then resolves by the index tie-break.
func (b *Brute) knn(q data.Tuple, k, skip int, c *Counters) []Neighbor {
	if k <= 0 {
		return nil
	}
	kq := b.kern.Bind(q)
	defer release(kq, c)
	h := newMaxHeap(k)
	bound, leb := math.Inf(1), math.Inf(1)
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		d, within := kq.DistToLE(i, leb)
		if !within {
			continue
		}
		h.offer(Neighbor{Idx: i, Dist: d})
		if bd, full := h.bound(); full && bd != bound {
			bound = bd
			leb = b.kern.LEBound(bound)
		}
	}
	return h.sorted()
}

// maxHeap keeps the k smallest neighbors seen so far under the total
// (distance, index) order, with the current worst at the root.
//
// The index tie-break is a correctness contract, not cosmetics: when
// several tuples sit exactly at the k-th distance, a heap ordered by
// distance alone keeps whichever it happened to see first, so KNN results
// would depend on scan order and differ between Brute, Grid and VP-tree.
// Under the total order every index returns the identical
// neighbor list — the lowest-indexed tuples among the tied — which also
// makes KNN(k) a strict prefix of KNN(k') for k' > k.
type maxHeap struct {
	k  int
	ns []Neighbor
}

func newMaxHeap(k int) *maxHeap { return &maxHeap{k: k, ns: make([]Neighbor, 0, k)} }

// worse reports whether a ranks strictly after b in the (distance, index)
// total order — i.e. a is a worse neighbor than b.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Idx > b.Idx
}

// bound returns the current k-th distance, or +Inf semantics via ok=false
// when fewer than k neighbors are held. Tree descents prune with
// non-strict comparisons against the bound, so equal-distance subtrees
// are still visited and can win the index tie-break.
func (h *maxHeap) bound() (float64, bool) {
	if len(h.ns) < h.k {
		return 0, false
	}
	return h.ns[0].Dist, true
}

func (h *maxHeap) offer(n Neighbor) {
	if len(h.ns) < h.k {
		h.ns = append(h.ns, n)
		h.up(len(h.ns) - 1)
		return
	}
	if !worse(h.ns[0], n) {
		return
	}
	h.ns[0] = n
	h.down(0)
}

func (h *maxHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.ns[i], h.ns[p]) {
			break
		}
		h.ns[p], h.ns[i] = h.ns[i], h.ns[p]
		i = p
	}
}

func (h *maxHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.ns) && worse(h.ns[l], h.ns[big]) {
			big = l
		}
		if r < len(h.ns) && worse(h.ns[r], h.ns[big]) {
			big = r
		}
		if big == i {
			return
		}
		h.ns[i], h.ns[big] = h.ns[big], h.ns[i]
		i = big
	}
}

// sorted returns the held neighbors in ascending (distance, index) order,
// sorting the heap's own storage in place: the heap is spent afterwards,
// and a k-NN query allocates nothing but this one result slice.
func (h *maxHeap) sorted() []Neighbor {
	slices.SortFunc(h.ns, func(a, b Neighbor) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return h.ns
}
