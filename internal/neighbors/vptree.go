package neighbors

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/data"
)

// VPTree is a vantage-point tree: a metric-space index that only relies on
// the triangle inequality, so it serves the 16-attribute Letter data and
// the textual Restaurant data equally. Build is O(n log n) distance
// computations; range and k-NN queries prune subtrees whose distance
// interval cannot intersect the query ball. A capped count and a visit
// walk the nearer side first, the child whose shell holds the query, so
// a dense ball reaches its cap early.
//
// It is a Joiner too. Its nodes sit in pre-order, so every subtree is a
// run of consecutive nodes, and each node records its cover: the largest
// distance from its vantage point to a tuple of its subtree. A join at
// radius eps takes as cells the largest subtrees whose cover is at most
// eps, and a one-tuple cell for each vantage point above them.
//
// Queries run over the compiled distance kernel: the query binds once and
// every node distance is a column read plus the text-distance caches. Node
// distances are always computed in full — they feed the subtree pruning
// bounds, so the ε early exit (which only answers "within ε?") cannot be
// used here. Build-time distances go through the kernel too, which warms
// the shared per-pair text cache before the first query arrives.
type VPTree struct {
	r     *data.Relation
	kern  *data.Kernel
	nodes []vpNode
	root  int
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper. A tombstoned vantage point still anchors its subtree's
	// pruning bounds — its distance is always computed — but it is never
	// reported as a result.
	dead *deadSet
}

// vpNode is one vantage point. The median distance that splits its
// subtrees is maxInside itself (the median row lands inside), so it is
// not stored; int32 ids and a float32 cover keep a node at 32 bytes,
// which matters once a saver keeps a tree per attribute group besides its
// own. Node ids are pre-order positions: the inside subtree follows its
// node, and the outside subtree follows the inside one.
type vpNode struct {
	idx        int32   // tuple index of the vantage point
	inside     int32   // node id of the ≤ median subtree (-1 none)
	outside    int32   // node id of the > median subtree (-1 none)
	cover      float32 // max distance to vantage point within the subtree, rounded up
	maxInside  float64 // max distance to vantage point within inside subtree
	minOutside float64 // min distance to vantage point within outside subtree
}

// vpSlack is the relative allowance every pruning bound of the tree adds
// for rounding. A bound holds for true distances by the triangle
// inequality, but it compares computed ones, each some ulps per attribute
// off, so where a pair lies at exactly the radius it can fail by an ulp
// and prune the pair's subtree: on a lattice whose attributes are scaled
// by 0.1, unwidened shells missed 2 of tuple 0's 11 neighbors at ε = 1.
// 2^-32 is far above that error below a million attributes and far below
// any gap between distances that matters; a widened bound only ever
// visits more.
const vpSlack = 0x1p-32

// widen returns the bound x with the rounding allowance added.
func widen(x float64) float64 { return x + x*vpSlack }

// holdsIn and holdsOut report whether n's inside and outside subtrees can
// hold a tuple within r of a query at distance d from n's vantage point.
// For p inside, |d − Δ(vp,p)| ≤ Δ(q,p) with Δ(vp,p) ≤ maxInside, so the
// inside subtree can hold one only if d − r ≤ maxInside; symmetrically the
// outside subtree, whose Δ(vp,p) ≥ minOutside, only if d + r ≥ minOutside.
func (n *vpNode) holdsIn(d, r float64) bool { return n.inside >= 0 && d <= widen(r+n.maxInside) }

func (n *vpNode) holdsOut(d, r float64) bool { return n.outside >= 0 && widen(d+r) >= n.minOutside }

// roundUp returns the smallest float32 at least x.
func roundUp(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// NewVPTree builds the tree over r; seed drives vantage-point selection.
func NewVPTree(r *data.Relation, seed int64) *VPTree {
	return newVPTreeKernel(r, data.CompileKernel(r), seed)
}

// newVPTreeKernel builds the tree reusing an already-compiled kernel
// (the Mutable wrapper keeps one kernel — and its warmed text caches —
// alive across delta merges).
func newVPTreeKernel(r *data.Relation, kern *data.Kernel, seed int64) *VPTree {
	t := &VPTree{r: r, kern: kern, root: -1}
	if r.N() == 0 {
		return t
	}
	idx := make([]int, r.N())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	t.nodes = make([]vpNode, 0, r.N())
	t.root = t.build(idx, rng)
	return t
}

// Rel returns the indexed relation.
func (t *VPTree) Rel() *data.Relation { return t.r }

// Kernel implements Kerneled.
func (t *VPTree) Kernel() *data.Kernel { return t.kern }

type distItem struct {
	idx  int
	dist float64
}

func (t *VPTree) build(idx []int, rng *rand.Rand) int {
	if len(idx) == 0 {
		return -1
	}
	// Pick a vantage point at random and move it out of the working set.
	p := rng.Intn(len(idx))
	vp := idx[p]
	idx[p] = idx[len(idx)-1]
	rest := idx[:len(idx)-1]

	id := len(t.nodes)
	t.nodes = append(t.nodes, vpNode{idx: int32(vp), inside: -1, outside: -1})
	if len(rest) == 0 {
		return id
	}

	items := make([]distItem, len(rest))
	for i, j := range rest {
		items[i] = distItem{idx: j, dist: t.kern.Dist(vp, j)}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].dist < items[j].dist })
	mid := len(items) / 2
	radius := items[mid].dist

	insideIdx := make([]int, 0, mid+1)
	outsideIdx := make([]int, 0, len(items)-mid)
	maxIn, minOut := 0.0, math.Inf(1)
	for _, it := range items {
		if it.dist <= radius {
			insideIdx = append(insideIdx, it.idx)
			if it.dist > maxIn {
				maxIn = it.dist
			}
		} else {
			outsideIdx = append(outsideIdx, it.idx)
			if it.dist < minOut {
				minOut = it.dist
			}
		}
	}
	in := t.build(insideIdx, rng)
	out := t.build(outsideIdx, rng)
	n := &t.nodes[id]
	n.inside = int32(in)
	n.outside = int32(out)
	n.maxInside = maxIn
	n.minOutside = minOut
	n.cover = roundUp(items[len(items)-1].dist)
	return id
}

// end returns the node id just past node x's subtree: the last node on
// its outermost path, plus one.
func (t *VPTree) end(x int) int {
	for {
		n := &t.nodes[x]
		switch {
		case n.outside >= 0:
			x = int(n.outside)
		case n.inside >= 0:
			x = int(n.inside)
		default:
			return x + 1
		}
	}
}

// Within implements Index.
func (t *VPTree) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return t.within(nil, q, eps, skip, nil)
}

// WithinAppend implements WithinAppender. The traversal is closure-free —
// the result buffer threads through the recursion — so a caller-reused dst
// keeps the whole query allocation-free.
func (t *VPTree) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return t.within(dst, q, eps, skip, nil)
}

// CountWithin implements Index.
func (t *VPTree) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return t.countWithin(q, eps, skip, cap, nil)
}

// KNN implements Index.
func (t *VPTree) KNN(q data.Tuple, k, skip int) []Neighbor { return t.knn(q, k, skip, nil) }

// within is the range search (see counted for c).
func (t *VPTree) within(dst []Neighbor, q data.Tuple, eps float64, skip int, c *Counters) []Neighbor {
	if t.root < 0 {
		return dst
	}
	kq := t.kern.Bind(q)
	defer release(kq, c)
	return t.rangeAppend(t.root, kq, eps, skip, dst)
}

// countWithin is the capped counting search: the visiting walk, stopped
// at the cap.
func (t *VPTree) countWithin(q data.Tuple, eps float64, skip, cap int, c *Counters) int {
	n := 0
	t.visitWithin(q, eps, skip, func(int) bool {
		n++
		return cap <= 0 || n < cap
	}, c)
	return n
}

// VisitWithin implements Joiner.
func (t *VPTree) VisitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool) {
	t.visitWithin(q, eps, skip, hit, nil)
}

// visitWithin is the visiting search.
func (t *VPTree) visitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool, c *Counters) {
	if t.root < 0 {
		return
	}
	kq := t.kern.Bind(q)
	defer release(kq, c)
	t.visit(t.root, kq, eps, skip, hit)
}

// rangeAppend appends every tuple within eps of the bound query to dst.
func (t *VPTree) rangeAppend(id int, kq *data.KernelQuery, eps float64, skip int, dst []Neighbor) []Neighbor {
	n := &t.nodes[id]
	vp := int(n.idx)
	d := kq.DistTo(vp)
	if d <= eps && vp != skip && !t.dead.has(vp) {
		dst = append(dst, Neighbor{Idx: vp, Dist: d})
	}
	if n.holdsIn(d, eps) {
		dst = t.rangeAppend(int(n.inside), kq, eps, skip, dst)
	}
	if n.holdsOut(d, eps) {
		dst = t.rangeAppend(int(n.outside), kq, eps, skip, dst)
	}
	return dst
}

// visit is the one walk behind a visit and a capped count: it calls
// hit(j) for each tuple j within eps of the bound query until hit returns
// false, which it passes up. It prunes by the same shells as rangeAppend
// and descends first into the child whose shell holds the query, inside
// when the query is within maxInside of the vantage point, so the tuples
// nearest the query tend to come first.
func (t *VPTree) visit(id int, kq *data.KernelQuery, eps float64, skip int, hit func(int) bool) bool {
	n := &t.nodes[id]
	vp := int(n.idx)
	d := kq.DistTo(vp)
	if d <= eps && vp != skip && !t.dead.has(vp) && !hit(vp) {
		return false
	}
	in, out := n.holdsIn(d, eps), n.holdsOut(d, eps)
	if out && d > n.maxInside {
		if !t.visit(int(n.outside), kq, eps, skip, hit) {
			return false
		}
		out = false
	}
	if in && !t.visit(int(n.inside), kq, eps, skip, hit) {
		return false
	}
	return !out || t.visit(int(n.outside), kq, eps, skip, hit)
}

// knn is the k-NN search.
func (t *VPTree) knn(q data.Tuple, k, skip int, c *Counters) []Neighbor {
	if k <= 0 || t.root < 0 {
		return nil
	}
	kq := t.kern.Bind(q)
	defer release(kq, c)
	h := newMaxHeap(k)
	t.knnSearch(t.root, kq, skip, h)
	return h.sorted()
}

func (t *VPTree) knnSearch(id int, kq *data.KernelQuery, skip int, h *maxHeap) {
	if id < 0 {
		return
	}
	n := &t.nodes[id]
	vp := int(n.idx)
	d := kq.DistTo(vp)
	if vp != skip && !t.dead.has(vp) {
		h.offer(Neighbor{Idx: vp, Dist: d})
	}
	bound, full := h.bound()
	if !full {
		bound = math.Inf(1)
	}
	// Descend the more promising side first so the bound tightens early.
	if d <= n.maxInside {
		if n.holdsIn(d, bound) {
			t.knnSearch(int(n.inside), kq, skip, h)
		}
		if bound, full = h.bound(); !full {
			bound = math.Inf(1)
		}
		if n.holdsOut(d, bound) {
			t.knnSearch(int(n.outside), kq, skip, h)
		}
	} else {
		if n.holdsOut(d, bound) {
			t.knnSearch(int(n.outside), kq, skip, h)
		}
		if bound, full = h.bound(); !full {
			bound = math.Inf(1)
		}
		if n.holdsIn(d, bound) {
			t.knnSearch(int(n.inside), kq, skip, h)
		}
	}
}

// Cells implements Joiner. The cells are the largest subtrees whose cover
// is at most eps, and a one-tuple cell for each vantage point above them,
// so in pre-order each cell is a run of consecutive nodes. With no cover
// at most eps every tuple is its own cell. The listing keeps room for
// Keep's counts of kept tuples before each cell in pre-order, by which a
// near walk passes over every subtree that holds none without evaluating
// its vantage point.
func (t *VPTree) Cells(eps float64) Cells {
	n := len(t.nodes)
	next := func(x int) int {
		if float64(t.nodes[x].cover) <= eps {
			return t.end(x)
		}
		return x + 1
	}
	cells := 0
	for x := 0; x < n; x = next(x) {
		cells++
	}
	// One buffer holds the node-to-cell map, the cells' roots, the
	// listing's offsets and room for the kept counts. Until the roots are
	// numbered, ids[x] is the smallest tuple id of the run at node x and
	// cellAt[x] its end.
	buf := make([]int32, 2*n+2*cells+2)
	cs := Cells{ids: make([]int, n), start: buf[n+cells : n+2*cells+1], eps: eps, root: buf[n : n : n+cells], cellAt: buf[:n],
		kept: buf[n+2*cells+1 : n+2*cells+1]}
	for x := 0; x < n; {
		e := next(x)
		cs.root = append(cs.root, int32(x))
		cs.cellAt[x] = int32(e)
		cs.ids[x] = int(t.nodes[x].idx)
		for k := x + 1; k < e; k++ {
			cs.ids[x] = min(cs.ids[x], int(t.nodes[k].idx))
		}
		x = e
	}
	slices.SortFunc(cs.root, func(a, b int32) int { return cs.ids[a] - cs.ids[b] })
	for c, x := range cs.root {
		e := cs.cellAt[x]
		cell := cs.ids[cs.start[c] : cs.start[c]+e-x]
		for k := range cell {
			cell[k] = int(t.nodes[int(x)+k].idx)
		}
		slices.Sort(cell)
		cs.start[c+1] = cs.start[c] + e - x
	}
	for c, x := range cs.root {
		cs.cellAt[x] = int32(c)
	}
	return cs
}

// cellCover returns the cover of cell c of cs: its root's for a subtree,
// 0 for a vantage point alone.
func (t *VPTree) cellCover(cs *Cells, c int) float64 {
	if cov := float64(t.nodes[cs.root[c]].cover); cov <= cs.eps {
		return cov
	}
	return 0
}

// Near implements Joiner.
func (t *VPTree) Near(cs *Cells, c int, dst []int32) []int32 { return t.near(cs, c, dst, nil) }

// near lists the cells after cell c in pre-order that can hold a tuple
// within cs.eps of one of c's tuples. Each of c's tuples lies within
// cover(c) of its vantage point v, so a pair within eps has its other
// tuple within r = cover(c) + eps of v. The walk from v at radius r keeps
// every subtree holding such a tuple: the shells prune as a range query
// prunes, and the cover drops a subtree whose vantage point lies farther
// than r + cover from v. It reaches the root of each cell that holds
// one, and lists it when its vantage point lies within r + cover(d) of
// v. Two kinds of subtree are passed over unevaluated: one that ends
// before c's root, whose cells list c from their own walks, and, once
// Keep has run, one that holds no kept tuple, which no pair the join
// makes can reach.
func (t *VPTree) near(cs *Cells, c int, dst []int32, ct *Counters) []int32 {
	if cs.Len() <= 1 || !(cs.eps >= 0) {
		return dst // one cell, or nothing lies within a negative radius
	}
	from := int(cs.root[c])
	w := nearWalk{cs: cs, v: int(t.nodes[from].idx), from: from, r: t.cellCover(cs, c) + cs.eps}
	dst = t.walkNear(&w, t.root, len(t.nodes), true, false, dst)
	if ct != nil {
		ct.DistEvals += w.evals
	}
	return dst
}

// VisitCell implements Joiner.
func (t *VPTree) VisitCell(cs *Cells, c int, hit func(int) bool, dst []int32) ([]int32, bool) {
	return t.visitCell(cs, c, hit, dst, nil)
}

// visitCell runs the visit from the one tuple v of cell c and c's near
// walk as one walk from v. A one-tuple cell's cover is 0, so both run at
// radius eps and prune by the same shells; the walk evaluates each node
// either needs once, and goes on after the visit stops. Each node the
// walk evaluates the visit or v's range query would, so the two cost at
// most that query. The walk's bound for a listed cell d, Δ(v, vp_d) ≤ eps
// + cover(d), is the reach test of v.
func (t *VPTree) visitCell(cs *Cells, c int, hit func(int) bool, dst []int32, ct *Counters) ([]int32, bool) {
	from := int(cs.root[c])
	v := int(t.nodes[from].idx)
	kq := t.kern.Bind(t.r.Tuples[v])
	defer release(kq, ct)
	w := nearWalk{cs: cs, v: v, from: from, r: cs.eps, kq: kq, hit: hit}
	return t.walkNear(&w, t.root, len(t.nodes), cs.Len() > 1 && cs.eps >= 0, true, dst), true
}

// nearWalk is one near walk: the listing, cell c's vantage point v, c's
// root node, the walk's radius and the distances it has evaluated. A
// walk alone reads distances between rows of the kernel, so it binds no
// query; a walk that runs with a visit from v evaluates through the
// visit's bound query kq and calls hit until it returns false.
type nearWalk struct {
	cs    *Cells
	v     int
	from  int
	r     float64
	evals int64
	kq    *data.KernelQuery
	hit   func(int) bool
}

// walkNear appends to dst the cells of node id's subtree, which ends
// before node end, that the near walk w lists, when walk; when vis, the
// visit reaches the subtree too. The visit descends the nearer side
// first, as visit does.
func (t *VPTree) walkNear(w *nearWalk, id, end int, walk, vis bool, dst []int32) []int32 {
	walk = walk && end > w.from && w.cs.keeps(id, end)
	vis = vis && w.hit != nil
	if !walk && !vis {
		return dst
	}
	n := &t.nodes[id]
	out := end
	if n.outside >= 0 {
		out = int(n.outside)
	}
	if !vis && out <= w.from {
		// c's root lies in the outside subtree, after this vantage point
		// and the inside subtree, so only the outside subtree is walked,
		// and entering it needs no distance: it holds c's vantage point.
		return t.walkNear(w, out, end, true, false, dst)
	}
	vp, d := int(n.idx), 0.0
	switch {
	case w.kq != nil && (vis || id != w.from):
		d = w.kq.DistTo(vp)
	case id != w.from:
		d = t.kern.Dist(w.v, vp)
		w.evals++
	}
	if vis && d <= w.r && vp != w.v && !t.dead.has(vp) && !w.hit(vp) {
		w.hit, vis = nil, false
	}
	in, outside := n.holdsIn(d, w.r), n.holdsOut(d, w.r)
	walkIn, walkOut := false, false
	if cov := float64(n.cover); walk {
		switch {
		case out <= w.from:
			walkOut = true
		case cov <= w.cs.eps: // a subtree cell: c itself, or one after it
			if id != w.from && d <= widen(w.r+cov) {
				dst = append(dst, w.cs.cellAt[id])
			}
		default:
			if id > w.from && d <= widen(w.r) && w.cs.keeps(id, id+1) { // a vantage point alone
				dst = append(dst, w.cs.cellAt[id])
			}
			walkIn, walkOut = in && d <= widen(w.r+cov), outside && d <= widen(w.r+cov)
		}
	}
	visIn, visOut := vis && in, vis && outside
	if d > n.maxInside && (walkOut || visOut) {
		dst = t.walkNear(w, int(n.outside), end, walkOut, visOut, dst)
		walkOut, visOut = false, false
	}
	if walkIn || visIn {
		dst = t.walkNear(w, int(n.inside), out, walkIn, visIn, dst)
	}
	if walkOut || visOut {
		dst = t.walkNear(w, int(n.outside), end, walkOut, visOut, dst)
	}
	return dst
}

// Reach implements Joiner.
func (t *VPTree) Reach(cs *Cells, i, d int) bool { return t.reach(cs, i, d, nil) }

// reach reports whether tuple i lies within cover(d) + eps of cell d's
// vantage point, as each tuple within eps of one of d's tuples does.
func (t *VPTree) reach(cs *Cells, i, d int, ct *Counters) bool {
	if ct != nil {
		ct.DistEvals++
	}
	_, ok := t.kern.DistLE(i, int(t.nodes[cs.root[d]].idx), widen(t.cellCover(cs, d)+cs.eps))
	return ok
}

// Probe implements Joiner.
func (t *VPTree) Probe(i int, eps float64) Probe { return t.probe(i, eps, nil) }

func (t *VPTree) probe(i int, eps float64, c *Counters) Probe {
	return Probe{kq: t.kern.Bind(t.r.Tuples[i]), bound: t.kern.LEBound(eps), dead: t.dead, c: c}
}
