package neighbors

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/data"
)

// VPTree is a vantage-point tree: a metric-space index that only relies on
// the triangle inequality, so it serves the 16-attribute Letter data and
// the textual Restaurant data equally. Build is O(n log n) distance
// computations; range and k-NN queries prune subtrees whose distance
// interval cannot intersect the query ball.
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
	// evals, when non-nil, counts query-time distance evaluations (see
	// Counting); build-time distances are not counted.
	evals *int64
	ks    kernHooks
}

// vpNode is one vantage point. The median distance that splits its
// subtrees is maxInside itself (the median row lands inside), so it is
// not stored; int32 ids keep a node at 32 bytes, which matters once a
// saver keeps a tree per attribute group besides its own.
type vpNode struct {
	idx        int32   // tuple index of the vantage point
	inside     int32   // node id of the ≤ median subtree (-1 none)
	outside    int32   // node id of the > median subtree (-1 none)
	maxInside  float64 // max distance to vantage point within inside subtree
	minOutside float64 // min distance to vantage point within outside subtree
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
	return id
}

// Within implements Index.
func (t *VPTree) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return t.WithinAppend(nil, q, eps, skip)
}

// WithinAppend implements WithinAppender. The traversal is closure-free —
// the result buffer threads through the recursion — so a caller-reused dst
// keeps the whole query allocation-free.
func (t *VPTree) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if t.root < 0 {
		return dst
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
	return t.rangeAppend(t.root, kq, eps, skip, dst)
}

// CountWithin implements Index.
func (t *VPTree) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	if t.root < 0 {
		return 0
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
	c, _ := t.rangeCount(t.root, kq, eps, skip, cap, 0)
	return c
}

// rangeAppend appends every tuple within eps of the bound query to dst.
func (t *VPTree) rangeAppend(id int, kq *data.KernelQuery, eps float64, skip int, dst []Neighbor) []Neighbor {
	n := &t.nodes[id]
	vp := int(n.idx)
	count(t.evals)
	d := kq.DistTo(vp)
	if d <= eps && vp != skip && !t.dead.has(vp) {
		dst = append(dst, Neighbor{Idx: vp, Dist: d})
	}
	// Triangle inequality: any point p in the inside subtree has
	// |d − Δ(vp,p)| ≤ Δ(q,p), with Δ(vp,p) ≤ maxInside; the inside subtree
	// can contain matches only if d − eps ≤ maxInside. Symmetrically for
	// the outside subtree with Δ(vp,p) ≥ minOutside.
	if n.inside >= 0 && d-eps <= n.maxInside {
		dst = t.rangeAppend(int(n.inside), kq, eps, skip, dst)
	}
	if n.outside >= 0 && d+eps >= n.minOutside {
		dst = t.rangeAppend(int(n.outside), kq, eps, skip, dst)
	}
	return dst
}

// rangeCount counts tuples within eps of the bound query, aborting once the
// running count c reaches cap (cap ≤ 0 disables the early exit); more=false
// propagates the abort up the recursion.
func (t *VPTree) rangeCount(id int, kq *data.KernelQuery, eps float64, skip, cap, c int) (int, bool) {
	n := &t.nodes[id]
	vp := int(n.idx)
	count(t.evals)
	d := kq.DistTo(vp)
	if d <= eps && vp != skip && !t.dead.has(vp) {
		c++
		if cap > 0 && c >= cap {
			return c, false
		}
	}
	more := true
	if n.inside >= 0 && d-eps <= n.maxInside {
		if c, more = t.rangeCount(int(n.inside), kq, eps, skip, cap, c); !more {
			return c, false
		}
	}
	if n.outside >= 0 && d+eps >= n.minOutside {
		if c, more = t.rangeCount(int(n.outside), kq, eps, skip, cap, c); !more {
			return c, false
		}
	}
	return c, true
}

// KNN implements Index.
func (t *VPTree) KNN(q data.Tuple, k, skip int) []Neighbor {
	if k <= 0 || t.root < 0 {
		return nil
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
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
	count(t.evals)
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
		if n.inside >= 0 && d-bound <= n.maxInside {
			t.knnSearch(int(n.inside), kq, skip, h)
		}
		if bound, full = h.bound(); !full {
			bound = math.Inf(1)
		}
		if n.outside >= 0 && d+bound >= n.minOutside {
			t.knnSearch(int(n.outside), kq, skip, h)
		}
	} else {
		if n.outside >= 0 && d+bound >= n.minOutside {
			t.knnSearch(int(n.outside), kq, skip, h)
		}
		if bound, full = h.bound(); !full {
			bound = math.Inf(1)
		}
		if n.inside >= 0 && d-bound <= n.maxInside {
			t.knnSearch(int(n.inside), kq, skip, h)
		}
	}
}
