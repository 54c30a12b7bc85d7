package neighbors

import (
	"math"
	"slices"

	"repro/internal/data"
)

// Grid is a uniform hash grid over numeric attributes with cell size equal
// to the query radius hint. Every query walks only the cells whose box lies
// within the query radius, nearest box first (see walk): a range query with
// radius ≤ cell visits at most the 3^m surrounding cells, so the grid suits
// m ≤ 6 (GPS and Flight have m = 3). Larger radii widen the walk
// accordingly, so correctness never depends on the hint. The box bound is
// valid for every supported norm: it aggregates per-axis gaps under the
// schema's own L1/L2/L∞ norm, which is exactly how the distance aggregates
// per-attribute (scaled) distances.
//
// Cell keys are packed into a single uint64 when they fit: each
// dimension's coordinate, offset to its build-time minimum, occupies a
// fixed bit field sized to the build-time coordinate range. The packing
// is bijective over in-range coordinates — probes outside a dimension's
// range address cells that were empty at build time and are skipped
// before key construction, so two distinct cells can never alias one
// key (TestGridPackedKeyCollisionSafety pins this). Relations whose
// ranges do not fit in 64 bits, or with m > gridStackDims, keep the
// fixed-width string-key fallback.
type Grid struct {
	r    *data.Relation
	kern *data.Kernel
	// key owns the cell-keying layout (coordinates, packed bit fields);
	// cell/m/packed are hot-path copies of its fields.
	key      *cellKeyer
	cell     float64
	m        int
	packed   bool
	cells    map[uint64][]int
	cellsStr map[string][]int
	// brute is the pre-built fallback for queries whose cell cube would
	// cost more than a scan; hoisted here so fallbacks allocate nothing.
	// It shares the grid's compiled kernel (and text caches).
	brute *Brute
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper (also wired into brute); tombstoned rows stay in their
	// cells until the next merge and are skipped mid-scan.
	dead *deadSet
}

// gridStackDims bounds the dimensionality for which a query walks the cells
// with stack-resident per-axis state and key buffers; wider (unusual) grids
// fall back to per-query heap buffers and string keys.
const gridStackDims = 8

// NewGrid indexes the relation with the given cell size (clamped to a small
// positive value). It panics on non-numeric schemas, which would be a
// programming error — Build routes those to the VP-tree.
func NewGrid(r *data.Relation, cell float64) *Grid {
	kern := data.CompileKernel(r)
	if !kern.AllNumeric() {
		panic("neighbors: grid index requires an all-numeric schema")
	}
	return newGridKernel(r, kern, cell)
}

// newGridKernel builds the grid reusing an already-compiled kernel (the
// Mutable wrapper keeps one kernel — and its text caches — alive across
// delta merges). A projected kernel grids only its own columns.
func newGridKernel(r *data.Relation, kern *data.Kernel, cell float64) *Grid {
	// The keyer's sizing pass doubles as the insertion pass's coordinate
	// source, so building through it costs no extra scan.
	key, coords := newCellKeyer(r, kern.Cols(), cell)
	g := &Grid{
		r: r, kern: kern, key: key,
		cell: key.cell, m: key.m, packed: key.packed,
		brute: newBruteKernel(r, kern),
	}
	n := r.N()
	if g.packed {
		g.cells = make(map[uint64][]int)
		for i := 0; i < n; i++ {
			key, _ := g.packKey(coords[i*g.m : (i+1)*g.m])
			g.cells[key] = append(g.cells[key], i)
		}
	} else {
		g.cellsStr = make(map[string][]int)
		kb := make([]byte, 0, g.m*8)
		for i := 0; i < n; i++ {
			kb = kb[:0]
			for a := 0; a < g.m; a++ {
				kb = appendCoord(kb, coords[i*g.m+a])
			}
			k := string(kb) // insertion must materialize the key string
			g.cellsStr[k] = append(g.cellsStr[k], i)
		}
	}
	return g
}

// packKey packs in-range cell coordinates into the bijective uint64 key.
// ok is false when any coordinate falls outside its build-time range —
// such a cell held no tuples at build time, so probes skip it (this
// range guard is what makes the packing collision-free).
func (g *Grid) packKey(c []int) (key uint64, ok bool) {
	return g.key.PackKey(c)
}

// insert adds physical row i — already appended to the relation and the
// kernel — directly to its cell, the grid's native absorption of
// single-tuple churn. It reports false when the row's coordinates fall
// outside the packed key's build-time ranges (such a cell cannot be
// addressed without re-laying the bit fields); the caller then parks the
// row in its delta buffer instead. On success the brute fallback's scan
// bound is extended so degraded queries cover the row too.
//
// Only rows contiguous with the fallback's scan bound are accepted: once
// any row has been refused (i > brute.n would leave a gap owned by the
// delta buffer), subsequent rows are refused as well, otherwise a
// fallback scan and the delta scan would both report the gap rows.
func (g *Grid) insert(i int) bool {
	if i != g.brute.n {
		return false
	}
	t := g.r.Tuples[i]
	if g.packed {
		var cA [gridStackDims]int
		c := cA[:g.m]
		for a := 0; a < g.m; a++ {
			c[a] = g.coord(t, a)
		}
		key, ok := g.packKey(c)
		if !ok {
			return false
		}
		g.cells[key] = append(g.cells[key], i)
	} else {
		kb := make([]byte, 0, g.m*8)
		for a := 0; a < g.m; a++ {
			kb = appendCoord(kb, g.coord(t, a))
		}
		g.cellsStr[string(kb)] = append(g.cellsStr[string(kb)], i)
	}
	g.brute.n = i + 1
	return true
}

// Rel returns the indexed relation.
func (g *Grid) Rel() *data.Relation { return g.r }

// Kernel implements Kerneled.
func (g *Grid) Kernel() *data.Kernel { return g.kern }

// coord returns the scaled grid coordinate of attribute a of tuple t; the
// grid must bucket by the same scaled units the distance uses.
func (g *Grid) coord(t data.Tuple, a int) int { return g.key.Coord(t, a) }

// appendCoord appends the fixed-width little-endian encoding of one grid
// coordinate; fixed-width string keys make cheap map keys without a 64-bit
// hash collision analysis (the fallback layout for grids the packed keys
// cannot address).
func appendCoord(b []byte, c int) []byte {
	u := uint64(int64(c))
	for s := 0; s < 64; s += 8 {
		b = append(b, byte(u>>uint(s)))
	}
	return b
}

// nearCap is the capacity of the stack-resident near-cell list an ordered
// walk sorts before visiting. A walk with more cells in range (a wide
// radius, or m ≥ 4) sorts and visits them in chunks of this size: nearest
// first within each chunk, and correct in any order.
const nearCap = 64

// nearCell is one cell of an ordered walk: its position in the walk's
// offset box (mixed radix over the per-axis offset ranges) and a lower
// bound on the distance from the query to any tuple inside it.
type nearCell struct {
	lb   float64
	code int
}

// walkAxis is one axis of a walk: the query's cell coordinate and its
// position inside that cell, the range of cell offsets whose gap fits the
// radius, and the rounding slack taken off every gap.
type walkAxis struct {
	base, lo, hi int
	// stride is the axis's weight in a nearCell code.
	stride int
	// dir is the side (-1 or +1) of the query's cell nearer to the query.
	dir   int
	frac  float64 // position inside the cell, in [0, 1)
	slack float64 // absolute slack per gap at offset 0, in cell units
}

// offset returns the j-th cell offset in nearest-first order: 0, then the
// two sides alternately, nearer side first.
func (ax *walkAxis) offset(j int) int {
	k := (j + 1) / 2
	if j%2 == 0 {
		k = -k
	}
	return ax.dir * k
}

// gap returns a lower bound, in cell units, on the axis distance from the
// query to any tuple of the cell at offset o. It depends on the query and
// o alone, never on the walk's radius, so one cell gets the same bound in
// every round of a k-NN walk.
func (ax *walkAxis) gap(o int) float64 {
	var d float64
	switch {
	case o > 0:
		d = float64(o) - ax.frac
	case o < 0:
		d = float64(-o-1) + ax.frac
	default:
		return 0
	}
	return math.Max(0, d-ax.slack-0x1p-51*math.Abs(float64(o)))
}

// walk calls fn with the tuples of every occupied cell whose box lies
// within radius of q, together with a lower bound lb on the distance from
// q to any tuple of that cell. fn returns false to stop the walk. Ordered
// walks visit cells nearest box first, so capped counts and k-NN bounds
// settle early; unordered walks visit them in enumeration order. walk
// reports false, having called fn for nothing, when the cells in range
// span a box larger than the relation; the caller then degrades to its
// brute scan.
//
// A cell's bound is the per-axis gap from the query's position to the
// cell's box, in cell units, aggregated under the schema norm. Two slacks
// keep it below every distance the kernel can compute for a tuple in the
// cell, so the walk never drops an in-range tuple:
//
//   - every axis gap is reduced by a few ULPs of the coordinate
//     magnitude, covering the roundings of the scaled positions that
//     placed the tuple in its cell and the query inside its own;
//   - the aggregate is shrunk by (4m+16) unit roundoffs, covering the
//     kernel's per-attribute and aggregate roundings.
//
// The query's own cell has bound 0, and no "+1" ring is needed: at
// radius = cell each axis contributes offsets -1, 0 and +1 (plus the cell
// beyond a neighbor only when the query lies within the slack of a cell
// edge), so the walk covers 3^m cells, and L1 and L2 prune the far
// corners.
func (g *Grid) walk(q data.Tuple, radius float64, ordered bool, fn func(idx []int, lb float64) bool) bool {
	if radius < 0 {
		return true // nothing lies within a negative radius
	}
	r := radius / g.cell
	if !(r <= float64(g.r.N())) {
		return false // NaN, +Inf, or wider than the relation on one axis alone
	}
	m := g.m
	var axA [gridStackDims]walkAxis
	var jA, cA, dA [gridStackDims]int
	var accA [gridStackDims + 1]float64
	var keyA [gridStackDims * 8]byte
	axes, js, cc, dc, acc, kb := axA[:0], jA[:0], cA[:0], dA[:0], accA[:0], keyA[:0]
	if m > gridStackDims {
		axes, js, cc, dc = make([]walkAxis, 0, m), make([]int, 0, m), make([]int, 0, m), make([]int, 0, m)
		acc, kb = make([]float64, 0, m+1), make([]byte, 0, m*8)
	}
	axes, js, cc, dc, acc = axes[:m], js[:m], cc[:m], dc[:m], acc[:m+1]

	norm := g.r.Schema.Norm
	relSlack := float64(4*m+16) * 0x1p-53
	lim := r * (1 + 4*relSlack) // generous: the exact test is lb ≤ radius below
	limAcc := norm.Accumulate(0, lim)
	vol := 1
	for a := range axes {
		ax := &axes[a]
		y := g.key.pos(q, a)
		b := math.Floor(y)
		ax.base, ax.frac = int(b), y-b
		ax.slack = 0x1p-51 * (2*math.Abs(y) + 4)
		ext := ax.slack + 0x1p-51*(lim+2) // the slack of the farthest offset in range
		ax.hi = int(lim + ax.frac + ext)
		ax.lo = -int(lim + 1 - ax.frac + ext)
		ax.dir = 1
		if ax.frac < 0.5 {
			ax.dir = -1
		}
		ax.stride = vol
		vol *= ax.hi - ax.lo + 1
		if vol > g.r.N()+1 {
			return false
		}
	}

	var nearA [nearCap]nearCell
	near := nearA[:0]
	// Depth-first over the axes, each axis's offsets nearest first, so
	// the query's own cell comes first and a partial aggregate already
	// past the radius prunes the whole subtree.
	a := 0
	js[0] = -1
	for a >= 0 {
		ax := &axes[a]
		js[a]++
		if (js[a]+1)/2 > max(ax.hi, -ax.lo) {
			a-- // both sides exhausted
			continue
		}
		o := ax.offset(js[a])
		if o < ax.lo || o > ax.hi {
			continue
		}
		p := norm.Accumulate(acc[a], ax.gap(o))
		if p > limAcc {
			continue
		}
		cc[a] = ax.base + o
		if a < m-1 {
			acc[a+1] = p
			a++
			js[a] = -1
			continue
		}
		lb := norm.Finish(p) * g.cell * (1 - relSlack)
		if lb > radius {
			continue
		}
		if !ordered {
			if idx := g.cellAt(cc, kb); len(idx) > 0 && !fn(idx, lb) {
				return true
			}
			continue
		}
		code := 0
		for b := range axes {
			code += (cc[b] - axes[b].base - axes[b].lo) * axes[b].stride
		}
		near = append(near, nearCell{lb: lb, code: code})
		if len(near) == nearCap {
			if !g.visitNear(near, axes, dc, kb, fn) {
				return true
			}
			near = near[:0]
		}
	}
	g.visitNear(near, axes, dc, kb, fn)
	return true
}

// visitNear sorts one chunk of an ordered walk by bound and visits its
// occupied cells, decoding coordinates into dc (not the walk's own
// coordinate vector, which the walk resumes from); false means fn stopped
// the walk.
func (g *Grid) visitNear(near []nearCell, axes []walkAxis, dc []int, kb []byte, fn func(idx []int, lb float64) bool) bool {
	for i := 1; i < len(near); i++ {
		for j := i; j > 0 && near[j].lb < near[j-1].lb; j-- {
			near[j], near[j-1] = near[j-1], near[j]
		}
	}
	for _, nc := range near {
		for a := range axes {
			ax := &axes[a]
			dc[a] = ax.base + ax.lo + nc.code/ax.stride%(ax.hi-ax.lo+1)
		}
		if idx := g.cellAt(dc, kb); len(idx) > 0 && !fn(idx, nc.lb) {
			return false
		}
	}
	return true
}

// cellAt returns the tuples of the cell at coordinates c. Packed probes are
// a single uint64 map lookup (cells outside the build-time ranges were
// empty and are skipped before key construction); string probes use the
// alloc-free m[string(b)] lookup form over the stack buffer kb.
func (g *Grid) cellAt(c []int, kb []byte) []int {
	if g.packed {
		if key, ok := g.packKey(c); ok {
			return g.cells[key]
		}
		return nil
	}
	return g.cellsStr[string(g.key.StringKey(kb[:0], c))]
}

// Within implements Index.
func (g *Grid) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return g.within(nil, q, eps, skip, nil)
}

// WithinAppend implements WithinAppender.
func (g *Grid) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return g.within(dst, q, eps, skip, nil)
}

// CountWithin implements Index.
func (g *Grid) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return g.countWithin(q, eps, skip, cap, nil)
}

// KNN implements Index.
func (g *Grid) KNN(q data.Tuple, k, skip int) []Neighbor { return g.knn(q, k, skip, nil) }

// fallback counts one query degraded to the brute scan.
func fallback(c *Counters) {
	if c != nil {
		c.GridFallbacks++
	}
}

// within is the range walk (see counted for c).
func (g *Grid) within(dst []Neighbor, q data.Tuple, eps float64, skip int, c *Counters) []Neighbor {
	kq := g.kern.Bind(q)
	defer release(kq, c)
	bound := g.kern.LEBound(eps)
	if !g.walk(q, eps, false, func(idx []int, _ float64) bool {
		for _, i := range idx {
			if i == skip || g.dead.has(i) {
				continue
			}
			if d, within := kq.DistToLE(i, bound); within {
				dst = append(dst, Neighbor{Idx: i, Dist: d})
			}
		}
		return true
	}) {
		fallback(c)
		return g.brute.within(dst, q, eps, skip, c)
	}
	return dst
}

// countWithin is the capped counting walk. A capped count walks nearest
// cell first, so a dense neighborhood reaches its cap after about cap
// evaluations.
func (g *Grid) countWithin(q data.Tuple, eps float64, skip, cap int, c *Counters) int {
	kq := g.kern.Bind(q)
	defer release(kq, c)
	bound := g.kern.LEBound(eps)
	n := 0
	if !g.walk(q, eps, cap > 0, func(idx []int, _ float64) bool {
		for _, i := range idx {
			if i == skip || g.dead.has(i) {
				continue
			}
			if _, within := kq.DistToLE(i, bound); within {
				n++
				if cap > 0 && n >= cap {
					return false
				}
			}
		}
		return true
	}) {
		fallback(c)
		return g.brute.countWithin(q, eps, skip, cap, c)
	}
	return n
}

// VisitWithin implements Visiting.
func (g *Grid) VisitWithin(q data.Tuple, eps float64, from, skip int, keep, hit func(int) bool) {
	g.visitWithin(q, eps, from, skip, keep, hit, nil)
}

// visitWithin is the visiting walk, nearest cell first like a capped
// count. A cell lists its tuples in ascending order (rows are added in
// index order, and Grid.insert only appends the next row), so a cell that
// ends before from is passed over whole, and one that straddles it is
// entered at from by binary search.
func (g *Grid) visitWithin(q data.Tuple, eps float64, from, skip int, keep, hit func(int) bool, c *Counters) {
	kq := g.kern.Bind(q)
	defer release(kq, c)
	bound := g.kern.LEBound(eps)
	if !g.walk(q, eps, true, func(idx []int, _ float64) bool {
		if idx[len(idx)-1] < from {
			return true
		}
		if idx[0] < from {
			at, _ := slices.BinarySearch(idx, from)
			idx = idx[at:]
		}
		for _, i := range idx {
			if i == skip || g.dead.has(i) || keep != nil && !keep(i) {
				continue
			}
			if _, within := kq.DistToLE(i, bound); within && !hit(i) {
				return false
			}
		}
		return true
	}) {
		fallback(c)
		g.brute.visitWithin(q, eps, from, skip, keep, hit, c)
	}
}

// knn is the k-NN search, a best-first walk. Each round walks the cells
// within a radius (starting at one cell, doubling) nearest box first and
// skips every cell whose bound exceeds the current k-th distance, which
// shrinks as neighbors are found; cells an earlier round covered are not
// walked again. The query is answered once the heap is full and its k-th
// distance fits inside the round's radius: every tuple that could enter or
// tie it lies in a cell already walked. A round whose cells span a box
// larger than the relation degrades to the pre-built Brute scan.
func (g *Grid) knn(q data.Tuple, k, skip int, c *Counters) []Neighbor {
	if k <= 0 {
		return nil
	}
	n := g.r.N()
	if skip >= 0 && skip < n {
		n--
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	kq := g.kern.Bind(q)
	defer release(kq, c)
	h := maxHeap{k: k, ns: make([]Neighbor, 0, k)}
	bound, leb := math.Inf(1), math.Inf(1)
	walked := -1.0 // cells with lb ≤ walked were covered by an earlier round
	for radius := g.cell; ; radius *= 2 {
		if !g.walk(q, radius, true, func(idx []int, lb float64) bool {
			if lb <= walked || lb > bound {
				return true
			}
			for _, i := range idx {
				if i == skip || g.dead.has(i) {
					continue
				}
				d, within := kq.DistToLE(i, leb)
				if !within {
					continue
				}
				h.offer(Neighbor{Idx: i, Dist: d})
				if bd, full := h.bound(); full && bd != bound {
					bound = bd
					leb = g.kern.LEBound(bd)
				}
			}
			return true
		}) {
			fallback(c)
			return g.brute.knn(q, k, skip, c)
		}
		if _, full := h.bound(); full && bound <= radius {
			return h.sorted()
		}
		walked = radius
	}
}
