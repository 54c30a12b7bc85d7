package neighbors

import (
	"math"
	"slices"
)

// Cells is an index's tuples grouped by cell for a join at one radius,
// the listing a Joiner returns. A cell is a region of the index, not
// necessarily a box: a grid cell, or a VP-tree subtree or vantage point.
// Cells are numbered in ascending order of their smallest tuple id, and
// each holds its tuple ids in ascending order. The index's Near(c) lists
// the cells after c in the index's own order (coordinates for the grid,
// pre-order for the VP-tree) that can hold a tuple within the radius of
// one of c's tuples, so each pair of cells is listed once, from its
// earlier cell, and Reach(i, d) is the test that tuple i can lie within
// the radius of one of cell d's tuples. Together they cover every pair
// within the radius: such a pair lies in one cell, or in cells c and d
// with d in Near(c) and Reach true for its tuple in c. A listing reads
// its index's own structure, so it is valid until the index changes,
// and it is safe for concurrent use.
type Cells struct {
	// ids holds the tuple ids cell by cell, and cell c's are
	// ids[start[c]:start[c+1]].
	ids   []int
	start []int32
	eps   float64
	// root[c] is the VP-tree node at the root of cell c, cellAt[x] the
	// cell rooted at node x, and, once Keep has run, kept[x] the number
	// of kept tuples at the nodes before cell root x in pre-order (a
	// VP-tree's listing only; kept has length 0 until then).
	root, cellAt, kept []int32
}

// oneCell lists tuples 0..n-1 as one cell.
func oneCell(n int) Cells {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return Cells{ids: ids, start: []int32{0, int32(n)}}
}

// Len returns the number of cells.
func (cs *Cells) Len() int { return len(cs.start) - 1 }

// Ids returns cell c's tuple ids, ascending.
func (cs *Cells) Ids(c int) []int { return cs.ids[cs.start[c]:cs.start[c+1]] }

// Keep records the tuples a join pairs, those keep reports true for:
// from then on the listing need cover only pairs of kept tuples, and a
// near walk passes over every region that holds none. Call it before the
// listing is shared; the grid's and brute's listings read no tuples and
// ignore it.
func (cs *Cells) Keep(keep func(i int) bool) {
	if cs.root == nil {
		return
	}
	n := len(cs.ids)
	cs.kept = cs.kept[:n+1]
	var sum int32
	for x := 0; x < n; {
		c := int(cs.cellAt[x])
		cs.kept[x] = sum
		for _, i := range cs.Ids(c) {
			if keep(i) {
				sum++
			}
		}
		x += len(cs.Ids(c))
	}
	cs.kept[n] = sum
}

// keeps reports whether VP-tree nodes x..end-1, a run of whole cells,
// hold a kept tuple.
func (cs *Cells) keeps(x, end int) bool { return len(cs.kept) == 0 || cs.kept[end] > cs.kept[x] }

// Cell returns the cell of tuple k of the listing, counting cell by cell.
func (cs *Cells) Cell(k int) int {
	c, _ := slices.BinarySearch(cs.start, int32(k+1))
	return c - 1
}

// At returns tuple k of the listing, counting cell by cell, and the
// tuples after it in its cell.
func (cs *Cells) At(k int) (i int, later []int) {
	return cs.ids[k], cs.ids[k+1 : cs.start[cs.Cell(k)+1]]
}

// Near implements Joiner.
func (g *Grid) Near(cs *Cells, c int, dst []int32) []int32 { return g.near(cs, c, dst, nil) }

// near lists the cells of cs near cell c; the grid's bound evaluates no
// distance.
func (g *Grid) near(cs *Cells, c int, dst []int32, _ *Counters) []int32 {
	if cs.Len() <= 1 || cs.eps < 0 {
		return dst // one cell, or nothing lies within a negative radius
	}
	return g.appendNear(dst, cs, c)
}

// Reach implements Joiner.
func (g *Grid) Reach(cs *Cells, i, d int) bool { return g.reach(cs, i, d, nil) }

// reach reports whether cell d's box can hold a tuple within the radius of
// tuple i: the bound a walk from tuple i puts on cell d, from the same
// arithmetic, so a cell the walk would visit passes.
func (g *Grid) reach(cs *Cells, i, d int, _ *Counters) bool {
	q, f := g.r.Tuples[i], g.r.Tuples[cs.ids[cs.start[d]]]
	norm := g.r.Schema.Norm
	p := 0.0
	for a := 0; a < g.m; a++ {
		ax := g.axis(q, a)
		p = norm.Accumulate(p, ax.gap(g.coord(f, a)-ax.base))
	}
	return g.lowerBound(p) <= cs.eps
}

// VisitCell implements Joiner: the grid's near listing evaluates no
// distance, so it has nothing to share with the visit.
func (g *Grid) VisitCell(cs *Cells, c int, hit func(int) bool, dst []int32) ([]int32, bool) {
	return g.visitCell(cs, c, hit, dst, nil)
}

func (g *Grid) visitCell(cs *Cells, c int, hit func(int) bool, dst []int32, ct *Counters) ([]int32, bool) {
	i := cs.Ids(c)[0]
	g.visitWithin(g.r.Tuples[i], cs.eps, i, hit, ct)
	return dst, false
}

// Cells implements Joiner. The grid is one cell when a walk at radius eps
// from the middle of a cell would fall back to the brute scan.
func (g *Grid) Cells(eps float64) Cells {
	if r := eps / g.cell; !(r <= float64(g.r.N())) || g.midBox(eps) > g.r.N()+1 {
		return g.brute.Cells(eps)
	}
	cells := make([][]int, 0, len(g.cells)+len(g.cellsStr))
	for _, idx := range g.cells {
		cells = append(cells, idx)
	}
	for _, idx := range g.cellsStr {
		cells = append(cells, idx)
	}
	slices.SortFunc(cells, func(a, b []int) int { return a[0] - b[0] })
	cs := Cells{ids: make([]int, 0, g.brute.n), start: make([]int32, 1, len(cells)+1), eps: eps}
	for _, idx := range cells {
		cs.ids = append(cs.ids, idx...)
		cs.start = append(cs.start, int32(len(cs.ids)))
	}
	return cs
}

// midBox returns the number of cells in the box of a walk at radius eps
// from the middle of a cell near the origin, stopping once it passes the
// relation's size.
func (g *Grid) midBox(eps float64) int {
	lim := eps / g.cell * (1 + 4*g.relSlack())
	side := 2*int(lim+0.5+0x1p-51*(lim+7)) + 1
	vol := 1
	for a := 0; a < g.m && vol <= g.r.N()+1; a++ {
		vol *= side
	}
	return vol
}

// appendNear appends to dst the cells after cell c of cs, in coordinate
// order, that some walk at the listing's radius from one of its tuples
// would visit. It bounds those walks from the box around the tuples'
// positions: each axis gap is taken from the box's far side, and the
// slack from the largest coordinate in the cell, so the bound is at most
// each walk's own, and a cell any of them visits is listed. Offsets are
// enumerated depth-first, pruned by their partial aggregate as the walk
// prunes, and only those whose first non-zero axis is positive count.
// walk itself is not reused: it bounds from one point, visits every cell
// in range, and falls back to a scan where this listing must not.
func (g *Grid) appendNear(dst []int32, cs *Cells, c int) []int32 {
	m, idx, eps := g.m, cs.Ids(c), cs.eps
	var cA, oA, pA, hA [gridStackDims]int
	var loA, hiA, slA [gridStackDims]float64
	var accA [gridStackDims + 1]float64
	var zA [gridStackDims + 1]bool
	var keyA [gridStackDims * 8]byte
	cc, off, pc, span, lo, hi, sl, acc, zero, kb := cA[:0], oA[:0], pA[:0], hA[:0], loA[:0], hiA[:0], slA[:0], accA[:0], zA[:0], keyA[:0]
	if m > gridStackDims {
		cc, off, pc, span = make([]int, 0, m), make([]int, 0, m), make([]int, 0, m), make([]int, 0, m)
		lo, hi, sl = make([]float64, 0, m), make([]float64, 0, m), make([]float64, 0, m)
		acc, zero, kb = make([]float64, 0, m+1), make([]bool, 0, m+1), make([]byte, 0, m*8)
	}
	cc, off, pc, span, lo, hi, sl, acc, zero = cc[:m], off[:m], pc[:m], span[:m], lo[:m], hi[:m], sl[:m], acc[:m+1], zero[:m+1]

	norm := g.r.Schema.Norm
	lim := eps / g.cell * (1 + 4*g.relSlack())
	limAcc := norm.Accumulate(0, lim)
	t0 := g.r.Tuples[idx[0]]
	for a := range cc {
		cc[a] = g.coord(t0, a)
		lo[a], hi[a] = 1, 0
		sl[a] = 0x1p-51 * (2*math.Max(math.Abs(float64(cc[a])), math.Abs(float64(cc[a]+1))) + 4)
		span[a] = int(lim + 1 + sl[a] + 0x1p-51*(lim+2))
	}
	for _, i := range idx {
		t := g.r.Tuples[i]
		for a := range lo {
			y := g.key.pos(t, a)
			f := y - math.Floor(y)
			lo[a], hi[a] = min(lo[a], f), max(hi[a], f)
		}
	}
	// zero[a] is whether every offset before axis a is 0; such an axis
	// starts at offset 0, so only later cells are enumerated.
	zero[0] = true
	a := 0
	off[0] = -1
	for a >= 0 {
		off[a]++
		if off[a] > span[a] {
			a--
			continue
		}
		// The axis gap from any of the tuples to the cell at this offset,
		// as walkAxis.gap bounds it from one of them.
		o, gap := off[a], 0.0
		switch {
		case o > 0:
			gap = float64(o) - hi[a]
		case o < 0:
			gap = float64(-o-1) + lo[a]
		}
		if o != 0 {
			gap = math.Max(0, gap-sl[a]-0x1p-51*math.Abs(float64(o)))
		}
		p := norm.Accumulate(acc[a], gap)
		if p > limAcc {
			continue
		}
		if a < m-1 {
			acc[a+1] = p
			zero[a+1] = zero[a] && off[a] == 0
			a++
			off[a] = -span[a] - 1
			if zero[a] {
				off[a] = -1
			}
			continue
		}
		if zero[a] && off[a] == 0 || g.lowerBound(p) > eps {
			continue
		}
		for b := range pc {
			pc[b] = cc[b] + off[b]
		}
		if ids := g.cellAt(pc, kb); len(ids) > 0 {
			d, _ := slices.BinarySearchFunc(cs.start[:cs.Len()], ids[0], func(s int32, f int) int { return cs.ids[s] - f })
			dst = append(dst, int32(d))
		}
	}
	return dst
}
