package neighbors

import "repro/internal/data"

// CountWithinAtLeast reports whether q has at least k ε-neighbors in idx
// (excluding skip). Detection only needs the boolean — "count ≥ η" — so the
// query rides CountWithin's cap early-exit: the scan stops at the k-th hit
// instead of counting the whole ball. k ≤ 0 is vacuously true.
func CountWithinAtLeast(idx Index, q data.Tuple, eps float64, skip, k int) bool {
	if k <= 0 {
		return true
	}
	return idx.CountWithin(q, eps, skip, k) >= k
}

// CubeBound returns an upper bound on q's ε-neighbor count obtained purely
// from grid-cell populations — zero distance evaluations. Every ε-neighbor
// of q lies in a cell whose box is within ε of q (the cells the grid walk
// covers), so their total population bounds the count from above
// (tombstoned rows stay in their cells until a merge, which only loosens
// the bound). skip ≥ 0 asserts that physical row skip itself lies in q's
// own cell — callers probe q = rel.Tuples[skip] — and subtracts it; pass
// -1 otherwise.
//
// ok is false when the bound is unavailable: the index is not grid-backed
// (after unwrapping counting/context/mutable views), the radius spans more
// cells than the relation has tuples, or a Mutable holds delta rows outside
// the cells.
func CubeBound(idx Index, q data.Tuple, eps float64, skip int) (int, bool) {
	for {
		switch t := idx.(type) {
		case *counting:
			idx = t.idx
		case *ctxIndex:
			idx = t.idx
		case *mutView:
			idx = t.m
		case *Mutable:
			// Delta rows live outside the cells, so the cube population
			// would undercount them — only the all-in-cells state is sound.
			if t.grid == nil || len(t.delta) > 0 {
				return 0, false
			}
			idx = t.grid
		case *Grid:
			return t.cubeBound(q, eps, skip)
		default:
			return 0, false
		}
	}
}

// cubeBound sums the populations of the cells the grid walk covers for
// radius eps: every ε-neighbor of q lies in one of them.
func (g *Grid) cubeBound(q data.Tuple, eps float64, skip int) (int, bool) {
	total := 0
	if !g.walk(q, eps, false, func(idx []int, _ float64) bool {
		total += len(idx)
		return true
	}) {
		return 0, false
	}
	if skip >= 0 && total > 0 {
		total--
	}
	return total, true
}
