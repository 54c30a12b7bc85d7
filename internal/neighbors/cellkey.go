package neighbors

import (
	"math"
	"math/bits"

	"repro/internal/data"
)

// cellKeyer is the grid's cell-keying layout: the scaled coordinate
// function, the bijective uint64 key packing with its build-time range
// guard, and the fixed-width string fallback for relations the packed
// layout cannot address. It is immutable after construction and safe for
// concurrent use.
type cellKeyer struct {
	rel  *data.Relation
	cell float64
	m    int
	// cols maps keyed dimensions to tuple columns (nil: the identity); a
	// grid over a projected kernel keys only the projection's columns.
	cols []int
	// packed selects the uint64-key layout; minC/maxC/shift describe the
	// per-dimension bit fields sized to the build-time coordinate ranges.
	packed bool
	minC   []int
	maxC   []int
	shift  []uint
}

// newCellKeyer sizes the key layout in one pass over the coordinates and
// returns that per-row coordinate buffer (row i's coordinates occupy
// coords[i*m : (i+1)*m]) so the grid's constructor can reuse it for
// insertion instead of paying a second pass. The caller must have verified
// the keyed columns are numeric. cols selects the keyed columns (nil: all
// of them).
func newCellKeyer(r *data.Relation, cols []int, cell float64) (*cellKeyer, []int) {
	if cell <= 0 {
		cell = 1
	}
	k := &cellKeyer{rel: r, cell: cell, m: r.Schema.M(), cols: cols}
	if cols != nil {
		k.m = len(cols)
	}
	n := r.N()
	coords := make([]int, n*k.m)
	k.minC, k.maxC = make([]int, k.m), make([]int, k.m)
	for a := 0; a < k.m; a++ {
		k.minC[a], k.maxC[a] = 0, -1 // empty range until a tuple lands
	}
	for i, t := range r.Tuples {
		for a := 0; a < k.m; a++ {
			c := k.Coord(t, a)
			coords[i*k.m+a] = c
			if i == 0 || c < k.minC[a] {
				k.minC[a] = c
			}
			if i == 0 || c > k.maxC[a] {
				k.maxC[a] = c
			}
		}
	}
	k.packed = k.m <= gridStackDims
	if k.packed {
		k.shift = make([]uint, k.m)
		total := uint(0)
		for a := 0; a < k.m && k.packed; a++ {
			k.shift[a] = total
			span := uint64(0)
			if n > 0 {
				span = uint64(k.maxC[a] - k.minC[a])
			}
			total += uint(bits.Len64(span))
			if total > 64 {
				k.packed = false
			}
		}
	}
	return k, coords
}

// Coord returns the scaled grid coordinate of attribute a of tuple t; cells
// must bucket by the same scaled units the distance kernel uses.
func (k *cellKeyer) Coord(t data.Tuple, a int) int {
	return int(math.Floor(k.pos(t, a)))
}

// pos returns keyed dimension a of t in cell units: the scaled value
// divided by the cell size, whose floor is the cell coordinate. The grid
// walk reads the query's position inside its cell from the same
// arithmetic.
func (k *cellKeyer) pos(t data.Tuple, a int) float64 {
	if k.cols != nil {
		a = k.cols[a]
	}
	v := t[a].Num
	if s := k.rel.Schema.Attrs[a].Scale; s > 0 {
		v /= s
	}
	return v / k.cell
}

// PackKey packs in-range cell coordinates into the bijective uint64 key.
// ok is false when any coordinate falls outside its build-time range (or
// the layout is not packed) — such a cell held no tuples at build time, so
// index probes skip it; this range guard is what makes the packing
// collision-free.
func (k *cellKeyer) PackKey(c []int) (key uint64, ok bool) {
	if !k.packed {
		return 0, false
	}
	for a := 0; a < k.m; a++ {
		if c[a] < k.minC[a] || c[a] > k.maxC[a] {
			return 0, false
		}
		key |= uint64(c[a]-k.minC[a]) << k.shift[a]
	}
	return key, true
}

// StringKey appends the fixed-width string encoding of the cell coordinates
// to b and returns it — the fallback keying for layouts the packed form
// cannot address. It is total: every coordinate vector has a string key.
func (k *cellKeyer) StringKey(b []byte, c []int) []byte {
	for a := 0; a < k.m; a++ {
		b = appendCoord(b, c[a])
	}
	return b
}
