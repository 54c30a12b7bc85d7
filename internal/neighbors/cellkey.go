package neighbors

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/data"
)

// CellKeyer is the grid's cell-keying kernel factored out as a standalone
// component, so the spatial partitioner (internal/shard) and the Grid index
// bucket tuples through one shared path: the same scaled coordinate
// function, the same bijective uint64 key packing with its build-time range
// guard, and the same fixed-width string fallback for relations the packed
// layout cannot address. Anything keyed by a CellKeyer agrees cell-for-cell
// with a Grid built over the same relation and cell size — the property the
// ε-halo partition relies on.
//
// A CellKeyer is immutable after construction and safe for concurrent use.
type CellKeyer struct {
	rel  *data.Relation
	cell float64
	m    int
	// packed selects the uint64-key layout; minC/maxC/shift describe the
	// per-dimension bit fields sized to the build-time coordinate ranges.
	packed bool
	minC   []int
	maxC   []int
	shift  []uint
}

// NewCellKeyer builds a keyer over r with the given cell size (clamped to a
// small positive value, exactly like NewGrid). It returns an error on
// schemas with text attributes — cell coordinates are defined only for
// numeric values — where NewGrid would panic, so callers that accept
// arbitrary schemas (the partitioner) can degrade instead of crashing.
func NewCellKeyer(r *data.Relation, cell float64) (*CellKeyer, error) {
	for _, a := range r.Schema.Attrs {
		if a.Kind != data.Numeric {
			return nil, fmt.Errorf("neighbors: cell keying requires an all-numeric schema (attribute %q is text)", a.Name)
		}
	}
	k, _ := newCellKeyer(r, cell)
	return k, nil
}

// newCellKeyer sizes the key layout in one pass over the coordinates and
// returns that per-row coordinate buffer (row i's coordinates occupy
// coords[i*m : (i+1)*m]) so the grid's constructor can reuse it for
// insertion instead of paying a second pass. The caller must have verified
// the schema is all-numeric.
func newCellKeyer(r *data.Relation, cell float64) (*CellKeyer, []int) {
	if cell <= 0 {
		cell = 1
	}
	k := &CellKeyer{rel: r, cell: cell, m: r.Schema.M()}
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

// M returns the keyed dimensionality.
func (k *CellKeyer) M() int { return k.m }

// Cell returns the (clamped) cell size.
func (k *CellKeyer) Cell() float64 { return k.cell }

// Packed reports whether in-range cells are addressed by the bijective
// uint64 layout (false: the fixed-width string fallback keys every cell).
func (k *CellKeyer) Packed() bool { return k.packed }

// Coord returns the scaled grid coordinate of attribute a of tuple t; cells
// must bucket by the same scaled units the distance kernel uses.
func (k *CellKeyer) Coord(t data.Tuple, a int) int {
	return int(math.Floor(k.pos(t, a)))
}

// pos returns attribute a of t in cell units: the scaled value divided by
// the cell size, whose floor is the cell coordinate. The grid walk reads
// the query's position inside its cell from the same arithmetic.
func (k *CellKeyer) pos(t data.Tuple, a int) float64 {
	v := t[a].Num
	if s := k.rel.Schema.Attrs[a].Scale; s > 0 {
		v /= s
	}
	return v / k.cell
}

// Coords fills dst (grown as needed) with every coordinate of t and returns
// it.
func (k *CellKeyer) Coords(dst []int, t data.Tuple) []int {
	if cap(dst) < k.m {
		dst = make([]int, k.m)
	}
	dst = dst[:k.m]
	for a := 0; a < k.m; a++ {
		dst[a] = k.Coord(t, a)
	}
	return dst
}

// PackKey packs in-range cell coordinates into the bijective uint64 key.
// ok is false when any coordinate falls outside its build-time range (or
// the layout is not packed) — such a cell held no tuples at build time, so
// index probes skip it; this range guard is what makes the packing
// collision-free.
func (k *CellKeyer) PackKey(c []int) (key uint64, ok bool) {
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
func (k *CellKeyer) StringKey(b []byte, c []int) []byte {
	for a := 0; a < k.m; a++ {
		b = appendCoord(b, c[a])
	}
	return b
}

// Reach converts a query radius into the per-dimension cell reach of the
// cube that covers every tuple within eps of a cell's tuples: any pair of
// tuples within eps in aggregate is within eps per scaled attribute, hence
// within ceil(eps/cell)+1 cells per dimension.
func (k *CellKeyer) Reach(eps float64) int {
	return int(math.Ceil(eps/k.cell)) + 1
}

// CellKey is the comparable identity of one grid cell: the packed uint64
// when the layout addresses the cell, the fixed-width string otherwise.
// Keys from the same CellKeyer are equal exactly when the cells are equal.
type CellKey struct {
	packed bool
	u      uint64
	s      string
}

// CellKeyOf returns the cell key of tuple t under k — the exported form of
// the keying path NewGrid buckets with. It is total: tuples whose
// coordinates fall outside the packed layout's build-time ranges get the
// string-fallback key, so callers can key probe tuples that were not part
// of the build.
func CellKeyOf(k *CellKeyer, t data.Tuple) CellKey {
	var cA [gridStackDims]int
	var c []int
	if k.m <= gridStackDims {
		c = cA[:k.m]
	} else {
		c = make([]int, k.m)
	}
	for a := 0; a < k.m; a++ {
		c[a] = k.Coord(t, a)
	}
	return k.KeyOfCoords(c)
}

// KeyOfCoords is CellKeyOf for an already-computed coordinate vector.
func (k *CellKeyer) KeyOfCoords(c []int) CellKey {
	if u, ok := k.PackKey(c); ok {
		return CellKey{packed: true, u: u}
	}
	return CellKey{s: string(k.StringKey(make([]byte, 0, k.m*8), c))}
}
