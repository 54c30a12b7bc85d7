package neighbors

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
)

// diffRelation builds a relation for the differential suite: numeric
// attributes with mixed scales, a chosen norm, and every tuple duplicated
// so distance ties are everywhere (including at every k-NN boundary).
func diffRelation(n, m int, norm metric.Norm, seed int64, duplicate bool) *data.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	s := data.NewNumericSchema(names...)
	s.Norm = norm
	for a := range s.Attrs {
		if a%2 == 1 {
			s.Attrs[a].Scale = 10 // heterogeneous units, like Time vs Longitude
		}
	}
	r := data.NewRelation(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t := make(data.Tuple, m)
		for a := range t {
			// Snap to a coarse lattice so exact ties also arise between
			// distinct tuples, not only between duplicates.
			t[a] = data.Num(float64(rng.Intn(12)))
			if s.Attrs[a].Scale > 0 {
				t[a] = data.Num(t[a].Num * s.Attrs[a].Scale)
			}
		}
		r.Append(t)
		if duplicate {
			r.Append(t.Clone())
		}
	}
	return r
}

// TestDifferentialIndexEquivalence pins Brute, Grid, VP-tree and k-d tree
// to identical answers for Within, CountWithin and KNN across norms,
// scaled attributes, duplicated tuples (ties at every boundary) and skip
// values. KNN answers are compared element-wise: the deterministic
// (distance, index) tie-break makes the full neighbor list, indexes
// included, part of the contract.
func TestDifferentialIndexEquivalence(t *testing.T) {
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		for _, duplicate := range []bool{false, true} {
			r := diffRelation(150, 3, norm, int64(7+int(norm)), duplicate)
			brute := NewBrute(r)
			indexes := map[string]Index{
				"grid":   NewGrid(r, 1.5),
				"vptree": NewVPTree(r, 3),
				"kdtree": NewKDTree(r),
			}
			// An L1/L∞ numeric schema must route to the grid now; keep the
			// routed index in the comparison so the Build path is what the
			// differential suite actually exercises.
			indexes["built"] = Build(r, 1.5)
			if _, ok := indexes["built"].(*Grid); !ok {
				t.Fatalf("norm %v: Build routed to %T, want *Grid", norm, indexes["built"])
			}

			rng := rand.New(rand.NewSource(int64(31 + int(norm))))
			for trial := 0; trial < 40; trial++ {
				q := make(data.Tuple, 3)
				for a := range q {
					q[a] = data.Num(rng.Float64() * 12)
					if s := r.Schema.Attrs[a].Scale; s > 0 {
						q[a] = data.Num(q[a].Num * s)
					}
				}
				if trial%4 == 0 {
					q = r.Tuples[rng.Intn(r.N())] // exact hits maximize ties
				}
				eps := 0.5 + rng.Float64()*4
				skip := -1
				if trial%3 == 0 {
					skip = rng.Intn(r.N())
				}
				k := 1 + rng.Intn(12)

				want := brute.Within(q, eps, skip)
				wantK := brute.KNN(q, k, skip)
				for name, idx := range indexes {
					sameNeighborSet(t, name+".Within", idx.Within(q, eps, skip), want)
					if got := idx.CountWithin(q, eps, skip, 0); got != len(want) {
						t.Fatalf("%s.CountWithin(norm=%v) = %d, want %d", name, norm, got, len(want))
					}
					capped := len(want) / 2
					if capped > 0 {
						if got := idx.CountWithin(q, eps, skip, capped); got != capped {
							t.Fatalf("%s.CountWithin(cap=%d) = %d", name, capped, got)
						}
					}
					gotK := idx.KNN(q, k, skip)
					if len(gotK) != len(wantK) {
						t.Fatalf("%s.KNN(norm=%v, dup=%v) returned %d, want %d", name, norm, duplicate, len(gotK), len(wantK))
					}
					for i := range gotK {
						if gotK[i] != wantK[i] {
							t.Fatalf("%s.KNN(norm=%v, dup=%v)[%d] = %+v, want %+v (tie-break must be deterministic)",
								name, norm, duplicate, i, gotK[i], wantK[i])
						}
					}
				}
			}
		}
	}
}

// TestKNNPrefixProperty checks that KNN(k) is a prefix of KNN(k') for
// k < k' on every index — the property Saver.initialBound relies on to
// resume its geometric k-NN growth without re-checking earlier positions.
func TestKNNPrefixProperty(t *testing.T) {
	r := diffRelation(120, 3, metric.L2, 11, true)
	for _, idx := range []Index{NewBrute(r), NewGrid(r, 1.5), NewVPTree(r, 5), NewKDTree(r)} {
		q := r.Tuples[17]
		prev := idx.KNN(q, 4, 17)
		for _, k := range []int{16, 64} {
			nn := idx.KNN(q, k, 17)
			if len(nn) < len(prev) {
				t.Fatalf("%T: KNN(%d) shorter than previous round", idx, k)
			}
			for i := range prev {
				if nn[i] != prev[i] {
					t.Fatalf("%T: KNN(%d)[%d] = %+v, want prefix %+v", idx, k, i, nn[i], prev[i])
				}
			}
			prev = nn
		}
	}
}

// TestGridKNNDegradesOnPathologicalDistribution forces the radius-doubling
// loop into the walk's box-size cutoff: a tight cluster plus one query far
// outside it used to double ~30 times toward the 1<<30 escape hatch; now
// the walk degrades to the brute path after a handful of rounds, and the
// answer still matches Brute exactly.
func TestGridKNNDegradesOnPathologicalDistribution(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x", "y"))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		r.Append(data.Tuple{data.Num(rng.Float64()), data.Num(rng.Float64())})
	}
	g := NewGrid(r, 1e-6) // tiny cells: every widening round is useless
	brute := NewBrute(r)
	q := data.Tuple{data.Num(1e9), data.Num(-1e9)}
	got := g.KNN(q, 5, -1)
	want := brute.KNN(q, 5, -1)
	if len(got) != len(want) {
		t.Fatalf("degraded KNN returned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degraded KNN[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGridVisitZeroAlloc asserts the steady-state allocation contract of
// the cell walk: the per-axis state, the near-cell list and the key buffer
// live on the stack, and probes use the alloc-free map lookup forms, so
// CountWithin — uncapped (enumeration order) or capped (nearest first) —
// performs zero heap allocations per query, and KNN allocates only the
// result slice its heap is built in.
func TestGridVisitZeroAlloc(t *testing.T) {
	r := diffRelation(400, 3, metric.L2, 17, false)
	g := NewGrid(r, 1.5)
	q := r.Tuples[42]
	for _, cap := range []int{0, 5} {
		if got := testing.AllocsPerRun(200, func() {
			g.CountWithin(q, 1.5, 42, cap)
		}); got != 0 {
			t.Errorf("CountWithin(cap=%d) allocates %.1f times per query, want 0", cap, got)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		g.KNN(q, 8, 42)
	}); got != 1 {
		t.Errorf("KNN allocates %.1f times per query, want 1 (the result)", got)
	}
}

// walkRelation is the grid-walk fixture: the first three attributes sit on
// an integer lattice {0..5}, so lattice queries lie exactly on cell edges
// for cells of 0.5, 1 and 1.5 and many neighbors lie at exactly ε = 1 (and
// at √2 under L2). Attribute scales cycle through none, 10 and 0.1 — the
// last makes scaled positions round, so "exactly ε" is decided by the
// kernel's arithmetic. Attributes beyond the third are constant. Every
// lattice point appears dup times, so k-NN ties sit at every boundary.
// far adds two isolated tuples some 2^42 cells out, which leaves too few
// bits to pack the cell keys at any m. offset shifts the lattice, so at
// 10⁶ the scaled positions carry rounding errors of some 10⁻¹⁰ cells.
func walkRelation(m, dup int, far bool, offset float64, norm metric.Norm, seed int64) *data.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	s := data.NewNumericSchema(names...)
	s.Norm = norm
	scales := []float64{0, 10, 0.1}
	for a := range s.Attrs {
		s.Attrs[a].Scale = scales[a%3]
	}
	r := data.NewRelation(s)
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < 216; p++ {
		t := make(data.Tuple, m)
		for a := range t {
			c := 0.0
			if a < 3 {
				c = offset + float64(p/[]int{1, 6, 36}[a]%6)
			}
			if sc := s.Attrs[a].Scale; sc > 0 {
				c *= sc
			}
			t[a] = data.Num(c)
		}
		for d := 0; d < dup; d++ {
			r.Append(t.Clone())
		}
	}
	for f := 0; far && f < 2; f++ {
		t := make(data.Tuple, m)
		for a := range t {
			v := float64(1-2*f) * 4e12
			if sc := s.Attrs[a].Scale; sc > 0 {
				v *= sc
			}
			t[a] = data.Num(v)
		}
		r.Append(t)
	}
	// Shuffle so duplicates and cell neighbors are not index-adjacent.
	rng.Shuffle(r.N(), func(i, j int) { r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i] })
	return r
}

// TestGridWalkMatchesBrute pins the pruned nearest-first walk to the brute
// scan on the inputs where a cell bound is most likely to be off by a
// rounding: queries on cell edges, neighbors at exactly ε, scaled (and
// rounding) attributes, all three norms, cells of 0.5ε, ε and 1.5ε, and
// both key layouts (packed at m = 3, also 10⁶ cells out; string keys at
// m = 9, and at m = 3 over a range too wide to pack). Within, CountWithin
// with and without a cap, and KNN must answer exactly like Brute, KNN
// including its (distance, index) tie order.
func TestGridWalkMatchesBrute(t *testing.T) {
	layouts := []struct {
		name   string
		m, dup int
		far    bool
		offset float64
		packed bool
	}{
		{"packed", 3, 2, false, 0, true},
		{"packed-offset", 3, 2, false, 1e6, true},
		{"string-m9", 9, 10, false, 0, false},
		{"string-wide", 3, 2, true, 0, false},
	}
	for _, lay := range layouts {
		for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
			r := walkRelation(lay.m, lay.dup, lay.far, lay.offset, norm, int64(23+int(norm)))
			brute := NewBrute(r)
			for _, cellF := range []float64{0.5, 1, 1.5} {
				name := fmt.Sprintf("%s/%v/cell=%gε", lay.name, norm, cellF)
				var c, ck Counters
				g := NewGrid(r, cellF)
				if g.packed != lay.packed {
					t.Fatalf("%s: packed = %v, want %v", name, g.packed, lay.packed)
				}
				view, kview := Counting(g, &c), Counting(g, &ck)
				rng := rand.New(rand.NewSource(int64(cellF * 10)))
				for trial := 0; trial < 24; trial++ {
					q, skip := walkQuery(r, rng, trial, lay.offset)
					for _, eps := range []float64{1, math.Sqrt2} {
						want := brute.Within(q, eps, skip)
						sameNeighborSet(t, name+" Within", view.Within(q, eps, skip), want)
						for _, cap := range []int{0, 1, 5, len(want)} {
							wantC := len(want)
							if cap > 0 && cap < wantC {
								wantC = cap
							}
							if got := view.CountWithin(q, eps, skip, cap); got != wantC {
								t.Fatalf("%s: CountWithin(eps=%v, cap=%d) = %d, want %d", name, eps, cap, got, wantC)
							}
						}
					}
					for _, k := range []int{1, 4, 2 * lay.dup, 40} {
						got, wantK := kview.KNN(q, k, skip), brute.KNN(q, k, skip)
						if len(got) != len(wantK) {
							t.Fatalf("%s: KNN(%d) returned %d, want %d", name, k, len(got), len(wantK))
						}
						for i := range wantK {
							if got[i] != wantK[i] {
								t.Fatalf("%s: KNN(%d)[%d] = %+v, want %+v", name, k, i, got[i], wantK[i])
							}
						}
					}
				}
				// The walk itself must have answered, not only the brute
				// fallback behind it. At m = 9 this relation is too small
				// for the boxes of cells of 0.5ε and ε, and for every k-NN
				// round; the string-wide layout walks those instead.
				if (lay.m == 3 || cellF == 1.5) && c.GridFallbacks >= c.RangeQueries {
					t.Fatalf("%s: every one of %d range queries fell back to brute", name, c.RangeQueries)
				}
				if lay.m == 3 && ck.GridFallbacks >= ck.KNNQueries {
					t.Fatalf("%s: every one of %d k-NN queries fell back to brute", name, ck.KNNQueries)
				}
			}
		}
	}
}

// walkQuery returns trial's query and skip: a relation tuple (skipped,
// the detection shape), a lattice point on cell edges, a point at half
// steps, or a random point inside the lattice shifted by offset.
func walkQuery(r *data.Relation, rng *rand.Rand, trial int, offset float64) (data.Tuple, int) {
	if trial%4 == 0 {
		i := rng.Intn(r.N())
		return r.Tuples[i], i
	}
	q := make(data.Tuple, r.Schema.M())
	for a := range q {
		v := 0.0
		if a < 3 {
			switch trial % 4 {
			case 1:
				v = float64(rng.Intn(6))
			case 2:
				v = float64(rng.Intn(12)) / 2
			default:
				v = rng.Float64() * 5
			}
			v += offset
		}
		if sc := r.Schema.Attrs[a].Scale; sc > 0 {
			v *= sc
		}
		q[a] = data.Num(v)
	}
	return q, -1
}
