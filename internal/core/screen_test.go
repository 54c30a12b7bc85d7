package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// screenWord is the text value of the screen test's outlier; inliers carry
// copies of it with k leading letters replaced by letters it does not
// contain, which puts them at Levenshtein distance exactly k.
const screenWord = "abcdefgh"

// screenText returns a string at edit distance exactly k from screenWord.
func screenText(k int) string {
	if k >= len(screenWord) {
		return strings.Repeat("z", 3*len(screenWord)) // distance 24
	}
	return strings.Repeat("z", k) + screenWord[k:]
}

// screenSchema is the screen test's schema over m = 5 attributes: all
// numeric, or three numeric plus two text attributes.
func screenSchema(norm metric.Norm, mixed bool) *data.Schema {
	sch := data.NewNumericSchema("a", "b", "c", "d", "e")
	if mixed {
		sch.Attrs[1].Kind = data.Text
		sch.Attrs[3].Kind = data.Text
	}
	sch.Norm = norm
	return sch
}

// screenRow returns the tuple at per-attribute distances ds from to:
// numeric attributes are offset by ds[a] (exact, as to holds integers),
// text attributes are rewritten at edit distance ds[a].
func screenRow(sch *data.Schema, to data.Tuple, ds []int) data.Tuple {
	t := make(data.Tuple, sch.M())
	for a := range t {
		if sch.Attrs[a].Kind == data.Text {
			t[a] = data.Str(screenText(ds[a]))
		} else {
			t[a] = data.Num(to[a].Num + float64(ds[a]))
		}
	}
	return t
}

// screenBoundary returns per-attribute distance patterns whose best
// aggregate over any |X| = m−κ is exactly ε = 5 (on) or just above it
// (off): the m−κ kept terms are integers (3-4-5 under L2), the κ dropped
// ones are far beyond ε. Every rotation is emitted, so the far terms are
// read first, last and in between.
func screenBoundary(norm metric.Norm, m, kappa int) (on, off [][]int) {
	keep := m - kappa
	in := make([]int, keep)
	out := make([]int, keep)
	switch norm {
	case metric.L1: // 5 = 3 + 2, 6 = 4 + 2
		in[0], out[0] = 5, 6
		if keep > 1 {
			in[0], in[1], out[0], out[1] = 3, 2, 4, 2
		}
	case metric.L2: // 5² = 3² + 4², 4² + 4² > 5²
		in[0], out[0] = 5, 6
		if keep > 1 {
			in[0], in[1], out[0], out[1] = 3, 4, 4, 4
		}
	case metric.LInf: // max = 5 vs 6
		for i := range in {
			in[i], out[i] = 5, 5
		}
		out[keep-1] = 6
	}
	for shift := 0; shift < m; shift++ {
		p, q := make([]int, m), make([]int, m)
		for j := 0; j < m; j++ {
			a := (j + shift) % m
			if j < keep {
				p[a], q[a] = in[j], out[j]
			} else {
				p[a], q[a] = 40, 40
			}
		}
		on, off = append(on, p), append(off, q)
	}
	return on, off
}

// screenOracle is the brute-force definition of the screen: every live
// inlier for which some X with |X| = m−κ has Δ_X(t_o, t) ≤ ε.
func screenOracle(r *data.Relation, alive func(int) bool, to data.Tuple, eps float64, kappa int) []int {
	sch := r.Schema
	m := sch.M()
	var want []int
	for i, t := range r.Tuples {
		if !alive(i) {
			continue
		}
		for x := data.AttrMask(0); x <= data.FullMask(m); x++ {
			if x.Count() == m-kappa && sch.DistOn(to, t, x) <= eps {
				want = append(want, i)
				break
			}
		}
	}
	return want
}

// TestKappaScreenDifferential pins the κ screen against its brute-force
// oracle: after a κ-restricted save, the compact candidate table holds
// exactly the live inliers some start mask admits — in inlier order, with
// the full per-attribute row and fullD of each. It runs over every norm,
// κ ∈ {1, 2, m−1}, a numeric and a numeric+text schema, and a static and a
// Mutable inlier set with tombstones and inserts. Boundary inliers at
// Δ_X = ε exactly must survive and their integer twins just outside must
// not, which pins ≤ against <; tombstoned rows must never survive.
func TestKappaScreenDifferential(t *testing.T) {
	const eps = 5.0
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		for _, mixed := range []bool{false, true} {
			for _, mutable := range []bool{false, true} {
				for _, kappa := range []int{1, 2, 4} {
					for seed := int64(1); seed <= 2; seed++ {
						name := fmt.Sprintf("%v/mixed=%t/mutable=%t/kappa=%d/seed=%d", norm, mixed, mutable, kappa, seed)
						t.Run(name, func(t *testing.T) {
							checkScreen(t, norm, mixed, mutable, kappa, seed, eps)
						})
					}
				}
			}
		}
	}
}

func checkScreen(t *testing.T, norm metric.Norm, mixed, mutable bool, kappa int, seed int64, eps float64) {
	sch := screenSchema(norm, mixed)
	m := sch.M()
	rng := rand.New(rand.NewSource(seed))
	to := make(data.Tuple, m)
	for a := range to {
		if sch.Attrs[a].Kind == data.Text {
			to[a] = data.Str(screenWord)
		} else {
			to[a] = data.Num(float64(rng.Intn(20)))
		}
	}
	randomRow := func() data.Tuple {
		t := make(data.Tuple, m)
		for a := range t {
			if sch.Attrs[a].Kind == data.Text {
				t[a] = data.Str(screenText(rng.Intn(9)))
			} else {
				t[a] = data.Num(to[a].Num + rng.NormFloat64()*4)
			}
		}
		return t
	}
	r := data.NewRelation(sch)
	for i := 0; i < 120; i++ {
		r.Append(randomRow())
	}
	on, off := screenBoundary(norm, m, kappa)
	for k := range on {
		r.Append(screenRow(sch, to, on[k]))
		r.Append(screenRow(sch, to, off[k]))
	}

	cons := Constraints{Eps: eps, Eta: 3}
	opts := Options{Kappa: kappa}
	var mut *neighbors.Mutable
	if mutable {
		var err error
		if mut, err = neighbors.NewMutable(r, eps, neighbors.KindBrute); err != nil {
			t.Fatal(err)
		}
		opts.Index = mut
	}
	s, err := NewSaverContext(context.Background(), r, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	alive := func(int) bool { return true }
	if mutable {
		// Tombstone every third row — boundary rows that would survive
		// included — then insert fresh rows, one of them on the boundary.
		for i := 0; i < r.N(); i += 3 {
			s.RemoveInlier(i)
		}
		for k := 0; k < 10; k++ {
			row := randomRow()
			if k == 0 {
				row = screenRow(sch, to, on[0])
			}
			s.InsertInlier(row)
			s.RefreshRadii(row)
		}
		alive = mut.Alive
	}

	ar := new(saveArena)
	adj := s.save(context.Background(), to, ar)
	want := screenOracle(r, alive, to, eps, kappa)
	got := ar.st.ids
	if !slices.Equal(got, want) {
		t.Fatalf("screen kept %v, oracle wants %v", got, want)
	}
	for _, i := range got {
		if !alive(i) {
			t.Fatalf("tombstoned row %d survived the screen", i)
		}
	}
	// Every boundary row on ε survives unless tombstoned; its twin just
	// outside never does (random rows may still land anywhere).
	boundary := 0
	for _, i := range got {
		is := func(ds []int) bool { return slices.Equal(r.Tuples[i], screenRow(sch, to, ds)) }
		if slices.ContainsFunc(off, is) {
			t.Fatalf("row %d just outside ε survived", i)
		}
		if slices.ContainsFunc(on, is) {
			boundary++
		}
	}
	if boundary == 0 {
		t.Fatal("no boundary row survived the screen")
	}

	// Survivors carry their full rows, and fullD folded in attribute order.
	kq := s.kern.Bind(to)
	defer kq.Release()
	for c, i := range got {
		full := 0.0
		for a := 0; a < m; a++ {
			d := kq.AttrDist(a, i)
			if s.sqNorm {
				d *= d
			}
			if ar.st.attrD[c*m+a] != d {
				t.Fatalf("survivor %d attribute %d: table %v, want %v", i, a, ar.st.attrD[c*m+a], d)
			}
			full = s.accumulate(full, d)
		}
		if ar.st.fullD[c] != full {
			t.Fatalf("survivor %d: fullD %v, want %v", i, ar.st.fullD[c], full)
		}
	}

	live := 0
	for i := 0; i < r.N(); i++ {
		if alive(i) {
			live++
		}
	}
	if adj.Stats.Candidates != int64(live) || adj.Stats.KappaPrefiltered != int64(live-len(got)) {
		t.Fatalf("candidates %d prefiltered %d; want %d read, %d dropped",
			adj.Stats.Candidates, adj.Stats.KappaPrefiltered, live, live-len(got))
	}
}
