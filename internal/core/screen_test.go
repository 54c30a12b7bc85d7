package core

import (
	"context"
	"fmt"
	"math"
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
//
// The saver reads only the union of its attribute groups' ε-range hits;
// the test checks that union against its brute-force definition and the
// whole save against the same saver with its groups removed, which
// screens every live inlier: survivor ids, rows, fullD, hot sets, cold
// aggregates, their order and the answer must be identical. Rows exactly
// at ε on one group's projection, and far beyond it on κ attributes
// outside the group, survive only through that group's hits.
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
	groups := roundRobinGroups(m, kappa)
	onGroup := make([][]int, len(groups))
	for g, cols := range groups {
		onGroup[g] = groupBoundary(norm, m, kappa, cols)
		r.Append(screenRow(sch, to, onGroup[g]))
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
	// attributeGroups may keep no groups for κ = m−1 on this data; the
	// union-then-screen path must be exact for any partition, so the test
	// fixes one before mutating.
	s.indexGroups(groups)
	alive := func(int) bool { return true }
	if mutable {
		// Tombstone every third row — boundary rows that would survive
		// included — then insert fresh rows, one of them on the boundary.
		for i := 0; i < r.N(); i += 3 {
			s.RemoveInlier(i)
		}
		for k := 0; k < 10; k++ {
			row := randomRow()
			switch k {
			case 0:
				row = screenRow(sch, to, on[0])
			case 1:
				row = screenRow(sch, to, onGroup[len(groups)-1])
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

	for g, ds := range onGroup {
		i := slices.IndexFunc(r.Tuples, func(t data.Tuple) bool { return slices.Equal(t, screenRow(sch, to, ds)) })
		if alive(i) && !slices.Contains(got, i) {
			t.Fatalf("row %d, at ε on group %v, did not survive", i, groups[g])
		}
	}

	// The screen read exactly the union of the group hits: the live rows
	// within ε (plus the query slack) of to on some group's projection.
	radius := eps * (1 + float64(4*m+16)*0x1p-53)
	var union []int
	live := 0
	for i, tp := range r.Tuples {
		if !alive(i) {
			continue
		}
		live++
		for _, cols := range groups {
			var x data.AttrMask
			for _, a := range cols {
				x = x.With(a)
			}
			if sch.DistOn(to, tp, x) <= radius {
				union = append(union, i)
				break
			}
		}
	}
	if adj.Stats.Candidates != int64(len(union)) || adj.Stats.KappaPrefiltered != int64(len(union)-len(got)) {
		t.Fatalf("candidates %d prefiltered %d; want the %d union rows read, %d dropped",
			adj.Stats.Candidates, adj.Stats.KappaPrefiltered, len(union), len(union)-len(got))
	}

	// Without groups the screen reads every live inlier and must build
	// the identical tables and answer.
	grouped := s.groups
	s.groups = nil
	fr := new(saveArena)
	full := s.save(context.Background(), to, fr)
	s.groups = grouped
	fst := &fr.st
	if !slices.Equal(fst.ids, got) || !slices.Equal(fst.attrD, ar.st.attrD) || !slices.Equal(fst.fullD, ar.st.fullD) ||
		!slices.Equal(fst.hot, ar.st.hot) || !slices.Equal(fst.coldD, ar.st.coldD) {
		t.Fatalf("grouped screen tables differ from the full screen's: ids %v vs %v", got, fst.ids)
	}
	if !full.bestEqual(adj) || full.Cost != adj.Cost {
		t.Fatalf("grouped save %+v differs from the full-screen save %+v", adj, full)
	}
	if full.Stats.Candidates != int64(live) || full.Stats.KappaPrefiltered != int64(live-len(got)) {
		t.Fatalf("full screen: candidates %d prefiltered %d; want %d read, %d dropped",
			full.Stats.Candidates, full.Stats.KappaPrefiltered, live, live-len(got))
	}
}

// roundRobinGroups deals m attributes into κ+1 groups: a joins a mod (κ+1).
func roundRobinGroups(m, kappa int) [][]int {
	groups := make([][]int, kappa+1)
	for a := 0; a < m; a++ {
		groups[a%(kappa+1)] = append(groups[a%(kappa+1)], a)
	}
	return groups
}

// groupBoundary returns per-attribute distances whose aggregate over the
// group cols is exactly ε = 5 (integer L1/L∞ terms, 3-4-5 under L2), with
// zeros on the other m−κ−|cols| attributes of a start mask and 40 on the κ
// attributes outside it: the row survives the screen through that one
// group alone.
func groupBoundary(norm metric.Norm, m, kappa int, cols []int) []int {
	ds := make([]int, m)
	for a := range ds {
		ds[a] = -1
	}
	for _, a := range cols {
		ds[a] = 0
	}
	switch {
	case len(cols) == 1 || norm == metric.LInf:
		ds[cols[0]] = 5
	case norm == metric.L1:
		ds[cols[0]], ds[cols[1]] = 3, 2
	default:
		ds[cols[0]], ds[cols[1]] = 3, 4
	}
	far := kappa
	for a := m - 1; a >= 0; a-- {
		if ds[a] < 0 {
			if far > 0 {
				ds[a], far = 40, far-1
			} else {
				ds[a] = 0
			}
		}
	}
	return ds
}

// TestStartMaskFilterDifferential pins maskFilter against the direct sum
// over X, folded in attribute order, for every start mask under every
// norm: a candidate is kept exactly when that sum is ≤ ε, and its kept
// aggregate is the sum up to rounding on the scale of ε (bit-equal on the
// integer rows). Rows pairing huge terms (10²⁰) with small ones are the
// cancellation hazard of subtracting the complement from fullD: the mask
// holding the moderate hot term 7 but not the huge one would read ≈ 0.
// Boundary rows sit exactly at ε (integer L1/L∞ terms, 3-4-5 under L2).
// It also confirms that residual, which still subtracts from fullD, stays
// within a few unit roundoffs of the direct sum over R\X.
func TestStartMaskFilterDifferential(t *testing.T) {
	const eps = 5.0
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		for _, kappa := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/kappa=%d", norm, kappa), func(t *testing.T) {
				checkMaskFilter(t, norm, kappa, eps)
			})
		}
	}
}

func checkMaskFilter(t *testing.T, norm metric.Norm, kappa int, eps float64) {
	sch := screenSchema(norm, false)
	m := sch.M()
	rng := rand.New(rand.NewSource(int64(kappa)))
	to := make(data.Tuple, m)
	for a := range to {
		to[a] = data.Num(float64(rng.Intn(20)))
	}
	offsetRow := func(ds []float64) data.Tuple {
		row := make(data.Tuple, m)
		for a := range row {
			row[a] = data.Num(to[a].Num + ds[a])
		}
		return row
	}
	r := data.NewRelation(sch)
	hot := []float64{1e20, 7}[:kappa]
	cold := []float64{0.3, 0.1, 0.2, 0.05, 0.15}[:m-kappa]
	for shift := 0; shift < m; shift++ {
		ds := make([]float64, m)
		for j, d := range append(append([]float64{}, hot...), cold...) {
			ds[(j+shift)%m] = d
		}
		r.Append(offsetRow(ds))
	}
	on, off := screenBoundary(norm, m, kappa)
	for k := range on {
		r.Append(screenRow(sch, to, on[k]))
		r.Append(screenRow(sch, to, off[k]))
	}
	for i := 0; i < 60; i++ {
		ds := make([]float64, m)
		for a := range ds {
			ds[a] = rng.NormFloat64() * 3
		}
		r.Append(offsetRow(ds))
	}
	s, err := NewSaverContext(context.Background(), r, Constraints{Eps: eps, Eta: 3}, Options{Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	ar := new(saveArena)
	s.save(context.Background(), to, ar)
	st := &ar.st
	root := make([]int, len(st.ids))
	for c := range root {
		root[c] = c
	}
	epsAcc := s.threshold(eps)
	tol := func(v float64) float64 { return float64(4*m) * 0x1p-53 * (v + epsAcc) }
	hazards := 0
	for x := data.AttrMask(0); x <= data.FullMask(m); x++ {
		if x.Count() != m-kappa {
			continue
		}
		var compl []int
		for a := 0; a < m; a++ {
			if !x.Has(a) {
				compl = append(compl, a)
			}
		}
		cand, sub := s.maskFilter(st, root, x, compl)
		kept := make(map[int]float64, len(cand))
		for k, c := range cand {
			kept[c] = sub[k]
		}
		for c := range root {
			direct, full := 0.0, 0.0
			for a := 0; a < m; a++ {
				d := st.attrD[c*m+a]
				full = s.accumulate(full, d)
				if x.Has(a) {
					direct = s.accumulate(direct, d)
				}
			}
			if full > 1e15 && direct < 1e15 {
				hazards++ // fullD − complement would cancel here
			}
			got, ok := kept[c]
			if ok != (direct <= epsAcc) {
				t.Fatalf("row %d mask %b: kept=%t, direct sum %v vs ε %v", st.ids[c], x, ok, direct, epsAcc)
			}
			if !ok {
				continue
			}
			if math.Abs(got-direct) > tol(direct) {
				t.Fatalf("row %d mask %b: aggregate %v, direct sum %v", st.ids[c], x, got, direct)
			}
			if isIntegral(st.attrD[c*m:c*m+m]) && got != direct {
				t.Fatalf("row %d mask %b: integer terms, aggregate %v != direct sum %v", st.ids[c], x, got, direct)
			}
			want := 0.0
			for a := 0; a < m; a++ {
				if !x.Has(a) {
					want = s.accumulate(want, st.attrD[c*m+a])
				}
			}
			if res := s.residual(st, got, c, x); math.Abs(res-want) > tol(want) {
				t.Fatalf("row %d mask %b: residual %v, direct sum over R\\X %v", st.ids[c], x, res, want)
			}
		}
	}
	if hazards == 0 {
		t.Fatal("no huge-term row reached the mask filter")
	}
}

// isIntegral reports whether every term is an integer, so sums over them
// are exact in any order.
func isIntegral(ds []float64) bool {
	for _, d := range ds {
		if d != math.Trunc(d) {
			return false
		}
	}
	return true
}

// TestGroupQuerySlack pins the relative slack on the group queries. The
// screen folds a row's kept terms in eviction order, a group index folds
// its own in attribute order, and the two roundings can straddle ε. Here,
// under L1 with κ = 1 and groups {0, 2, 4} and {1, 3, 5}, the row's terms
// are (a, 0, b, 0, c, 40) with c < b: the screen keeps b in its top slot
// while it folds c, so it sums (a + c) + b = 5 = ε exactly, while the
// group sums (a + b) + c = 5 + 1 ulp. Without the slack the row would
// survive the screen yet miss every group query.
func TestGroupQuerySlack(t *testing.T) {
	var a, b, c = 1.5282848924167967, 3.3954464885192017, 0.07626861906400209 // float64 arithmetic, not exact constants
	if (a+c)+b != 5 || (a+b)+c <= 5 {
		t.Fatal("the fixture's roundings no longer straddle ε")
	}
	sch := data.NewNumericSchema("a", "b", "c", "d", "e", "f")
	sch.Norm = metric.L1
	r := data.NewRelation(sch)
	row := data.Tuple{data.Num(a), data.Num(0), data.Num(b), data.Num(0), data.Num(c), data.Num(40)}
	r.Append(row)
	rng := rand.New(rand.NewSource(3))
	for r.N() < 64 {
		far := make(data.Tuple, 6)
		for k := range far {
			far[k] = data.Num(10 + rng.Float64()*10)
		}
		r.Append(far)
	}
	s, err := NewSaverContext(context.Background(), r, Constraints{Eps: 5, Eta: 1}, Options{Kappa: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.indexGroups(roundRobinGroups(6, 1))
	to := make(data.Tuple, 6)
	for k := range to {
		to[k] = data.Num(0)
	}
	ar := new(saveArena)
	s.save(context.Background(), to, ar)
	if !slices.Equal(ar.st.ids, []int{0}) {
		t.Fatalf("screen kept %v, want the straddling row 0", ar.st.ids)
	}
}
