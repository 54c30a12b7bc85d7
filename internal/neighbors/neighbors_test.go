package neighbors

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
)

func randomRelation(n, m int, seed int64) *data.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	r := data.NewRelation(data.NewNumericSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t := make(data.Tuple, m)
		for a := range t {
			t[a] = data.Num(rng.Float64() * 10)
		}
		r.Append(t)
	}
	return r
}

func sameNeighborSet(t *testing.T, name string, got, want []Neighbor) {
	t.Helper()
	gs := map[int]float64{}
	for _, n := range got {
		gs[n.Idx] = n.Dist
	}
	ws := map[int]float64{}
	for _, n := range want {
		ws[n.Idx] = n.Dist
	}
	if len(gs) != len(ws) {
		t.Fatalf("%s: got %d neighbors, want %d", name, len(gs), len(ws))
	}
	for i, d := range ws {
		gd, ok := gs[i]
		if !ok {
			t.Fatalf("%s: missing neighbor %d", name, i)
		}
		if diff := gd - d; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: neighbor %d distance %v, want %v", name, i, gd, d)
		}
	}
}

func TestIndexesAgreeWithBrute(t *testing.T) {
	r := randomRelation(400, 3, 1)
	brute := NewBrute(r)
	grid := NewGrid(r, 1.5)
	vp := NewVPTree(r, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		q := data.Tuple{
			data.Num(rng.Float64() * 10),
			data.Num(rng.Float64() * 10),
			data.Num(rng.Float64() * 10),
		}
		eps := 0.5 + rng.Float64()*3
		skip := -1
		if trial%3 == 0 {
			skip = rng.Intn(r.N())
		}
		want := brute.Within(q, eps, skip)
		sameNeighborSet(t, "grid.Within", grid.Within(q, eps, skip), want)
		sameNeighborSet(t, "vp.Within", vp.Within(q, eps, skip), want)

		if got := grid.CountWithin(q, eps, skip, 0); got != len(want) {
			t.Fatalf("grid.CountWithin = %d, want %d", got, len(want))
		}
		if got := vp.CountWithin(q, eps, skip, 0); got != len(want) {
			t.Fatalf("vp.CountWithin = %d, want %d", got, len(want))
		}

		k := 1 + rng.Intn(10)
		wantK := brute.KNN(q, k, skip)
		for name, idx := range map[string]Index{"grid": grid, "vp": vp} {
			gotK := idx.KNN(q, k, skip)
			if len(gotK) != len(wantK) {
				t.Fatalf("%s.KNN returned %d, want %d", name, len(gotK), len(wantK))
			}
			for i := range gotK {
				if diff := gotK[i].Dist - wantK[i].Dist; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s.KNN[%d] dist %v, want %v", name, i, gotK[i].Dist, wantK[i].Dist)
				}
			}
		}
	}
}

func TestCountWithinEarlyExit(t *testing.T) {
	r := randomRelation(200, 2, 5)
	for _, idx := range []Index{NewBrute(r), NewGrid(r, 2), NewVPTree(r, 1)} {
		got := idx.CountWithin(r.Tuples[0], 100, -1, 7)
		if got != 7 {
			t.Errorf("%T: early exit returned %d, want 7", idx, got)
		}
	}
}

// TestCountWithinAtLeast pins the threshold probe to the exact count's
// answer across every index kind, including k values right at the
// boundary where the cap early-exit fires.
func TestCountWithinAtLeast(t *testing.T) {
	r := diffRelation(120, 3, metric.L2, 11, true)
	brute := NewBrute(r)
	indexes := map[string]Index{
		"brute":  brute,
		"grid":   NewGrid(r, 1.5),
		"vptree": NewVPTree(r, 3),
	}
	eps := 6.0
	for name, idx := range indexes {
		for i, q := range r.Tuples {
			exact := brute.CountWithin(q, eps, i, 0)
			for _, k := range []int{-1, 0, 1, exact - 1, exact, exact + 1, 2*exact + 3} {
				got := CountWithinAtLeast(idx, q, eps, i, k)
				want := k <= 0 || exact >= k
				if got != want {
					t.Fatalf("%s: tuple %d: CountWithinAtLeast(k=%d) = %v, exact count %d",
						name, i, k, got, exact)
				}
			}
		}
	}
}

func TestSkipExcludesSelf(t *testing.T) {
	r := randomRelation(50, 2, 7)
	for _, idx := range []Index{NewBrute(r), NewGrid(r, 1), NewVPTree(r, 1)} {
		ns := idx.Within(r.Tuples[10], 0.0, 10)
		for _, n := range ns {
			if n.Idx == 10 {
				t.Errorf("%T: skip index returned", idx)
			}
		}
		kn := idx.KNN(r.Tuples[10], 5, 10)
		for _, n := range kn {
			if n.Idx == 10 {
				t.Errorf("%T: skip index in KNN", idx)
			}
		}
	}
}

func TestKNNOrderingAndBounds(t *testing.T) {
	r := randomRelation(300, 4, 9)
	vp := NewVPTree(r, 3)
	ns := vp.KNN(r.Tuples[0], 20, 0)
	if len(ns) != 20 {
		t.Fatalf("got %d neighbors", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Fatal("KNN not sorted ascending")
		}
	}
	// k larger than n returns n-1 (self skipped).
	all := vp.KNN(r.Tuples[0], 1000, 0)
	if len(all) != r.N()-1 {
		t.Fatalf("k>n returned %d, want %d", len(all), r.N()-1)
	}
	if vp.KNN(r.Tuples[0], 0, -1) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestVPTreeTextMetric(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}}
	r := data.NewRelation(s)
	words := []string{"cat", "cart", "car", "dog", "dot", "cot", "bat", "bart"}
	for _, w := range words {
		r.Append(data.Tuple{data.Str(w)})
	}
	vp := NewVPTree(r, 1)
	brute := NewBrute(r)
	q := data.Tuple{data.Str("cat")}
	sameNeighborSet(t, "text within", vp.Within(q, 1, -1), brute.Within(q, 1, -1))
	got := vp.KNN(q, 3, -1)
	want := brute.KNN(q, 3, -1)
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("text KNN mismatch: %v vs %v", got, want)
		}
	}
}

func TestGridPanicsOnTextSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("grid should panic on text schema")
		}
	}()
	s := &data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}}
	r := data.NewRelation(s)
	NewGrid(r, 1)
}

func TestGridRespectsAttributeScale(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{{Name: "t", Kind: data.Numeric, Scale: 100}}}
	r := data.NewRelation(s)
	for i := 0; i < 10; i++ {
		r.Append(data.Tuple{data.Num(float64(i) * 100)})
	}
	g := NewGrid(r, 1)
	// Scaled distance between consecutive tuples is 1.
	ns := g.Within(r.Tuples[5], 1.0, 5)
	if len(ns) != 2 {
		t.Fatalf("scaled grid found %d neighbors, want 2", len(ns))
	}
}

func TestBuildSelectsIndex(t *testing.T) {
	smallText := data.NewRelation(&data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}})
	smallText.Append(data.Tuple{data.Str("x")})
	// 7 attributes: one past the grid's dimensionality limit.
	seven := data.NewRelation(data.NewNumericSchema("a", "b", "c", "d", "e", "f", "g"))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		t7 := make(data.Tuple, 7)
		for a := range t7 {
			t7[a] = data.Num(rng.Float64())
		}
		seven.Append(t7)
	}
	withNorm := func(norm metric.Norm) *data.Relation {
		r := randomRelation(500, 3, 1)
		r.Schema.Norm = norm
		return r
	}
	cases := []struct {
		name string
		r    *data.Relation
		eps  float64
		want IndexKind
	}{
		{"small numeric relation", randomRelation(10, 2, 1), 1, KindGrid},
		{"small text relation", smallText, 1, KindBrute},
		{"numeric low-dim relation", randomRelation(500, 3, 1), 1, KindGrid},
		// The grid's reach bound holds for every supported norm, so fully
		// numeric low-dimensional relations route to it regardless of norm
		// (a silent VP-tree fallback here was a routing bug).
		{"numeric low-dim relation, L1 norm", withNorm(metric.L1), 1, KindGrid},
		{"numeric low-dim relation, L∞ norm", withNorm(metric.LInf), 1, KindGrid},
		{"7-attribute relation", seven, 1, KindVP},
		// Without a cell size there is no grid, whatever the schema.
		{"numeric low-dim relation, eps 0", randomRelation(500, 3, 1), 0, KindVP},
		{"empty numeric relation", data.NewRelation(data.NewNumericSchema("a")), 1, KindGrid},
	}
	for _, c := range cases {
		idx := Build(c.r, c.eps)
		if got := concreteKind(idx); got != c.want {
			t.Errorf("%s: Build returned %T, want %v", c.name, idx, c.want)
		}
		// KindAuto resolves by the same rule Build applies.
		m, err := NewMutable(c.r, c.eps, KindAuto)
		if err != nil {
			t.Fatalf("%s: NewMutable: %v", c.name, err)
		}
		if m.Kind() != concreteKind(idx) {
			t.Errorf("%s: NewMutable resolved auto to %v, Build returned %T", c.name, m.Kind(), idx)
		}
	}
}

// concreteKind names the kind of a concrete index (KindAuto for anything
// else).
func concreteKind(idx Index) IndexKind {
	switch idx.(type) {
	case *Brute:
		return KindBrute
	case *Grid:
		return KindGrid
	case *VPTree:
		return KindVP
	}
	return KindAuto
}

func TestEmptyRelationQueries(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("a"))
	for _, idx := range []Index{NewBrute(r), NewGrid(r, 1), NewVPTree(r, 1)} {
		if got := idx.Within(data.Tuple{data.Num(0)}, 5, -1); len(got) != 0 {
			t.Errorf("%T: Within on empty relation returned %v", idx, got)
		}
		if got := idx.KNN(data.Tuple{data.Num(0)}, 3, -1); len(got) != 0 {
			t.Errorf("%T: KNN on empty relation returned %v", idx, got)
		}
	}
}

func BenchmarkVPTreeWithin(b *testing.B) {
	r := randomRelation(10000, 8, 1)
	vp := NewVPTree(r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp.Within(r.Tuples[i%r.N()], 1.5, i%r.N())
	}
}

// letterVP builds a VP-tree over Table 1 Letter at scale 0.15 (3,000
// rows, m = 16), the index Build picks for every relation with m ≥ 7 and
// for text-bearing ones, with Letter's recorded (ε, η).
func letterVP(b *testing.B) (*VPTree, *data.Relation, float64, int) {
	b.Helper()
	ds, err := data.Table1("Letter", 0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	return NewVPTree(ds.Rel, 1), ds.Rel, ds.Eps, ds.Eta
}

// BenchmarkVPTreeCountWithin is detection's query: a count capped at η.
func BenchmarkVPTreeCountWithin(b *testing.B) {
	vp, r, eps, eta := letterVP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp.CountWithin(r.Tuples[i%r.N()], eps, i%r.N(), eta)
	}
}

// BenchmarkVPTreeKNN is the η-radius precompute's query: KNN(η).
func BenchmarkVPTreeKNN(b *testing.B) {
	vp, r, _, eta := letterVP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp.KNN(r.Tuples[i%r.N()], eta, i%r.N())
	}
}

func BenchmarkGridWithin(b *testing.B) {
	r := randomRelation(10000, 3, 1)
	g := NewGrid(r, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Within(r.Tuples[i%r.N()], 1.5, i%r.N())
	}
}

func BenchmarkBruteWithin(b *testing.B) {
	r := randomRelation(10000, 3, 1)
	br := NewBrute(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Within(r.Tuples[i%r.N()], 1.5, i%r.N())
	}
}

func BenchmarkGridCountWithin(b *testing.B) {
	r := randomRelation(10000, 3, 1)
	g := NewGrid(r, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountWithin(r.Tuples[i%r.N()], 1.5, i%r.N(), 0)
	}
}

func BenchmarkGridKNN(b *testing.B) {
	r := randomRelation(10000, 3, 1)
	g := NewGrid(r, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KNN(r.Tuples[i%r.N()], 8, i%r.N())
	}
}
