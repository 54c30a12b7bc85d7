package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
)

func TestPairsPerfect(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2}
	p := Pairs(labels, labels)
	if p.FP != 0 || p.FN != 0 {
		t.Errorf("perfect clustering has FP=%v FN=%v", p.FP, p.FN)
	}
	if p.F1() != 1 {
		t.Errorf("perfect F1 = %v", p.F1())
	}
	if p.Precision() != 1 || p.Recall() != 1 {
		t.Error("perfect precision/recall not 1")
	}
}

func TestPairsKnownCounts(t *testing.T) {
	// truth: {a,b,c} {d,e}; pred: {a,b} {c,d,e}
	truth := []int{0, 0, 0, 1, 1}
	pred := []int{0, 0, 1, 1, 1}
	p := Pairs(pred, truth)
	// Together in truth: (ab,ac,bc,de)=4; in pred: (ab,cd,ce,de)=4.
	// TP = ab, de = 2; FP = cd, ce = 2; FN = ac, bc = 2.
	if p.TP != 2 || p.FP != 2 || p.FN != 2 {
		t.Errorf("TP=%v FP=%v FN=%v, want 2/2/2", p.TP, p.FP, p.FN)
	}
	if math.Abs(p.F1()-0.5) > 1e-12 {
		t.Errorf("F1 = %v, want 0.5", p.F1())
	}
}

func TestPairsSplitClusterRecallDrops(t *testing.T) {
	// Splitting one true cluster into two hurts recall but not precision —
	// the Figure 1 failure mode.
	truth := []int{0, 0, 0, 0, 1, 1}
	pred := []int{0, 0, 2, 2, 1, 1}
	p := Pairs(pred, truth)
	if p.Precision() != 1 {
		t.Errorf("precision = %v, want 1", p.Precision())
	}
	if p.Recall() >= 1 {
		t.Errorf("recall = %v, want < 1", p.Recall())
	}
}

func TestNegativeLabelsAreSingletons(t *testing.T) {
	// Two noise points (-1) must not be treated as one cluster.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, -1, -1}
	p := Pairs(pred, truth)
	if p.TP != 1 { // only the (0,0) pair
		t.Errorf("TP = %v, want 1", p.TP)
	}
	if p.FP != 0 {
		t.Errorf("FP = %v: noise points must not pair together", p.FP)
	}
	if p.FN != 1 { // the broken (1,1) pair
		t.Errorf("FN = %v, want 1", p.FN)
	}
}

func TestNMI(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2}
	if got := NMI(labels, labels); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI(x,x) = %v", got)
	}
	// Permuted labels still score 1.
	perm := []int{2, 2, 0, 0, 1, 1}
	if got := NMI(perm, labels); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI under permutation = %v", got)
	}
	// One big cluster vs a real partition scores 0.
	single := []int{0, 0, 0, 0, 0, 0}
	if got := NMI(single, labels); got != 0 {
		t.Errorf("NMI(single, real) = %v", got)
	}
	if got := NMI(single, single); got != 1 {
		t.Errorf("NMI(single, single) = %v", got)
	}
	// Independent random labelings score near 0 on a large sample.
	rng := rand.New(rand.NewSource(1))
	a := make([]int, 5000)
	b := make([]int, 5000)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	if got := NMI(a, b); got > 0.05 {
		t.Errorf("NMI of independent labelings = %v, want ≈ 0", got)
	}
	if got := NMI(nil, nil); got != 1 {
		t.Errorf("NMI of empty = %v", got)
	}
}

func TestARI(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2}
	if got := ARI(labels, labels); math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI(x,x) = %v", got)
	}
	perm := []int{1, 1, 2, 2, 0, 0}
	if got := ARI(perm, labels); math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI under permutation = %v", got)
	}
	// Independent labelings ≈ 0 (can be slightly negative).
	rng := rand.New(rand.NewSource(2))
	a := make([]int, 5000)
	b := make([]int, 5000)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	if got := ARI(a, b); math.Abs(got) > 0.05 {
		t.Errorf("ARI of independent labelings = %v, want ≈ 0", got)
	}
	// Degenerate: both single-cluster.
	single := []int{0, 0, 0}
	if got := ARI(single, single); got != 1 {
		t.Errorf("ARI(single,single) = %v", got)
	}
	if got := ARI(nil, nil); got != 1 {
		t.Errorf("ARI of empty = %v", got)
	}
}

func TestARIWorseThanChanceIsNegative(t *testing.T) {
	// Anti-correlated partition on 4 points can score below 0.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 0, 1}
	if got := ARI(pred, truth); got >= 0 {
		t.Errorf("anti-correlated ARI = %v, want < 0", got)
	}
}

func TestJaccard(t *testing.T) {
	a := data.AttrMask(0).With(0).With(1)
	b := data.AttrMask(0).With(1).With(2)
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("Jaccard(x,x) = %v", got)
	}
	if got := Jaccard(0, 0); got != 1 {
		t.Errorf("Jaccard(∅,∅) = %v, want 1 by convention", got)
	}
	if got := Jaccard(a, 0); got != 0 {
		t.Errorf("Jaccard(x,∅) = %v", got)
	}
}

func TestMacroF1(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	if got := MacroF1(truth, truth); got != 1 {
		t.Errorf("perfect MacroF1 = %v", got)
	}
	pred := []int{0, 0, 0, 1}
	// class 0: tp=2 fp=1 fn=0 → f1 = 4/5; class 1: tp=1 fp=0 fn=1 → f1 = 2/3.
	want := (4.0/5 + 2.0/3) / 2
	if got := MacroF1(pred, truth); math.Abs(got-want) > 1e-12 {
		t.Errorf("MacroF1 = %v, want %v", got, want)
	}
	// A class never predicted contributes 0.
	pred2 := []int{0, 0, 0, 0}
	want2 := (2.0 * 2 / (2*2 + 2)) / 2 // class0 f1 = 2/3... computed below
	_ = want2
	got2 := MacroF1(pred2, truth)
	// class 0: tp=2 fp=2 fn=0 → 4/6; class 1: 0.
	if math.Abs(got2-(4.0/6)/2) > 1e-12 {
		t.Errorf("MacroF1 with missing class = %v", got2)
	}
	if got := MacroF1(nil, nil); got != 0 {
		t.Errorf("empty MacroF1 = %v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Pairs":   func() { Pairs([]int{1}, []int{1, 2}) },
		"NMI":     func() { NMI([]int{1}, []int{1, 2}) },
		"ARI":     func() { ARI([]int{1}, []int{1, 2}) },
		"MacroF1": func() { MacroF1([]int{1}, []int{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMetricsAgreeOnOrdering(t *testing.T) {
	// A better clustering must not score worse on any of the three
	// measures: compare a perfect, a half-broken, and a random labeling.
	rng := rand.New(rand.NewSource(3))
	truth := make([]int, 600)
	for i := range truth {
		truth[i] = i % 3
	}
	perfect := append([]int(nil), truth...)
	half := append([]int(nil), truth...)
	for i := 0; i < 200; i++ {
		half[rng.Intn(600)] = rng.Intn(3)
	}
	random := make([]int, 600)
	for i := range random {
		random[i] = rng.Intn(3)
	}
	for name, m := range map[string]func(a, b []int) float64{"F1": F1, "NMI": NMI, "ARI": ARI} {
		p := m(perfect, truth)
		h := m(half, truth)
		r := m(random, truth)
		if !(p > h && h > r) {
			t.Errorf("%s ordering violated: perfect=%v half=%v random=%v", name, p, h, r)
		}
	}
}
