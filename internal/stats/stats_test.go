package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lam := range []float64{0.5, 1, 5, 51.36} {
		p := Poisson{Lambda: lam}
		s := 0.0
		for k := 0; k < int(lam)+200; k++ {
			s += p.PMF(k)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("λ=%v: pmf sums to %v", lam, s)
		}
	}
}

func TestPoissonPMFKnownValues(t *testing.T) {
	p := Poisson{Lambda: 2}
	// p(0) = e^-2, p(1) = 2e^-2, p(2) = 2e^-2.
	if got, want := p.PMF(0), math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Errorf("PMF(0) = %v, want %v", got, want)
	}
	if got, want := p.PMF(1), 2*math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Errorf("PMF(1) = %v, want %v", got, want)
	}
	if p.PMF(-1) != 0 {
		t.Error("PMF of negative k must be 0")
	}
	zero := Poisson{Lambda: 0}
	if zero.PMF(0) != 1 || zero.PMF(1) != 0 {
		t.Error("λ=0 should be a point mass at 0")
	}
}

func TestPoissonTailGE(t *testing.T) {
	p := Poisson{Lambda: 51.36}
	// Paper §2.1.2: with λε = 51.36 (Letter, ε=3), p(N ≥ 18) ≈ 0.99.
	got := p.TailGE(18)
	if got < 0.99 || got > 1 {
		t.Errorf("p(N≥18 | λ=51.36) = %v, want ≥ 0.99", got)
	}
	if p.TailGE(0) != 1 {
		t.Error("p(N≥0) must be 1")
	}
	// Monotone non-increasing in k.
	prev := 1.0
	for k := 1; k < 100; k++ {
		cur := p.TailGE(k)
		if cur > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d: %v > %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestFitPoisson(t *testing.T) {
	p, err := FitPoisson([]int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lambda != 4 {
		t.Errorf("λ = %v, want 4", p.Lambda)
	}
	if _, err := FitPoisson(nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestMomentsMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var m Moments
	sum := 0.0
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		m.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	if math.Abs(m.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v vs %v", m.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	if math.Abs(m.Variance()-varSum/float64(len(xs))) > 1e-6 {
		t.Errorf("variance %v vs %v", m.Variance(), varSum/float64(len(xs)))
	}
	if m.n != 1000 {
		t.Errorf("count %d", m.n)
	}
	var empty Moments
	if empty.Variance() != 0 || empty.Mean() != 0 {
		t.Error("empty moments should be zero")
	}
}

func TestSampleIndices(t *testing.T) {
	idx := SampleIndices(100, 0.1, 42)
	if len(idx) != 10 {
		t.Fatalf("want 10 samples, got %d", len(idx))
	}
	if !sort.IntsAreSorted(idx) {
		t.Error("samples should be sorted")
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// Determinism.
	idx2 := SampleIndices(100, 0.1, 42)
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
	}
	// Full rate returns identity.
	all := SampleIndices(5, 1, 0)
	if len(all) != 5 || all[0] != 0 || all[4] != 4 {
		t.Errorf("rate 1 should return identity, got %v", all)
	}
	// Degenerate cases.
	if got := SampleIndices(0, 0.5, 0); got != nil {
		t.Errorf("n=0 should return nil, got %v", got)
	}
	if got := SampleIndices(10, 0, 0); len(got) != 1 {
		t.Errorf("rate 0 should return one index, got %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Errorf("q1 = %v, want 10", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestPoissonTailProperty(t *testing.T) {
	// For any λ and k, TailGE(k) + CDF(k-1) = 1.
	f := func(lamSeed uint8, kSeed uint8) bool {
		lam := float64(lamSeed%40) + 0.5
		k := int(kSeed % 60)
		p := Poisson{Lambda: lam}
		return math.Abs(p.TailGE(k)+p.CDF(k-1)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
