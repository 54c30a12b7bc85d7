package stats

import (
	"math"
	"math/rand"
	"testing"
)

// poissonSample draws n Poisson(λ) variates (inversion by sequential
// search; λ here is small enough).
func poissonSample(n int, lam float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		l := math.Exp(-lam)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				break
			}
			k++
		}
		out[i] = k
	}
	return out
}

func TestKSPoissonFitsTrueSamples(t *testing.T) {
	counts := poissonSample(4000, 12, 1)
	fit, err := FitPoisson(counts)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := KSPoisson(counts, fit)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.05 {
		t.Errorf("KS = %v for genuine Poisson samples", ks)
	}
}

func TestKSPoissonRejectsWrongModel(t *testing.T) {
	counts := poissonSample(4000, 12, 2)
	ks, err := KSPoisson(counts, Poisson{Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ks < 0.5 {
		t.Errorf("KS = %v for a badly wrong model, want large", ks)
	}
	// A bimodal mixture (inliers + isolated outliers, the Figure 5
	// reality) fits worse than the pure model.
	mixed := append(poissonSample(3600, 12, 3), make([]int, 400)...) // 10% zeros
	fit, _ := FitPoisson(mixed)
	ksMixed, _ := KSPoisson(mixed, fit)
	pure := poissonSample(4000, 12, 4)
	fitP, _ := FitPoisson(pure)
	ksPure, _ := KSPoisson(pure, fitP)
	if ksMixed <= ksPure {
		t.Errorf("mixture KS %v not above pure KS %v", ksMixed, ksPure)
	}
}

func TestKSPoissonErrors(t *testing.T) {
	if _, err := KSPoisson(nil, Poisson{Lambda: 1}); err == nil {
		t.Error("empty input accepted")
	}
}
