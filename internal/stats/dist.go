// Package stats provides the Poisson distribution, its Kolmogorov–Smirnov
// goodness of fit, online moments, quantiles and sampling utilities behind
// the DISC distance-constraint model: the Poisson process of ε-neighbor
// appearance (paper §2.1.2, Formulas 2–3) and the sampled parameter
// determination of §4.2.2 (Figure 5).
package stats

import (
	"fmt"
	"math"
)

// Poisson is a Poisson distribution with rate Lambda (= λε in the paper).
type Poisson struct {
	Lambda float64
}

// PMF returns p(N = k) = λ^k e^{-λ} / k! (Formula 2). Computed in log space
// for numerical stability at large λ.
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	logp := float64(k)*math.Log(p.Lambda) - p.Lambda - lgamma(float64(k)+1)
	return math.Exp(logp)
}

// CDF returns p(N ≤ k).
func (p Poisson) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	s := 0.0
	for i := 0; i <= k; i++ {
		s += p.PMF(i)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// TailGE returns p(N ≥ k) = 1 − CDF(k−1), the probability of Formula 3 that
// a tuple sees at least k ε-neighbors.
func (p Poisson) TailGE(k int) float64 {
	if k <= 0 {
		return 1
	}
	return 1 - p.CDF(k-1)
}

// lgamma returns log Γ(x) for x > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// FitPoisson estimates λ as the sample mean of the observed counts
// (the MLE). It returns an error when no observations are given.
func FitPoisson(counts []int) (Poisson, error) {
	if len(counts) == 0 {
		return Poisson{}, fmt.Errorf("stats: FitPoisson needs at least one observation")
	}
	s := 0.0
	for _, c := range counts {
		s += float64(c)
	}
	return Poisson{Lambda: s / float64(len(counts))}, nil
}
