package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Moments accumulates mean and variance online (Welford's algorithm), so a
// single pass over neighbor counts or distances yields both.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the sample mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance (0 with < 2 observations).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// SampleIndices returns ⌈rate·n⌉ distinct indices in [0, n) drawn without
// replacement with the given seed. A rate ≥ 1 returns all indices in order;
// a rate ≤ 0 returns a single index (parameter determination always needs at
// least one observation). The result is sorted for cache-friendly scans.
func SampleIndices(n int, rate float64, seed int64) []int {
	if n <= 0 {
		return nil
	}
	if rate >= 1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := int(math.Ceil(rate * float64(n)))
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// Quantile returns the smallest value v such that at least fraction q of the
// sorted observations xs are ≤ v. xs must be sorted ascending.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}
