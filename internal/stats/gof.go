package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSPoisson returns the Kolmogorov–Smirnov statistic between the empirical
// distribution of the observed counts and the fitted Poisson — the
// goodness-of-fit behind the paper's claim that ε-neighbor counts follow a
// Poisson distribution (Figure 5, [39]). Smaller is better; clustered
// noisy data typically lands around 0.05–0.3 because the outlier tail
// deviates from the model.
func KSPoisson(counts []int, p Poisson) (float64, error) {
	if len(counts) == 0 {
		return 0, fmt.Errorf("stats: KSPoisson needs at least one observation")
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	n := float64(len(sorted))
	ks := 0.0
	for i := 0; i < len(sorted); i++ {
		// Step the empirical CDF only at distinct values.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		emp := float64(i+1) / n
		model := p.CDF(sorted[i])
		if d := math.Abs(emp - model); d > ks {
			ks = d
		}
	}
	return ks, nil
}
