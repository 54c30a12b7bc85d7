package clean

import (
	"math"

	"repro/internal/data"
)

// DORC reproduces the tuple-substitution cleaner of Song et al. [45]
// ("turn waste into wealth"): a tuple with fewer than η ε-neighbors is
// substituted by its nearest tuple that has at least η ε-neighbors, i.e.
// all attribute values are over-written at once (the over-change the paper
// criticizes in Figures 1(c) and 2(b)). Neighbor counting is the
// brute-force density computation of the original method, which is why
// DORC's time cost blows up on large datasets (Table 2, Figure 6b).
type DORC struct {
	// Eps and Eta are the same distance constraints DISC uses (§4.1.4).
	Eps float64
	Eta int
}

// Clean implements Cleaner.
func (d *DORC) Clean(rel *data.Relation) (*data.Relation, error) {
	out := rel.Clone()
	n := rel.N()
	// Quadratic pairwise density computation, as in the original
	// formulation (distances are recomputed in the substitution pass
	// rather than stored: an n×n matrix would not fit for Table 1 sizes).
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rel.Schema.Dist(rel.Tuples[i], rel.Tuples[j]) <= d.Eps {
				counts[i]++
				counts[j]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if counts[i] >= d.Eta {
			continue
		}
		// Substitute with the nearest core tuple.
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i || counts[j] < d.Eta {
				continue
			}
			if dd := rel.Schema.Dist(rel.Tuples[i], rel.Tuples[j]); dd < bestD {
				best, bestD = j, dd
			}
		}
		if best >= 0 {
			out.Tuples[i] = rel.Tuples[best].Clone()
		}
	}
	return out, nil
}
