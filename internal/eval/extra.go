package eval

import "math"

// Purity returns the weighted fraction of tuples whose predicted cluster's
// majority ground-truth class matches their own — a simple external
// clustering measure complementing F1/NMI/ARI. Negative predicted labels
// are singletons (their purity contribution is 1 when their truth label is
// also a singleton).
func Purity(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("eval: label vectors of different length")
	}
	if len(pred) == 0 {
		return 0
	}
	table, aSizes, _ := contingency(pred, truth)
	majority := make([]float64, len(aSizes))
	for _, c := range table {
		majority[c.a] = max(majority[c.a], c.n)
	}
	correct := 0.0
	for _, c := range majority {
		correct += c
	}
	return correct / float64(len(pred))
}

// Homogeneity measures whether each predicted cluster contains members of
// a single class: 1 − H(truth|pred)/H(truth), 1 when truth is trivial.
func Homogeneity(pred, truth []int) float64 {
	return conditionalScore(truth, pred)
}

// Completeness measures whether all members of a class land in the same
// predicted cluster: 1 − H(pred|truth)/H(pred).
func Completeness(pred, truth []int) float64 {
	return conditionalScore(pred, truth)
}

// VMeasure is the harmonic mean of homogeneity and completeness
// (Rosenberg & Hirschberg), an entropy-based analogue of F1.
func VMeasure(pred, truth []int) float64 {
	h := Homogeneity(pred, truth)
	c := Completeness(pred, truth)
	if h+c == 0 {
		return 0
	}
	return 2 * h * c / (h + c)
}

// conditionalScore returns 1 − H(target|given)/H(target).
func conditionalScore(target, given []int) float64 {
	if len(target) != len(given) {
		panic("eval: label vectors of different length")
	}
	if len(target) == 0 {
		return 1
	}
	n := float64(len(target))
	table, tSizes, gSizes := contingency(target, given)
	ht := entropy(tSizes, n)
	if ht == 0 {
		return 1
	}
	// H(target | given) = Σ_g p(g) H(target | given=g).
	hc := 0.0
	for _, c := range table {
		pg := gSizes[c.b] / n
		pt := c.n / gSizes[c.b]
		if pt > 0 {
			hc -= pg * pt * math.Log(pt)
		}
	}
	return 1 - hc/ht
}
