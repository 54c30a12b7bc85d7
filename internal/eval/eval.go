// Package eval implements the accuracy measures of the paper's evaluation
// (§4.1): pairwise precision/recall/F1 over clusterings, NMI and ARI
// (Nguyen et al., cited as [38]), the Jaccard index over attribute sets
// used by the Figure 9/10 adjustment-accuracy experiments, and macro F1 for
// the classification experiment.
package eval

import (
	"math"
	"slices"

	"repro/internal/data"
)

// PairCounts holds the pairwise confusion counts of two partitions:
// TP pairs clustered together in both, FP together only in the prediction,
// FN together only in the ground truth.
type PairCounts struct {
	TP, FP, FN float64
}

// Precision returns TP / (TP + FP), 0 when undefined.
func (p PairCounts) Precision() float64 {
	if p.TP+p.FP == 0 {
		return 0
	}
	return p.TP / (p.TP + p.FP)
}

// Recall returns TP / (TP + FN), 0 when undefined.
func (p PairCounts) Recall() float64 {
	if p.TP+p.FN == 0 {
		return 0
	}
	return p.TP / (p.TP + p.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (p PairCounts) F1() float64 {
	pr, rc := p.Precision(), p.Recall()
	if pr+rc == 0 {
		return 0
	}
	return 2 * pr * rc / (pr + rc)
}

// canonicalize maps labels to 0..k-1, giving every negative label (noise /
// natural outlier) its own singleton cluster — the convention documented in
// DESIGN.md for scoring DBSCAN noise. It returns k too.
func canonicalize(labels []int) ([]int, int) {
	out := make([]int, len(labels))
	next := 0
	seen := map[int]int{}
	for i, l := range labels {
		if l < 0 {
			out[i] = next
			next++
			continue
		}
		c, ok := seen[l]
		if !ok {
			c = next
			next++
			seen[l] = c
		}
		out[i] = c
	}
	return out, next
}

// cell is one nonzero entry of a contingency table: n tuples sit in
// cluster a of the first labelling and b of the second.
type cell struct {
	a, b int
	n    float64
}

// contingency builds the contingency table of two labellings, as its
// nonzero cells in (a, b) order, plus the cluster sizes of each, indexed by
// the dense labels canonicalize assigns. Every sum over them therefore
// runs in one fixed order, so a score is the same float on every run.
func contingency(pred, truth []int) (table []cell, aSizes, bSizes []float64) {
	p, ka := canonicalize(pred)
	g, kb := canonicalize(truth)
	aSizes, bSizes = make([]float64, ka), make([]float64, kb)
	keys := make([]int, len(p))
	for i := range p {
		aSizes[p[i]]++
		bSizes[g[i]]++
		keys[i] = p[i]*kb + g[i]
	}
	slices.Sort(keys)
	for i, key := range keys {
		if i == 0 || key != keys[i-1] {
			table = append(table, cell{a: key / kb, b: key % kb})
		}
		table[len(table)-1].n++
	}
	return table, aSizes, bSizes
}

func choose2(n float64) float64 { return n * (n - 1) / 2 }

// Pairs computes the pairwise confusion counts of a predicted clustering
// against the ground truth. The slices must have equal length; negative
// labels are singletons.
func Pairs(pred, truth []int) PairCounts {
	if len(pred) != len(truth) {
		panic("eval: label vectors of different length")
	}
	table, aSizes, bSizes := contingency(pred, truth)
	var tp, predPairs, truthPairs float64
	for _, c := range table {
		tp += choose2(c.n)
	}
	for _, c := range aSizes {
		predPairs += choose2(c)
	}
	for _, c := range bSizes {
		truthPairs += choose2(c)
	}
	return PairCounts{TP: tp, FP: predPairs - tp, FN: truthPairs - tp}
}

// F1 is shorthand for Pairs(pred, truth).F1().
func F1(pred, truth []int) float64 { return Pairs(pred, truth).F1() }

// NMI returns the normalized mutual information of the two labelings with
// arithmetic-mean normalization: I(U;V) / ((H(U)+H(V))/2). Two zero-entropy
// partitions score 1; one zero-entropy partition against a non-trivial one
// scores 0.
func NMI(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("eval: label vectors of different length")
	}
	if len(pred) == 0 {
		return 1
	}
	table, aSizes, bSizes := contingency(pred, truth)
	n := float64(len(pred))
	hu := entropy(aSizes, n)
	hv := entropy(bSizes, n)
	if hu == 0 && hv == 0 {
		return 1
	}
	if hu == 0 || hv == 0 {
		return 0
	}
	mi := 0.0
	for _, c := range table {
		pa := aSizes[c.a] / n
		pb := bSizes[c.b] / n
		pab := c.n / n
		if pab > 0 {
			mi += pab * math.Log(pab/(pa*pb))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi / ((hu + hv) / 2)
}

func entropy(sizes []float64, n float64) float64 {
	h := 0.0
	for _, c := range sizes {
		p := c / n
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// ARI returns the adjusted Rand index of the two labelings (1 = identical,
// ≈ 0 = random agreement). Degenerate cases where the expected and maximum
// indexes coincide return 1 if the partitions agree perfectly and 0
// otherwise.
func ARI(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("eval: label vectors of different length")
	}
	if len(pred) == 0 {
		return 1
	}
	table, aSizes, bSizes := contingency(pred, truth)
	n := float64(len(pred))
	var sumIJ, sumA, sumB float64
	for _, c := range table {
		sumIJ += choose2(c.n)
	}
	for _, c := range aSizes {
		sumA += choose2(c)
	}
	for _, c := range bSizes {
		sumB += choose2(c)
	}
	total := choose2(n)
	if total == 0 {
		return 1
	}
	expected := sumA * sumB / total
	maximum := (sumA + sumB) / 2
	if maximum == expected {
		if sumIJ == maximum {
			return 1
		}
		return 0
	}
	return (sumIJ - expected) / (maximum - expected)
}

// Jaccard returns |T ∩ P| / |T ∪ P| of two attribute sets (§4.3). Two
// empty sets score 1 by convention.
func Jaccard(truth, pred data.AttrMask) float64 {
	union := (truth | pred).Count()
	if union == 0 {
		return 1
	}
	return float64((truth & pred).Count()) / float64(union)
}

// MacroF1 returns the unweighted mean of the per-class F1 scores of a
// classification (the scikit-learn "macro" average used for Table 5).
// Classes present in the truth but never predicted contribute 0.
func MacroF1(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("eval: label vectors of different length")
	}
	if len(pred) == 0 {
		return 0
	}
	classes := slices.Clone(truth)
	slices.Sort(classes)
	classes = slices.Compact(classes)
	sum := 0.0
	for _, c := range classes {
		var tp, fp, fn float64
		for i := range pred {
			switch {
			case pred[i] == c && truth[i] == c:
				tp++
			case pred[i] == c && truth[i] != c:
				fp++
			case pred[i] != c && truth[i] == c:
				fn++
			}
		}
		var f1 float64
		if 2*tp+fp+fn > 0 {
			f1 = 2 * tp / (2*tp + fp + fn)
		}
		sum += f1
	}
	return sum / float64(len(classes))
}
