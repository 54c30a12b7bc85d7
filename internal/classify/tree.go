// Package classify implements the decision-tree classifier and k-fold
// cross-validation harness of the classification experiment (§4.1.2,
// Table 5) — a CART tree with Gini impurity and default parameters,
// standing in for the scikit-learn implementation the paper uses.
package classify

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/data"
)

// TreeConfig holds the (scikit-learn-default-like) hyperparameters.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting
	// (default 2).
	MinSamplesSplit int
}

// Tree is a trained CART decision tree over numeric attributes.
type Tree struct {
	nodes []treeNode
	m     int
	// k is the number of classes. Training relabels them densely, so
	// class counts are slices and every impurity sum runs in class order;
	// leaves hold the caller's labels again once the tree is built.
	k int
}

type treeNode struct {
	// attr < 0 marks a leaf predicting label.
	attr      int
	threshold float64
	left      int
	right     int
	label     int
}

// TrainTree fits a CART tree on the numeric attributes of rel with the
// given labels.
func TrainTree(rel *data.Relation, labels []int, cfg TreeConfig) (*Tree, error) {
	if rel.N() != len(labels) {
		return nil, fmt.Errorf("classify: %d tuples but %d labels", rel.N(), len(labels))
	}
	if rel.N() == 0 {
		return nil, fmt.Errorf("classify: empty training set")
	}
	for _, a := range rel.Schema.Attrs {
		if a.Kind != data.Numeric {
			return nil, fmt.Errorf("classify: attribute %q is not numeric", a.Name)
		}
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	m := rel.Schema.M()
	X := make([][]float64, rel.N())
	for i, t := range rel.Tuples {
		row := make([]float64, m)
		for a := 0; a < m; a++ {
			row[a] = t[a].Num
		}
		X[i] = row
	}
	classes, y := denseLabels(labels)
	tr := &Tree{m: m, k: len(classes)}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	tr.build(X, y, idx, cfg, 0)
	for i := range tr.nodes {
		if tr.nodes[i].attr < 0 {
			tr.nodes[i].label = classes[tr.nodes[i].label]
		}
	}
	return tr, nil
}

// denseLabels relabels labels as 0..k-1 in ascending order of the original
// label, returning the k originals and the relabelled vector.
func denseLabels(labels []int) (classes, y []int) {
	classes = slices.Clone(labels)
	slices.Sort(classes)
	classes = slices.Compact(classes)
	y = make([]int, len(labels))
	for i, l := range labels {
		y[i], _ = slices.BinarySearch(classes, l)
	}
	return classes, y
}

// build grows the subtree over the samples idx and returns its node id.
func (tr *Tree) build(X [][]float64, y, idx []int, cfg TreeConfig, depth int) int {
	id := len(tr.nodes)
	tr.nodes = append(tr.nodes, treeNode{attr: -1, label: majority(y, idx, tr.k)})

	if len(idx) < cfg.MinSamplesSplit || pure(y, idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return id
	}
	attr, thr, ok := bestSplit(X, y, idx, tr.m, tr.k)
	if !ok {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if X[i][attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return id
	}
	l := tr.build(X, y, left, cfg, depth+1)
	r := tr.build(X, y, right, cfg, depth+1)
	tr.nodes[id] = treeNode{attr: attr, threshold: thr, left: l, right: r}
	return id
}

// majority returns the class (of k) most frequent among idx, the first to
// reach that count on a tie.
func majority(y, idx []int, k int) int {
	counts := make([]int, k)
	best, bestC := 0, -1
	for _, i := range idx {
		counts[y[i]]++
		if counts[y[i]] > bestC {
			best, bestC = y[i], counts[y[i]]
		}
	}
	return best
}

func pure(y, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

// bestSplit finds the (attribute, threshold) with the lowest weighted Gini
// impurity, scanning sorted values with incremental counts of the k
// classes.
func bestSplit(X [][]float64, y, idx []int, m, k int) (int, float64, bool) {
	bestAttr, bestThr, bestGini := -1, 0.0, math.Inf(1)
	order := make([]int, len(idx))
	leftCounts, rightCounts := make([]int, k), make([]int, k)
	for a := 0; a < m; a++ {
		copy(order, idx)
		sort.Slice(order, func(p, q int) bool { return X[order[p]][a] < X[order[q]][a] })
		clear(leftCounts)
		clear(rightCounts)
		for _, i := range order {
			rightCounts[y[i]]++
		}
		nl, nr := 0, len(order)
		for p := 0; p < len(order)-1; p++ {
			i := order[p]
			leftCounts[y[i]]++
			rightCounts[y[i]]--
			nl++
			nr--
			if X[order[p]][a] == X[order[p+1]][a] {
				continue // can only split between distinct values
			}
			g := weightedGini(leftCounts, nl, rightCounts, nr)
			if g < bestGini {
				bestGini = g
				bestAttr = a
				bestThr = (X[order[p]][a] + X[order[p+1]][a]) / 2
			}
		}
	}
	return bestAttr, bestThr, bestAttr >= 0
}

func weightedGini(lc []int, nl int, rc []int, nr int) float64 {
	return float64(nl)*gini(lc, nl) + float64(nr)*gini(rc, nr)
}

// gini sums over the classes in index order, so a near-tie between two
// splits resolves the same way on every run.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

// Predict classifies one tuple.
func (tr *Tree) Predict(t data.Tuple) int {
	id := 0
	for {
		n := &tr.nodes[id]
		if n.attr < 0 {
			return n.label
		}
		if t[n.attr].Num <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
}

// PredictAll classifies every tuple of a relation.
func (tr *Tree) PredictAll(rel *data.Relation) []int {
	out := make([]int, rel.N())
	for i, t := range rel.Tuples {
		out[i] = tr.Predict(t)
	}
	return out
}
