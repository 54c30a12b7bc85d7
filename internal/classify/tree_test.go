package classify

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (tr *Tree) Depth() int {
	var walk func(id int) int
	walk = func(id int) int {
		n := &tr.nodes[id]
		if n.attr < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	if len(tr.nodes) == 0 {
		return 0
	}
	return walk(0)
}

func separable(n int, seed int64) (*data.Relation, []int) {
	rng := rand.New(rand.NewSource(seed))
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		c := i % 2
		rel.Append(data.Tuple{
			data.Num(float64(c)*10 + rng.NormFloat64()),
			data.Num(float64(c)*10 + rng.NormFloat64()),
		})
		labels = append(labels, c)
	}
	return rel, labels
}

func TestTreeFitsSeparableData(t *testing.T) {
	rel, labels := separable(200, 1)
	tree, err := TrainTree(rel, labels, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pred := tree.PredictAll(rel)
	wrong := 0
	for i := range pred {
		if pred[i] != labels[i] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d training errors on separable data", wrong)
	}
	if tree.Depth() < 1 {
		t.Error("tree did not split at all")
	}
}

func TestTreeXORNeedsDepthTwo(t *testing.T) {
	// XOR is not linearly separable; a depth-2 tree fits it exactly.
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	labels := []int{}
	for i := 0; i < 40; i++ {
		x := float64(i % 2)
		y := float64((i / 2) % 2)
		rel.Append(data.Tuple{data.Num(x), data.Num(y)})
		labels = append(labels, int(x)^int(y))
	}
	tree, err := TrainTree(rel, labels, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pred := tree.PredictAll(rel)
	for i := range pred {
		if pred[i] != labels[i] {
			t.Fatalf("XOR sample %d misclassified", i)
		}
	}
	if tree.Depth() < 2 {
		t.Errorf("XOR tree depth %d, want ≥ 2", tree.Depth())
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	rel, labels := separable(200, 2)
	tree, err := TrainTree(rel, labels, TreeConfig{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 1 {
		t.Errorf("depth %d exceeds MaxDepth 1", tree.Depth())
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	labels := []int{7, 7, 7}
	for i := 0; i < 3; i++ {
		rel.Append(data.Tuple{data.Num(float64(i))})
	}
	tree, err := TrainTree(rel, labels, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Errorf("pure data grew depth %d", tree.Depth())
	}
	if got := tree.Predict(data.Tuple{data.Num(99)}); got != 7 {
		t.Errorf("predict = %d", got)
	}
}

func TestTreeErrors(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	if _, err := TrainTree(rel, nil, TreeConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	rel.Append(data.Tuple{data.Num(1)})
	if _, err := TrainTree(rel, []int{1, 2}, TreeConfig{}); err == nil {
		t.Error("label length mismatch accepted")
	}
	ts := &data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}}
	trel := data.NewRelation(ts)
	trel.Append(data.Tuple{data.Str("a")})
	if _, err := TrainTree(trel, []int{0}, TreeConfig{}); err == nil {
		t.Error("text attribute accepted")
	}
}

func TestCrossValidate(t *testing.T) {
	rel, labels := separable(250, 3)
	f1, err := CrossValidate(rel, labels, 5, TreeConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.95 {
		t.Errorf("CV macro F1 = %v on separable data", f1)
	}
	// Deterministic for a fixed seed.
	f2, _ := CrossValidate(rel, labels, 5, TreeConfig{}, 1)
	if f1 != f2 {
		t.Error("cross-validation not deterministic")
	}
	// Shuffled labels give near-chance accuracy.
	shuffled := append([]int(nil), labels...)
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	f3, err := CrossValidate(rel, shuffled, 5, TreeConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f3 > 0.7 {
		t.Errorf("CV on shuffled labels = %v, want near chance", f3)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	rel, labels := separable(4, 4)
	if _, err := CrossValidate(rel, labels[:2], 5, TreeConfig{}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CrossValidate(rel, labels, 5, TreeConfig{}, 1); err == nil {
		t.Error("n < folds accepted")
	}
}
