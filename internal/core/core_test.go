package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// clusterRelation builds a dense 2D cluster around (cx, cy): a (2k+1)²
// grid with spacing 0.5, so interior points have plenty of 1.5-neighbors.
func clusterRelation(cx, cy float64, k int) *data.Relation {
	r := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := -k; i <= k; i++ {
		for j := -k; j <= k; j++ {
			r.Append(data.Tuple{data.Num(cx + float64(i)*0.5), data.Num(cy + float64(j)*0.5)})
		}
	}
	return r
}

func TestConstraintsValidate(t *testing.T) {
	if err := (Constraints{Eps: 1, Eta: 1}).Validate(); err != nil {
		t.Errorf("valid constraints rejected: %v", err)
	}
	if err := (Constraints{Eps: 0, Eta: 1}).Validate(); err == nil {
		t.Error("ε=0 accepted")
	}
	if err := (Constraints{Eps: 1, Eta: 0}).Validate(); err == nil {
		t.Error("η=0 accepted")
	}
}

func TestDetectSplitsInliersAndOutliers(t *testing.T) {
	r := clusterRelation(0, 0, 3) // 49 points
	out := data.Tuple{data.Num(20), data.Num(20)}
	r.Append(out)
	cons := Constraints{Eps: 1.5, Eta: 3}
	det, err := DetectContext(context.Background(), r, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) != 1 || det.Outliers[0] != r.N()-1 {
		t.Fatalf("outliers = %v", det.Outliers)
	}
	if len(det.Inliers) != 49 {
		t.Fatalf("inliers = %d", len(det.Inliers))
	}
	// Counts exclude the tuple itself.
	if det.Counts[r.N()-1] != 0 {
		t.Errorf("isolated point has count %d", det.Counts[r.N()-1])
	}
}

func TestDetectInvalidConstraints(t *testing.T) {
	r := clusterRelation(0, 0, 1)
	if _, err := DetectContext(context.Background(), r, Constraints{Eps: -1, Eta: 1}, nil); err == nil {
		t.Error("invalid constraints accepted")
	}
}

func TestSaveAdjustsOnlyTheErroneousAttribute(t *testing.T) {
	// The Figure 1 scenario: a value error on one attribute makes the
	// tuple outlying; DISC should repair that attribute and keep the rest.
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outlier := data.Tuple{data.Num(10), data.Num(0.25)} // x corrupted, y fine
	adj := s.SaveOne(context.Background(), outlier)
	if !adj.Saved() {
		t.Fatal("outlier not saved")
	}
	if adj.Tuple[1].Num != 0.25 {
		t.Errorf("y was adjusted to %v; only x is erroneous", adj.Tuple[1].Num)
	}
	if adj.Adjusted.Count() != 1 || !adj.Adjusted.Has(0) {
		t.Errorf("adjusted mask = %b, want x only", adj.Adjusted)
	}
	// Feasibility: the adjustment has ≥ η ε-neighbors in r.
	idx := neighbors.NewBrute(r)
	if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
		t.Errorf("adjustment has only %d ε-neighbors, want ≥ %d", got, cons.Eta)
	}
	// Cost respects the Lemma 2 lower bound: Δ(t_o, t_1) − ε where t_1 is
	// the η-th NN.
	nn := idx.KNN(outlier, cons.Eta, -1)
	lower := nn[cons.Eta-1].Dist - cons.Eps
	if adj.Cost < lower-1e-9 {
		t.Errorf("cost %v beats the lower bound %v", adj.Cost, lower)
	}
	// Cost respects the Lemma 4 upper bound: distance to the nearest
	// inlier.
	upper := idx.KNN(outlier, 1, -1)[0].Dist
	if adj.Cost > upper+1e-9 {
		t.Errorf("cost %v exceeds the nearest-inlier upper bound %v", adj.Cost, upper)
	}
	// The adjustment must beat whole-tuple substitution (DORC's move):
	// repairing x alone is strictly cheaper than copying both attributes.
	if adj.Cost >= upper {
		t.Errorf("cost %v does not improve on tuple substitution %v", adj.Cost, upper)
	}
}

func TestSaveFeasibilityAndBoundsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		r := clusterRelation(0, 0, 3)
		// Sprinkle a second cluster for variety.
		for _, t2 := range clusterRelation(8, 8, 2).Tuples {
			r.Append(t2)
		}
		cons := Constraints{Eps: 1.5, Eta: 2 + rng.Intn(4)}
		s, err := NewSaverContext(context.Background(), r, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		outlier := data.Tuple{
			data.Num(rng.Float64()*30 - 5),
			data.Num(rng.Float64()*30 - 5),
		}
		idx := neighbors.NewBrute(r)
		adj := s.SaveOne(context.Background(), outlier)
		if !adj.Saved() {
			t.Fatalf("trial %d: not saved", trial)
		}
		if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
			t.Fatalf("trial %d: infeasible adjustment (%d neighbors)", trial, got)
		}
		nn := idx.KNN(outlier, cons.Eta, -1)
		lower := nn[cons.Eta-1].Dist - cons.Eps
		if adj.Cost < lower-1e-9 {
			t.Fatalf("trial %d: cost %v below lower bound %v", trial, adj.Cost, lower)
		}
		upper := idx.KNN(outlier, 1, -1)[0].Dist
		if adj.Cost > upper+1e-9 {
			t.Fatalf("trial %d: cost %v above upper bound %v", trial, adj.Cost, upper)
		}
		// Cost is consistent with the returned tuple.
		if d := r.Schema.Dist(outlier, adj.Tuple); math.Abs(d-adj.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported cost %v but Δ = %v", trial, adj.Cost, d)
		}
	}
}

func TestSaveMatchesExactOnSmallInstances(t *testing.T) {
	// DISC composes adjustments from existing tuples' values, exactly the
	// candidate space the Exact enumeration searches, so on these
	// instances exact ≤ DISC and both are feasible.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		r := data.NewRelation(data.NewNumericSchema("x", "y"))
		for i := 0; i < 60; i++ {
			r.Append(data.Tuple{
				data.Num(math.Floor(rng.Float64() * 6)),
				data.Num(math.Floor(rng.Float64() * 6)),
			})
		}
		cons := Constraints{Eps: 1.5, Eta: 4}
		s, err := NewSaverContext(context.Background(), r, cons, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExactSaver(r, cons, 0)
		if err != nil {
			t.Fatal(err)
		}
		outlier := data.Tuple{data.Num(25), data.Num(3)}
		dAdj := s.SaveOne(context.Background(), outlier)
		eAdj := ex.SaveOne(context.Background(), outlier)
		if !eAdj.Saved() {
			continue // no feasible position in this draw
		}
		if !dAdj.Saved() {
			t.Fatalf("trial %d: exact found %v but DISC found nothing", trial, eAdj.Cost)
		}
		if eAdj.Cost > dAdj.Cost+1e-9 {
			t.Fatalf("trial %d: exact cost %v worse than DISC %v", trial, eAdj.Cost, dAdj.Cost)
		}
		idx := neighbors.NewBrute(r)
		if got := idx.CountWithin(eAdj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
			t.Fatalf("trial %d: exact adjustment infeasible", trial)
		}
	}
}

func TestSaveKappaRestriction(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}
	s, err := NewSaverContext(context.Background(), r, cons, Options{Kappa: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One corrupted attribute: savable within κ=1.
	dirty := data.Tuple{data.Num(10), data.Num(0.25)}
	adj := s.SaveOne(context.Background(), dirty)
	if !adj.Saved() {
		t.Fatal("dirty outlier not saved under κ=1")
	}
	if adj.Adjusted.Count() > 1 {
		t.Errorf("κ=1 but %d attributes adjusted", adj.Adjusted.Count())
	}
	// Natural outlier: both attributes far off; not savable within κ=1.
	natural := data.Tuple{data.Num(40), data.Num(-40)}
	nAdj := s.SaveOne(context.Background(), natural)
	if nAdj.Saved() {
		t.Errorf("natural outlier saved under κ=1 by adjusting %b (cost %v)", nAdj.Adjusted, nAdj.Cost)
	}
	if !nAdj.Natural {
		t.Error("unsavable outlier not flagged natural")
	}
}

func TestSaveAblationsAgree(t *testing.T) {
	// Disabling pruning or memoization must not change the result cost.
	r := clusterRelation(0, 0, 2)
	for _, t4 := range clusterRelation(6, 2, 2).Tuples {
		r.Append(t4)
	}
	cons := Constraints{Eps: 1.5, Eta: 3}
	outlier := data.Tuple{data.Num(12), data.Num(2.2)}

	base, _ := NewSaverContext(context.Background(), r, cons, Options{})
	noPrune, _ := NewSaverContext(context.Background(), r, cons, Options{DisablePruning: true})
	noMemo, _ := NewSaverContext(context.Background(), r, cons, Options{DisableMemo: true})

	want := base.SaveOne(context.Background(), outlier)
	for name, s := range map[string]*Saver{"noPrune": noPrune, "noMemo": noMemo} {
		got := s.SaveOne(context.Background(), outlier)
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Errorf("%s: cost %v, want %v", name, got.Cost, want.Cost)
		}
	}
	// Pruning must not increase the node count.
	noPruneAdj := noPrune.SaveOne(context.Background(), outlier)
	if want.Nodes > noPruneAdj.Nodes {
		t.Errorf("pruning expanded more nodes (%d) than no pruning (%d)", want.Nodes, noPruneAdj.Nodes)
	}
}

func TestSaverRejectsBadInput(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x"))
	if _, err := NewSaverContext(context.Background(), r, Constraints{Eps: 1, Eta: 1}, Options{}); err == nil {
		t.Error("empty inlier set accepted")
	}
	r.Append(data.Tuple{data.Num(0)})
	if _, err := NewSaverContext(context.Background(), r, Constraints{Eps: 0, Eta: 1}, Options{}); err == nil {
		t.Error("invalid constraints accepted")
	}
}

func TestSaveGPSStyleSingleAttributeError(t *testing.T) {
	// Example 1/2 of the paper: a trajectory point with a corrupted
	// longitude; the repair should move longitude back near the
	// trajectory and keep time/latitude unchanged.
	// Readings every 10 time units: repairing the longitude in place is
	// far cheaper than re-timing the point, as with t₁₃ in Figure 2.
	r := data.NewRelation(data.NewNumericSchema("time", "lon", "lat"))
	for i := 0; i < 40; i++ {
		r.Append(data.Tuple{
			data.Num(float64(i) * 10),
			data.Num(800 + float64(i)*0.8),
			data.Num(160 + float64(i)*0.3),
		})
	}
	cons := Constraints{Eps: 21, Eta: 2}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The reading at time 130 with longitude 1010 instead of ≈ 810.
	outlier := data.Tuple{data.Num(130), data.Num(1010), data.Num(163.9)}
	adj := s.SaveOne(context.Background(), outlier)
	if !adj.Saved() {
		t.Fatal("trajectory outlier not saved")
	}
	if adj.Tuple[0].Num != 130 {
		t.Errorf("time adjusted to %v; it was correct", adj.Tuple[0].Num)
	}
	if adj.Tuple[2].Num != 163.9 {
		t.Errorf("latitude adjusted to %v; it was correct", adj.Tuple[2].Num)
	}
	if adj.Tuple[1].Num < 800 || adj.Tuple[1].Num > 832 {
		t.Errorf("longitude repaired to %v, want within the trajectory range", adj.Tuple[1].Num)
	}
	if adj.Adjusted.Count() != 1 || !adj.Adjusted.Has(1) {
		t.Errorf("adjusted mask = %b, want longitude only", adj.Adjusted)
	}
}

func TestSaveAllPipeline(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	n0 := r.N()
	// Two dirty outliers and one natural outlier.
	r.Append(data.Tuple{data.Num(9), data.Num(0.3)})
	r.Append(data.Tuple{data.Num(-0.2), data.Num(-11)})
	r.Append(data.Tuple{data.Num(50), data.Num(-50)})
	cons := Constraints{Eps: 1.5, Eta: 3}

	res, err := SaveAllContext(context.Background(), r, cons, Options{Kappa: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detection.Outliers) != 3 {
		t.Fatalf("detected %d outliers, want 3", len(res.Detection.Outliers))
	}
	if res.Saved != 2 || res.Natural != 1 {
		t.Fatalf("saved=%d natural=%d, want 2/1", res.Saved, res.Natural)
	}
	// The input relation is untouched.
	if r.Tuples[n0][0].Num != 9 {
		t.Error("SaveAllContext modified its input")
	}
	// Repaired relation has no remaining dirty outliers (the natural one
	// stays).
	det2, err := DetectContext(context.Background(), res.Repaired, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det2.Outliers) != 1 {
		t.Errorf("repaired relation still has %d outliers, want 1 (the natural)", len(det2.Outliers))
	}
	// Adjustment indexes point at the original positions.
	for _, adj := range res.Adjustments {
		if adj.Index < n0 {
			t.Errorf("adjustment index %d points at an inlier", adj.Index)
		}
	}
}

func TestSaveAllNoOutliers(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	res, err := SaveAllContext(context.Background(), r, Constraints{Eps: 1.5, Eta: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adjustments) != 0 || res.Saved != 0 || res.Natural != 0 {
		t.Error("clean relation produced adjustments")
	}
}

func TestSaveAllAllOutliers(t *testing.T) {
	// Every tuple isolated: nothing can be saved, all flagged natural.
	r := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 5; i++ {
		r.Append(data.Tuple{data.Num(float64(i) * 100)})
	}
	res, err := SaveAllContext(context.Background(), r, Constraints{Eps: 1, Eta: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Natural != 5 || res.Saved != 0 {
		t.Fatalf("saved=%d natural=%d, want 0/5", res.Saved, res.Natural)
	}
}

func TestQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Floor(rng.Float64() * 20)
		}
		k := rng.Intn(n)
		sorted := append([]float64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if got := quickselect(append([]float64(nil), vals...), k); got != sorted[k] {
			t.Fatalf("quickselect(%v, %d) = %v, want %v", vals, k, got, sorted[k])
		}
	}
}

// TestDetectLatticeOwnCellFirst pins the ordered grid walk's visiting order
// on perfbench's lattice (4,160 tuples, ε = 1, η = 20), where most capped
// counts fill up inside the query's own cell. The walk visits that cell
// before it enumerates and sorts the others, in the order it had when the
// cell was sorted with them, so detection's counts equal the brute scan's
// and its evaluations are those of that order, 90,601; and k-NN(η) from
// every 37th tuple returns the brute scan's neighbors in 36,559
// evaluations.
func TestDetectLatticeOwnCellFirst(t *testing.T) {
	rel, err := data.GenLattice(data.LatticeSpec{Side: 4, PerCell: 64, Dims: 3, Noise: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const eps, eta = 1.0, 20
	det, err := DetectContext(context.Background(), rel, Constraints{Eps: eps, Eta: eta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	brute := neighbors.NewBrute(rel)
	for i, tp := range rel.Tuples {
		if want := brute.CountWithin(tp, eps, i, eta); det.Counts[i] != want {
			t.Fatalf("Counts[%d] = %d, brute %d", i, det.Counts[i], want)
		}
	}
	if det.Stats.DistEvals != 90601 || det.Stats.GridFallbacks != 0 {
		t.Errorf("detection evaluated %d pairs with %d fallbacks, want 90601 and 0", det.Stats.DistEvals, det.Stats.GridFallbacks)
	}
	var c neighbors.Counters
	view := neighbors.Counting(neighbors.NewGrid(rel, eps), &c)
	for i := 0; i < rel.N(); i += 37 {
		got, want := view.KNN(rel.Tuples[i], eta, i), brute.KNN(rel.Tuples[i], eta, i)
		if len(got) != len(want) {
			t.Fatalf("KNN from %d: %d neighbors, brute %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("KNN from %d: [%d] = %+v, brute %+v", i, k, got[k], want[k])
			}
		}
	}
	if c.DistEvals != 36559 {
		t.Errorf("%d k-NN queries evaluated %d pairs, want 36559", c.KNNQueries, c.DistEvals)
	}
}
