package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// bruteOptimal finds the true optimal adjustment of to with unadjusted x
// by enumerating all value combinations from the observed domains on the
// adjustable attributes (exponential; test sizes only).
func bruteOptimal(r *data.Relation, cons Constraints, to data.Tuple, x data.AttrMask) (data.Tuple, float64) {
	sch := r.Schema
	m := sch.M()
	doms := data.Domain(r)
	idx := neighbors.NewBrute(r)
	adj := (data.FullMask(m) &^ x).Attrs(m)
	best := math.Inf(1)
	var bestT data.Tuple
	cur := to.Clone()
	var rec func(k int)
	rec = func(k int) {
		if k == len(adj) {
			if idx.CountWithin(cur, cons.Eps, -1, cons.Eta) >= cons.Eta {
				if c := sch.Dist(to, cur); c < best {
					best = c
					bestT = cur.Clone()
				}
			}
			return
		}
		a := adj[k]
		for _, v := range append([]data.Value{to[a]}, doms[a]...) {
			cur[a] = v
			rec(k + 1)
		}
		cur[a] = to[a]
	}
	rec(0)
	return bestT, best
}

// propBounds holds the Proposition 3 / Proposition 5 bounds for a single
// outlier and unadjusted-attribute set X — the quantities Algorithm 1
// uses internally (Figure 3 of the paper).
type propBounds struct {
	// Lower is the Proposition 3 lower bound on the cost of any feasible
	// adjustment with t''[X] = t_o[X]: Δ(t_o, t_1) − ε with t_1 the η-th
	// nearest neighbor of t_o within r_ε(t_o[X]). +Inf when fewer than η
	// tuples lie within ε on X (no such adjustment exists).
	Lower float64
	// Upper is the Proposition 5 upper bound: the cost of the composite
	// t_o[X] ⊕ t_2[R\X] for the best donor t_2; +Inf when no donor
	// satisfies δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]).
	Upper float64
	// Witness is the composite upper-bound adjustment (nil when Upper is
	// +Inf). It is always feasible.
	Witness data.Tuple
}

// computeBounds is the Proposition 3/5 oracle: it evaluates the bounds of
// the optimal adjustment of outlier to with unadjusted attributes x against
// the outlier-free relation r by brute-force scans, where Algorithm 1
// reuses distances across the recursion instead.
func computeBounds(r *data.Relation, cons Constraints, to data.Tuple, x data.AttrMask) (propBounds, error) {
	if err := cons.Validate(); err != nil {
		return propBounds{}, err
	}
	b := propBounds{Lower: math.Inf(1), Upper: math.Inf(1)}
	sch := r.Schema
	idx := neighbors.NewBrute(r)
	// Distances to the outlier go through the brute index's compiled
	// kernel: the query binds once and text distances hit the shared
	// per-pair cache the index queries also warm.
	kq := idx.Kernel().Bind(to)
	defer kq.Release()

	// Candidates: r_ε(t_o[X]).
	type cand struct {
		i         int
		dx, dfull float64
	}
	var cands []cand
	for i := 0; i < r.N(); i++ {
		dx := kq.DistToX(i, x)
		if dx > cons.Eps {
			continue
		}
		cands = append(cands, cand{i: i, dx: dx, dfull: kq.DistTo(i)})
	}
	if len(cands) < cons.Eta {
		return b, nil // Lower stays +Inf: infeasible with this X
	}

	// Proposition 3: η-th smallest full-space distance.
	full := make([]float64, len(cands))
	for k, c := range cands {
		full[k] = c.dfull
	}
	kth := quickselect(full, cons.Eta-1)
	b.Lower = kth - cons.Eps
	if b.Lower < 0 {
		b.Lower = 0
	}

	// Proposition 5: best donor with δ_η(t_2) ≤ ε − Δ_X.
	compl := data.FullMask(sch.M()) &^ x
	for _, c := range cands {
		t2 := r.Tuples[c.i]
		etaRadius := math.Inf(1)
		nn := idx.KNN(t2, cons.Eta, c.i)
		if len(nn) >= cons.Eta {
			etaRadius = nn[cons.Eta-1].Dist
		}
		if etaRadius > cons.Eps-c.dx {
			continue
		}
		cost := kq.DistToX(c.i, compl)
		if cost < b.Upper {
			b.Upper = cost
			b.Witness = data.Compose(to, t2, x)
		}
	}
	return b, nil
}

func TestComputeBoundsSandwichTheOptimum(t *testing.T) {
	// Propositions 3 and 5 verified against brute-force enumeration on
	// random small instances: Lower ≤ optimal ≤ Upper whenever the
	// optimum exists.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		r := data.NewRelation(data.NewNumericSchema("a", "b"))
		for i := 0; i < 50; i++ {
			r.Append(data.Tuple{
				data.Num(math.Floor(rng.Float64() * 5)),
				data.Num(math.Floor(rng.Float64() * 5)),
			})
		}
		cons := Constraints{Eps: 1.5, Eta: 4}
		to := data.Tuple{data.Num(12 + rng.Float64()*5), data.Num(math.Floor(rng.Float64() * 5))}
		for _, x := range []data.AttrMask{0, data.AttrMask(0).With(1)} {
			b, err := computeBounds(r, cons, to, x)
			if err != nil {
				t.Fatal(err)
			}
			_, opt := bruteOptimal(r, cons, to, x)
			if math.IsInf(opt, 1) {
				// No feasible adjustment from observed values; the upper
				// bound must also be absent or the witness feasible.
				continue
			}
			if b.Lower > opt+1e-9 {
				t.Fatalf("trial %d mask %b: lower bound %v above optimum %v", trial, x, b.Lower, opt)
			}
			if !math.IsInf(b.Upper, 1) && b.Upper < opt-1e-9 {
				t.Fatalf("trial %d mask %b: upper bound %v below optimum %v (not feasible?)", trial, x, b.Upper, opt)
			}
		}
	}
}

func TestComputeBoundsWitnessIsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}
	idx := neighbors.NewBrute(r)
	for trial := 0; trial < 20; trial++ {
		to := data.Tuple{data.Num(rng.Float64()*20 - 5), data.Num(rng.Float64()*20 - 5)}
		for _, x := range []data.AttrMask{0, 1, 2} {
			b, err := computeBounds(r, cons, to, x)
			if err != nil {
				t.Fatal(err)
			}
			if b.Witness == nil {
				continue
			}
			if got := idx.CountWithin(b.Witness, cons.Eps, -1, 0); got < cons.Eta {
				t.Fatalf("witness with %d ε-neighbors", got)
			}
			// Witness preserves the unadjusted attributes.
			for a := 0; a < 2; a++ {
				if x.Has(a) && b.Witness[a].Num != to[a].Num {
					t.Fatalf("witness changed unadjusted attribute %d", a)
				}
			}
			// Witness cost matches the reported upper bound.
			if d := r.Schema.Dist(to, b.Witness); math.Abs(d-b.Upper) > 1e-9 {
				t.Fatalf("witness cost %v != upper %v", d, b.Upper)
			}
		}
	}
}

func TestComputeBoundsInfeasibleX(t *testing.T) {
	r := clusterRelation(0, 0, 2)
	cons := Constraints{Eps: 1.5, Eta: 3}
	// Keeping x = 100 fixed admits no candidates at all.
	to := data.Tuple{data.Num(100), data.Num(0)}
	b, err := computeBounds(r, cons, to, data.AttrMask(0).With(0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Lower, 1) || !math.IsInf(b.Upper, 1) || b.Witness != nil {
		t.Errorf("infeasible X produced bounds %+v", b)
	}
	if _, err := computeBounds(r, Constraints{}, to, 0); err == nil {
		t.Error("invalid constraints accepted")
	}
}

func TestSaverAgreesWithBoundsAcrossMasks(t *testing.T) {
	// The Algorithm 1 result can never beat the best Proposition-5 upper
	// bound over all X it explores, and never undercut the X=∅ lower
	// bound.
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	to := data.Tuple{data.Num(9), data.Num(0.4)}
	adj := s.SaveOne(context.Background(), to)
	if !adj.Saved() {
		t.Fatal("not saved")
	}
	b0, err := computeBounds(r, cons, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Cost < b0.Lower-1e-9 {
		t.Errorf("cost %v under the X=∅ lower bound %v", adj.Cost, b0.Lower)
	}
	// The best single-attribute-unadjusted upper bound is attainable.
	bestUpper := b0.Upper
	for a := 0; a < 2; a++ {
		b, err := computeBounds(r, cons, to, data.AttrMask(0).With(a))
		if err != nil {
			t.Fatal(err)
		}
		if b.Upper < bestUpper {
			bestUpper = b.Upper
		}
	}
	if adj.Cost > bestUpper+1e-9 {
		t.Errorf("cost %v above the best reachable upper bound %v", adj.Cost, bestUpper)
	}
}

func TestSaverL1Norm(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	r.Schema.Norm = metric.L1
	cons := Constraints{Eps: 2, Eta: 3}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	to := data.Tuple{data.Num(10), data.Num(0.25)}
	adj := s.SaveOne(context.Background(), to)
	if !adj.Saved() {
		t.Fatal("L1 saver failed")
	}
	idx := neighbors.NewBrute(r)
	if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
		t.Errorf("L1 adjustment infeasible (%d neighbors)", got)
	}
	if d := r.Schema.Dist(to, adj.Tuple); math.Abs(d-adj.Cost) > 1e-9 {
		t.Errorf("L1 cost mismatch: %v vs %v", adj.Cost, d)
	}
}

func TestSaverLInfNorm(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	r.Schema.Norm = metric.LInf
	cons := Constraints{Eps: 1.2, Eta: 3}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	to := data.Tuple{data.Num(10), data.Num(0.25)}
	adj := s.SaveOne(context.Background(), to)
	if !adj.Saved() {
		t.Fatal("L∞ saver failed")
	}
	idx := neighbors.NewBrute(r)
	if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
		t.Errorf("L∞ adjustment infeasible (%d neighbors)", got)
	}
	if d := r.Schema.Dist(to, adj.Tuple); math.Abs(d-adj.Cost) > 1e-9 {
		t.Errorf("L∞ cost mismatch: %v vs %v", adj.Cost, d)
	}
}

func TestSaverWorkersOption(t *testing.T) {
	ds := mixture(t, 400, 31)
	cons := Constraints{Eps: ds.Eps, Eta: ds.Eta}
	seq, err := SaveAllContext(context.Background(), ds.Rel, cons, Options{Kappa: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SaveAllContext(context.Background(), ds.Rel, cons, Options{Kappa: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Saved != par.Saved || seq.Natural != par.Natural {
		t.Fatalf("parallel save differs: %d/%d vs %d/%d", seq.Saved, seq.Natural, par.Saved, par.Natural)
	}
	for k := range seq.Adjustments {
		a, b := seq.Adjustments[k], par.Adjustments[k]
		if a.Index != b.Index || math.Abs(a.Cost-b.Cost) > 1e-9 && !(math.IsInf(a.Cost, 1) && math.IsInf(b.Cost, 1)) {
			t.Fatalf("adjustment %d differs between worker counts", k)
		}
	}
}

func TestKappaMonotonicity(t *testing.T) {
	// Loosening κ can only lower (or keep) the adjustment cost.
	ds := mixture(t, 300, 32)
	cons := Constraints{Eps: ds.Eps, Eta: ds.Eta}
	det, err := DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		t.Skip("no outliers")
	}
	r := ds.Rel.Subset(det.Inliers)
	costs := map[int][]float64{}
	for ki, kappa := range []int{1, 2, 0} { // 0 = unrestricted
		s, err := NewSaverContext(context.Background(), r, cons, Options{Kappa: kappa})
		if err != nil {
			t.Fatal(err)
		}
		for _, oi := range det.Outliers {
			adj := s.SaveOne(context.Background(), ds.Rel.Tuples[oi])
			c := math.Inf(1)
			if adj.Saved() {
				c = adj.Cost
			}
			costs[oi] = append(costs[oi], c)
			_ = ki
		}
	}
	for oi, cs := range costs {
		for k := 1; k < len(cs); k++ {
			if cs[k] > cs[k-1]+1e-9 {
				t.Fatalf("outlier %d: cost increased when loosening κ: %v", oi, cs)
			}
		}
	}
}
