package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/stats"
)

func mixture(t *testing.T, n int, seed int64) *data.Dataset {
	t.Helper()
	ds, err := data.GenMixture(data.MixtureSpec{
		Name: "t", N: n, M: 4, K: 3, Domain: 20, Std: 0.5,
		DirtyFrac: 0.08, NaturalFrac: 0.02, Eps: 1.5, Eta: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// neighborCounts is NeighborCountsContext over a fresh index, failing the
// test on error.
func neighborCounts(t *testing.T, rel *data.Relation, eps, sampleRate float64, seed int64) []int {
	t.Helper()
	counts, err := NeighborCountsContext(context.Background(), rel, eps, sampleRate, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestNeighborCounts(t *testing.T) {
	ds := mixture(t, 400, 1)
	counts := neighborCounts(t, ds.Rel, 1.5, 1, 0)
	if len(counts) != 400 {
		t.Fatalf("got %d counts", len(counts))
	}
	// Cross-check a few against brute force.
	idx := neighbors.NewBrute(ds.Rel)
	for _, i := range []int{0, 57, 399} {
		want := idx.CountWithin(ds.Rel.Tuples[i], 1.5, i, 0)
		if counts[i] != want {
			t.Errorf("count[%d] = %d, want %d", i, counts[i], want)
		}
	}
	// Sampled counts are a subset-sized slice.
	sampled := neighborCounts(t, ds.Rel, 1.5, 0.1, 0)
	if len(sampled) != 40 {
		t.Errorf("sampled counts = %d, want 40", len(sampled))
	}
}

func TestDeterminePoissonFindsReasonableParams(t *testing.T) {
	ds := mixture(t, 600, 2)
	choice, err := DeterminePoissonContext(context.Background(), ds.Rel, ParamOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Eps <= 0 || choice.Eta < 1 {
		t.Fatalf("degenerate choice %+v", choice)
	}
	// The chosen constraints should flag roughly the injected outlier
	// fraction (10%); allow a wide band since the grid is coarse.
	det, err := DetectContext(context.Background(), ds.Rel, Constraints{Eps: choice.Eps, Eta: choice.Eta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(det.Outliers)) / float64(ds.N())
	if rate < 0.02 || rate > 0.35 {
		t.Errorf("outlier rate %v under chosen params %+v, want ≈ 0.1", rate, choice)
	}
	// Most injected dirty outliers must actually be flagged.
	flagged := map[int]bool{}
	for _, oi := range det.Outliers {
		flagged[oi] = true
	}
	missed := 0
	total := 0
	for i := range ds.Dirty {
		if ds.Dirty[i] != 0 {
			total++
			if !flagged[i] {
				missed++
			}
		}
	}
	if total > 0 && float64(missed)/float64(total) > 0.4 {
		t.Errorf("chosen params miss %d/%d injected errors", missed, total)
	}
}

func TestDeterminePoissonSamplingStable(t *testing.T) {
	// Figure 5 / Table 4: sampling preserves the neighbor-count
	// distribution. Compare the Poisson fit at a fixed ε between the full
	// scan and a 10% sample.
	ds := mixture(t, 800, 4)
	full, err := stats.FitPoisson(neighborCounts(t, ds.Rel, ds.Eps, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := stats.FitPoisson(neighborCounts(t, ds.Rel, ds.Eps, 0.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if full.Lambda <= 0 {
		t.Fatalf("degenerate full λ %v", full.Lambda)
	}
	lr := sampled.Lambda / full.Lambda
	if lr < 0.6 || lr > 1.4 {
		t.Errorf("sampled λ %v far from full %v", sampled.Lambda, full.Lambda)
	}
	// The determined parameters from a sample remain usable: the chosen
	// constraints flag a sane outlier fraction on the full data.
	choice, err := DeterminePoissonContext(context.Background(), ds.Rel, ParamOptions{Seed: 5, SampleRate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	det, err := DetectContext(context.Background(), ds.Rel, Constraints{Eps: choice.Eps, Eta: choice.Eta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(det.Outliers)) / float64(ds.N())
	if rate < 0.01 || rate > 0.4 {
		t.Errorf("sampled determination flags %v of tuples", rate)
	}
}

func TestDeterminePoissonErrors(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x"))
	if _, err := DeterminePoissonContext(context.Background(), r, ParamOptions{}); err == nil {
		t.Error("empty relation accepted")
	}
	r.Append(data.Tuple{data.Num(0)})
	if _, err := DeterminePoissonContext(context.Background(), r, ParamOptions{}); err == nil {
		t.Error("single tuple accepted")
	}
}

func TestDeterminePoissonExplicitCandidates(t *testing.T) {
	ds := mixture(t, 300, 7)
	choice, err := DeterminePoissonContext(context.Background(), ds.Rel, ParamOptions{
		EpsCandidates: []float64{1.0, 1.5, 2.0},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range []float64{1.0, 1.5, 2.0} {
		if choice.Eps == c {
			found = true
		}
	}
	if !found {
		t.Errorf("chosen ε %v not among candidates", choice.Eps)
	}
}

func TestExactSaverOptimalOnTinyDomain(t *testing.T) {
	// Brute-force verify optimality: 1D integer grid.
	r := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 10; i++ {
		for rep := 0; rep < 3; rep++ {
			r.Append(data.Tuple{data.Num(float64(i))})
		}
	}
	cons := Constraints{Eps: 1, Eta: 4}
	ex, err := NewExactSaver(r, cons, 0)
	if err != nil {
		t.Fatal(err)
	}
	outlier := data.Tuple{data.Num(30)}
	adj := ex.SaveOne(context.Background(), outlier)
	if !adj.Saved() {
		t.Fatal("exact did not save")
	}
	// Any x in [1,8] has ≥ 6 neighbors within 1 (integers x−1, x, x+1 at
	// 3 copies each, minus... the candidate is a new point so all copies
	// count). Nearest feasible integer to 30 is 9 (neighbors 8,9,10? 10
	// doesn't exist, so 9 has 8's three copies + 9's three = 6 ≥ 4).
	if adj.Tuple[0].Num != 9 {
		t.Errorf("exact adjusted to %v, want 9", adj.Tuple[0].Num)
	}
	if math.Abs(adj.Cost-21) > 1e-9 {
		t.Errorf("cost = %v, want 21", adj.Cost)
	}
}

func TestExactSaverRespectsDomainThinning(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 200; i++ {
		r.Append(data.Tuple{data.Num(float64(i % 20)), data.Num(float64(i / 20))})
	}
	ex, err := NewExactSaver(r, Constraints{Eps: 1.5, Eta: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if len(ex.domains[a]) > 5 {
			t.Errorf("domain %d has %d values after thinning to 5", a, len(ex.domains[a]))
		}
	}
	adj := ex.SaveOne(context.Background(), data.Tuple{data.Num(50), data.Num(5)})
	if !adj.Saved() {
		t.Error("thinned exact failed to save")
	}
}

func TestExactSaverInvalidConstraints(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x"))
	r.Append(data.Tuple{data.Num(0)})
	if _, err := NewExactSaver(r, Constraints{Eps: 0, Eta: 1}, 0); err == nil {
		t.Error("invalid constraints accepted")
	}
}

func TestExactNeverWorseThanDISCCost(t *testing.T) {
	ds := mixture(t, 200, 11)
	cons := Constraints{Eps: ds.Eps, Eta: ds.Eta}
	det, err := DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		t.Skip("no outliers in draw")
	}
	r := ds.Rel.Subset(det.Inliers)
	saver, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExactSaver(r, cons, 12)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, oi := range det.Outliers {
		if checked >= 5 {
			break
		}
		to := ds.Rel.Tuples[oi]
		dAdj := saver.SaveOne(context.Background(), to)
		eAdj := ex.SaveOne(context.Background(), to)
		if !dAdj.Saved() || !eAdj.Saved() {
			continue
		}
		checked++
		// The thinned exact domain may миss the best value, so only a
		// loose sanity relation holds: both costs are finite and exact
		// stays within 2× of DISC.
		if eAdj.Cost > dAdj.Cost*2+1e-9 {
			t.Errorf("outlier %d: exact %v ≫ DISC %v", oi, eAdj.Cost, dAdj.Cost)
		}
	}
}
