package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// approxTestRel builds the jittered-lattice workload the approximate
// detection tests run on: uniform unit-density cells whose neighbor-count
// geometry is known (interior ≈ ball volume × per-cell), plus isolated
// noise outliers. η = 8 sits below the clear-inlier threshold xClear
// (≈ z² at 0.999), which is what makes the sampled inlier certificate
// deterministically sound — see the soundness argument in approx.go.
func approxTestRel(t *testing.T, norm metric.Norm) *data.Relation {
	t.Helper()
	rel, err := data.GenLattice(data.LatticeSpec{Side: 5, PerCell: 16, Dims: 3, Noise: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rel.Schema.Norm = norm
	return rel
}

func approxTestIndexes(rel *data.Relation) map[string]neighbors.Index {
	return map[string]neighbors.Index{
		"brute":  neighbors.NewBrute(rel),
		"grid":   neighbors.NewGrid(rel, 1),
		"kdtree": neighbors.NewKDTree(rel),
		"vptree": neighbors.NewVPTree(rel, 3),
	}
}

var approxTestCons = Constraints{Eps: 1, Eta: 8}

// TestDetectApproxDifferential pins the headline guarantee: with
// refinement on, the approximate split — and, by the Counts invariant,
// every stored count — is identical to the exact pass for every index
// kind, norm and sample seed. This is not a statistical
// test — at η below xClear the inlier certificate is deterministically
// sound (a without-replacement sample only undercounts), the cube bound is
// deterministic, and the Wilson outlier certificate cannot fire at this
// sample-to-η ratio — so any divergence is a bug, not noise.
func TestDetectApproxDifferential(t *testing.T) {
	ctx := context.Background()
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		rel := approxTestRel(t, norm)
		for name, idx := range approxTestIndexes(rel) {
			exact, err := DetectContext(ctx, rel, approxTestCons, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 3} {
				ap := ApproxOptions{Confidence: 0.999, MinN: 256, Seed: seed}
				approx, err := DetectApproxContext(ctx, rel, approxTestCons, idx, ap)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact.Inliers, approx.Inliers) ||
					!reflect.DeepEqual(exact.Outliers, approx.Outliers) {
					t.Fatalf("norm %v %s seed %d: approximate split diverges from exact (%d/%d vs %d/%d in/out)",
						norm, name, seed, len(approx.Inliers), len(approx.Outliers),
						len(exact.Inliers), len(exact.Outliers))
				}
				if !reflect.DeepEqual(exact.Counts, approx.Counts) {
					t.Fatalf("norm %v %s seed %d: approximate counts break min(count, η)", norm, name, seed)
				}
				st := approx.Stats
				if st.ApproxSampled == 0 {
					t.Fatalf("norm %v %s seed %d: no tuple classified from the sample", norm, name, seed)
				}
				if st.ApproxSampled+st.ApproxRefined != int64(rel.N()) {
					t.Fatalf("norm %v %s seed %d: sampled %d + refined %d ≠ n %d",
						norm, name, seed, st.ApproxSampled, st.ApproxRefined, rel.N())
				}
				// Under L2 the interior count (≈ 67) is far above η, so
				// most tuples must certify from the sample; tighter-ball
				// norms legitimately push more tuples into the band.
				if norm == metric.L2 && st.ApproxRefined >= st.ApproxSampled {
					t.Fatalf("%s seed %d: borderline band (%d) not smaller than certified set (%d)",
						name, seed, st.ApproxRefined, st.ApproxSampled)
				}
			}
		}
	}
}

// TestDetectApproxNoRefine checks the fully-sublinear mode is still
// statistically sound: no exact refinement runs, the isolated noise
// outliers are all found (their sampled hit count is zero), and the
// boundary-band misclassification stays a small fraction of n.
func TestDetectApproxNoRefine(t *testing.T) {
	ctx := context.Background()
	rel := approxTestRel(t, metric.L2)
	idx := neighbors.NewGrid(rel, 1)
	exact, err := DetectContext(ctx, rel, approxTestCons, idx)
	if err != nil {
		t.Fatal(err)
	}
	ap := ApproxOptions{Confidence: 0.999, MinN: 256, Seed: 1, NoRefine: true}
	approx, err := DetectApproxContext(ctx, rel, approxTestCons, idx, ap)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats.ApproxRefined != 0 {
		t.Fatalf("NoRefine still refined %d tuples exactly", approx.Stats.ApproxRefined)
	}
	n := rel.N()
	mismatches := 0
	for i := 0; i < n; i++ {
		if exact.IsOutlier(i) != approx.IsOutlier(i) {
			mismatches++
		}
	}
	if limit := n / 20; mismatches > limit {
		t.Fatalf("NoRefine misclassified %d of %d tuples (limit %d)", mismatches, n, limit)
	}
	// The appended noise tuples are isolated: no estimate can make them
	// inliers, so even the unrefined pass must report every one.
	for i := n - 8; i < n; i++ {
		if !approx.IsOutlier(i) {
			t.Fatalf("noise tuple %d not reported as outlier without refinement", i)
		}
	}
}

// TestDetectApproxFallbacks checks the exact-pass escape hatches: a
// relation under MinN, an Off toggle, and a sample that would swallow the
// relation all produce the exact detection with zero approx counters.
func TestDetectApproxFallbacks(t *testing.T) {
	ctx := context.Background()
	rel := approxTestRel(t, metric.L2)
	idx := neighbors.NewGrid(rel, 1)
	exact, err := DetectContext(ctx, rel, approxTestCons, idx)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]ApproxOptions{
		"min-n":         {Confidence: 0.999},                                // default MinN 2048 > n
		"off":           {Confidence: 0.999, MinN: 256, Off: true},          //
		"sample-ge-rel": {Confidence: 0.999, MinN: 256, SampleRate: 0.9999}, // ceil(rate·n) ≥ n
	}
	for name, ap := range cases {
		got, err := DetectApproxContext(ctx, rel, approxTestCons, idx, ap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact.Inliers, got.Inliers) || !reflect.DeepEqual(exact.Counts, got.Counts) {
			t.Fatalf("%s: fallback differs from the exact pass", name)
		}
		if got.Stats.ApproxSampled != 0 || got.Stats.ApproxRefined != 0 {
			t.Fatalf("%s: exact fallback reported approx counters (%d sampled, %d refined)",
				name, got.Stats.ApproxSampled, got.Stats.ApproxRefined)
		}
	}
}

// TestApproxNeighborCounts checks the positional entry point (the sharded
// engine's contract): classifying a subset of positions against the full
// index returns exactly the counts the whole-relation pass assigns those
// tuples, and small relations take the exact-fallback branch.
func TestApproxNeighborCounts(t *testing.T) {
	ctx := context.Background()
	rel := approxTestRel(t, metric.L2)
	idx := neighbors.NewGrid(rel, 1)
	ap := ApproxOptions{Confidence: 0.999, MinN: 256, Seed: 1}
	det, err := DetectApproxContext(ctx, rel, approxTestCons, idx, ap)
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{0, 17, 999, 1500, rel.N() - 1}
	counts, st, err := ApproxNeighborCounts(ctx, rel, approxTestCons, idx, ap, positions, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range positions {
		if counts[k] != det.Counts[i] {
			t.Fatalf("position %d: count %d differs from the whole-relation pass %d", i, counts[k], det.Counts[i])
		}
	}
	if st.ApproxSampled+st.ApproxRefined != int64(len(positions)) {
		t.Fatalf("positional pass classified %d+%d tuples, want %d",
			st.ApproxSampled, st.ApproxRefined, len(positions))
	}

	// Under MinN the positional pass answers exactly.
	small := rel.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
	sidx := neighbors.NewBrute(small)
	counts, st, err = ApproxNeighborCounts(ctx, small, approxTestCons, sidx, ap, []int{0, 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ApproxSampled != 0 || st.ApproxRefined != 0 {
		t.Fatal("small-relation positional pass should fall back to exact counting")
	}
	for k, i := range []int{0, 7} {
		want := sidx.CountWithin(small.Tuples[i], approxTestCons.Eps, i, 0)
		if counts[k] != want {
			t.Fatalf("small-relation position %d: count %d, want exact %d", i, counts[k], want)
		}
	}
}

// TestApproxSampledProbeAllocs guards the hot path: classifying a clear
// interior inlier from the sampled probe must not allocate — the probe
// rides the grid's stack buffers and the certificate math is pure.
func TestApproxSampledProbeAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rel := approxTestRel(t, metric.L2)
	idx := neighbors.NewGrid(rel, 1)
	ap := ApproxOptions{Confidence: 0.999, MinN: 256, Seed: 1}.withDefaults()
	p, err := newApproxPlan(rel, approxTestCons, idx, ap)
	if err != nil {
		t.Fatal(err)
	}
	var w approxWorker
	w.bind(context.Background(), p)
	// Cell (2,2,2) is interior: its tuples certify as clear inliers from
	// the sampled probe alone.
	i := (2 + 2*5 + 2*25) * 16
	w.sampled = 0
	p.classify(&w, i)
	if w.sampled != 1 {
		t.Fatalf("interior tuple %d did not take the sampled path", i)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.classify(&w, i) }); allocs != 0 {
		t.Fatalf("sampled probe allocated %.1f times per classify", allocs)
	}
}
