package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// TestShardedApproxDifferential checks the sharded approximate pass keeps
// the package's bit-exactness invariant on the split: each shard samples
// its own owned+halo relation, but the ε-halo makes every shard-local
// neighbor count equal the global one, so the per-shard certificates stay
// sound and — with refinement on and η below the certification
// threshold — the merged inlier/outlier split equals the single-node
// exact split for every index kind and shard count, and so do the counts:
// every producer stores min(count, η).
func TestShardedApproxDifferential(t *testing.T) {
	rel, err := data.GenLattice(data.LatticeSpec{Side: 5, PerCell: 16, Dims: 3, Noise: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{Eps: 1, Eta: 8}
	ap := core.ApproxOptions{Confidence: 0.999, MinN: 256, SampleRate: 0.5, Seed: 1}

	for _, norm := range []metric.Norm{metric.L2, metric.L1} {
		rel.Schema.Norm = norm
		exact, err := core.DetectContext(context.Background(), rel, cons, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindVP} {
			for _, s := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%v/%v/S=%d", norm, kind, s), func(t *testing.T) {
					eng, err := New(rel, cons, Options{Shards: s, Kind: kind, Approx: ap})
					if err != nil {
						t.Fatal(err)
					}
					det, stats, err := eng.Detect(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(det.Inliers, exact.Inliers) ||
						!reflect.DeepEqual(det.Outliers, exact.Outliers) {
						t.Fatalf("sharded approximate split diverges from exact (%d/%d vs %d/%d in/out)",
							len(det.Inliers), len(det.Outliers), len(exact.Inliers), len(exact.Outliers))
					}
					if !reflect.DeepEqual(det.Counts, exact.Counts) {
						t.Fatal("sharded approximate counts break min(count, η)")
					}
					// Every owned tuple is classified exactly once, and the
					// merged stats carry the per-shard approx counters.
					merged := MergeShardStats(stats)
					if got := merged.ApproxSampled + merged.ApproxRefined; got != int64(rel.N()) {
						t.Fatalf("shards classified %d tuples approximately, want n = %d", got, rel.N())
					}
					if merged.ApproxSampled == 0 {
						t.Fatal("no shard certified any tuple from its sample")
					}
				})
			}
		}
	}
}

// TestShardedApproxSmallShardFallback checks shards below the MinN floor
// quietly fall back to exact counting (zero approx counters) while the
// split stays right.
func TestShardedApproxSmallShardFallback(t *testing.T) {
	rel := clusteredRelation(300, 3, 53)
	cons := core.Constraints{Eps: 1, Eta: 4}
	exact, err := core.DetectContext(context.Background(), rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	// MinN above any shard's relation: every shard takes the exact branch.
	ap := core.ApproxOptions{Confidence: 0.999, MinN: 4096, Seed: 1}
	eng, err := New(rel, cons, Options{Shards: 4, Approx: ap})
	if err != nil {
		t.Fatal(err)
	}
	det, stats, err := eng.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(det.Counts, exact.Counts) {
		t.Fatal("exact-fallback shards should reproduce the exact counts bit-for-bit")
	}
	merged := MergeShardStats(stats)
	if merged.ApproxSampled != 0 || merged.ApproxRefined != 0 {
		t.Fatalf("exact fallback reported approx counters (%d sampled, %d refined)",
			merged.ApproxSampled, merged.ApproxRefined)
	}
}
