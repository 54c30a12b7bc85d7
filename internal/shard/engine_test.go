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

// TestShardedDifferential is the bit-exactness property test of the
// subsystem: for every index kind, every norm, every shard count in
// {1, 2, 4, 8}, and a relation seeded with halo-straddling duplicates, the
// sharded Detect and Save must equal the single-node core results exactly —
// same inlier/outlier split, same neighbor counts, same adjustments
// (tuples, costs, masks, flags, even the per-save search counters, since
// the shared saver is the identical deterministic computation), same
// repaired relation. Run under -race by the chaos target.
func TestShardedDifferential(t *testing.T) {
	kinds := []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindVP}
	norms := []metric.Norm{metric.L1, metric.L2, metric.LInf}
	cons := core.Constraints{Eps: 1.0, Eta: 4}
	opts := core.Options{Kappa: 2}

	for _, norm := range norms {
		rel := clusteredRelation(300, 3, 53)
		rel.Schema.Norm = norm
		single, err := core.SaveAllContext(context.Background(), rel, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Detection.Outliers) == 0 || len(single.Detection.Inliers) == 0 {
			t.Fatalf("norm %v: degenerate split (%d inliers, %d outliers) proves nothing",
				norm, len(single.Detection.Inliers), len(single.Detection.Outliers))
		}
		if single.Saved == 0 {
			t.Fatalf("norm %v: no outlier saved, the save leg is untested", norm)
		}
		for _, kind := range kinds {
			for _, s := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%v/%v/S=%d", norm, kind, s), func(t *testing.T) {
					eng, err := New(rel, cons, Options{Shards: s, Kind: kind, Save: opts})
					if err != nil {
						t.Fatal(err)
					}
					det, stats, err := eng.Detect(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if len(stats) != s {
						t.Fatalf("got %d shard stats, want %d", len(stats), s)
					}
					if !reflect.DeepEqual(det.Counts, single.Detection.Counts) {
						t.Fatal("sharded neighbor counts diverge from single-node counts")
					}
					if !reflect.DeepEqual(det.Inliers, single.Detection.Inliers) ||
						!reflect.DeepEqual(det.Outliers, single.Detection.Outliers) {
						t.Fatal("sharded detection split diverges from single-node split")
					}

					res, sstats, err := eng.Save(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if res.Failed() != 0 {
						t.Fatalf("unexpected save errors: %v", res.Errs)
					}
					if !reflect.DeepEqual(res.Adjustments, single.Adjustments) {
						for k := range res.Adjustments {
							if !reflect.DeepEqual(res.Adjustments[k], single.Adjustments[k]) {
								t.Fatalf("adjustment %d diverges:\nsharded: %+v\nsingle:  %+v",
									k, res.Adjustments[k], single.Adjustments[k])
							}
						}
						t.Fatal("adjustments diverge")
					}
					if !reflect.DeepEqual(res.Repaired.Tuples, single.Repaired.Tuples) {
						t.Fatal("repaired relations diverge")
					}
					if res.Saved != single.Saved || res.Natural != single.Natural ||
						res.Exhausted != single.Exhausted {
						t.Fatalf("accounting diverges: sharded %d/%d/%d, single %d/%d/%d",
							res.Saved, res.Natural, res.Exhausted,
							single.Saved, single.Natural, single.Exhausted)
					}
					// The owned outlier counts reconcile with the split.
					tot := 0
					for _, st := range sstats {
						tot += st.Outliers
					}
					if tot != len(det.Outliers) {
						t.Fatalf("shards report %d outliers, detection found %d", tot, len(det.Outliers))
					}
				})
			}
		}
	}
}

// TestShardedEdgeCases pins the degenerate paths against the single-node
// behavior: no outliers at all, and no inliers at all.
func TestShardedEdgeCases(t *testing.T) {
	cons := core.Constraints{Eps: 1.0, Eta: 2}

	t.Run("no-outliers", func(t *testing.T) {
		r := data.NewRelation(data.NewNumericSchema("x", "y"))
		for i := 0; i < 40; i++ {
			r.Append(data.Tuple{data.Num(float64(i%5) * 0.1), data.Num(float64(i/5) * 0.1)})
		}
		single, err := core.SaveAllContext(context.Background(), r, cons, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Detection.Outliers) != 0 {
			t.Fatalf("setup: expected no outliers, got %d", len(single.Detection.Outliers))
		}
		eng, err := New(r, cons, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := eng.Save(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Adjustments) != 0 || res.Saved != 0 || res.Failed() != 0 {
			t.Fatalf("no-outlier save produced %+v", res)
		}
	})

	t.Run("no-inliers", func(t *testing.T) {
		r := data.NewRelation(data.NewNumericSchema("x", "y"))
		for i := 0; i < 12; i++ {
			// Every point isolated: no tuple has any ε-neighbor.
			r.Append(data.Tuple{data.Num(float64(i) * 100), data.Num(float64(i) * -70)})
		}
		single, err := core.SaveAllContext(context.Background(), r, cons, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Detection.Inliers) != 0 {
			t.Fatalf("setup: expected no inliers, got %d", len(single.Detection.Inliers))
		}
		eng, err := New(r, cons, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := eng.Save(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Adjustments, single.Adjustments) {
			t.Fatalf("natural-only adjustments diverge:\nsharded: %+v\nsingle:  %+v",
				res.Adjustments, single.Adjustments)
		}
		if res.Natural != single.Natural || res.Saved != 0 {
			t.Fatalf("accounting diverges: %+v vs %+v", res, single)
		}
	})
}
