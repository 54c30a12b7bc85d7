package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// probeIndex counts the range queries answered by a wrapped index. Unlike
// neighbors.Counting — which a later Counting call unwraps by design — a
// foreign Index implementation stays in the query path, so its counters
// prove a caller-supplied index actually served the traffic. Atomics,
// because detection fans queries out across workers.
type probeIndex struct {
	neighbors.Index
	rangeQueries atomic.Int64
}

func (p *probeIndex) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	p.rangeQueries.Add(1)
	return p.Index.CountWithin(q, eps, skip, cap)
}

// TestSaveAllReusesSuppliedIndex: a caller-supplied Options.Index serves the
// detection pass — every per-tuple count query hits it, and the pipeline
// reports no detection index build of its own — and the whole pipeline
// answers exactly as with Options.Index == nil: the same neighbor counts,
// split, adjustments and repaired relation, for every index kind under
// every norm.
func TestSaveAllReusesSuppliedIndex(t *testing.T) {
	cons := Constraints{Eps: 1.5, Eta: 3}
	kinds := []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindVP}
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		r := clusterRelation(0, 0, 3)
		r.Append(data.Tuple{data.Num(20), data.Num(20)})
		r.Schema.Norm = norm
		want, err := SaveAllContext(context.Background(), r, cons, Options{Kappa: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%v/%v", norm, kind), func(t *testing.T) {
				idx, err := neighbors.NewMutable(r, cons.Eps, kind)
				if err != nil {
					t.Fatal(err)
				}
				probe := &probeIndex{Index: idx}
				res, err := SaveAllContext(context.Background(), r, cons, Options{Kappa: 2, Index: probe, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := probe.rangeQueries.Load(); got < int64(r.N()) {
					t.Errorf("supplied index answered %d range queries, want >= %d (one per tuple): detection did not use it",
						got, r.N())
				}
				if res.Timings.DetectIndexBuild != 0 {
					t.Errorf("detection built its own index (%v) despite Options.Index", res.Timings.DetectIndexBuild)
				}
				if len(res.Adjustments) != 1 || !res.Adjustments[0].Saved() {
					t.Fatalf("outlier not saved with supplied index: %+v", res.Adjustments)
				}
				if !reflect.DeepEqual(res.Detection.Counts, want.Detection.Counts) {
					t.Error("neighbor counts diverge from the Options.Index == nil run")
				}
				if !reflect.DeepEqual(res.Detection.Inliers, want.Detection.Inliers) ||
					!reflect.DeepEqual(res.Detection.Outliers, want.Detection.Outliers) {
					t.Error("inlier/outlier split diverges from the Options.Index == nil run")
				}
				if !reflect.DeepEqual(res.Adjustments, want.Adjustments) {
					t.Errorf("adjustments diverge:\nsupplied: %+v\nauto:     %+v", res.Adjustments, want.Adjustments)
				}
				if !reflect.DeepEqual(res.Repaired.Tuples, want.Repaired.Tuples) {
					t.Error("repaired relation diverges from the Options.Index == nil run")
				}
			})
		}
	}
}

// clusteredRelation builds a noisy clustered numeric relation: points
// around five centers plus uniform noise, and pairs of exact duplicates
// pinned on ε = 1 cell boundaries, so the grid's keying and equal-distance
// ties are exercised.
func clusteredRelation(n, m int, seed int64) *data.Relation {
	names := make([]string, m)
	for a := range names {
		names[a] = string(rune('a' + a))
	}
	r := data.NewRelation(data.NewNumericSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 5)
	for c := range centers {
		centers[c] = make([]float64, m)
		for a := range centers[c] {
			centers[c][a] = rng.Float64()*20 - 10
		}
	}
	for i := 0; i < n; i++ {
		t := make(data.Tuple, m)
		if i%7 == 6 { // uniform noise
			for a := 0; a < m; a++ {
				t[a] = data.Num(rng.Float64()*40 - 20)
			}
		} else {
			ct := centers[i%len(centers)]
			for a := 0; a < m; a++ {
				t[a] = data.Num(ct[a] + rng.NormFloat64()*0.8)
			}
		}
		r.Append(t)
	}
	for k := 0; k < 8; k++ {
		t := make(data.Tuple, m)
		for a := 0; a < m; a++ {
			t[a] = data.Num(float64(k % 4))
		}
		r.Append(t)
		r.Append(t.Clone())
	}
	return r
}

// TestSaveAllDifferential holds the pipeline bit-exact however it is run:
// for every norm, every index kind supplied as Options.Index and every
// worker count W in {1, 2, 4, 8}, SaveAllContext on a noisy relation with
// many outliers equals the single-worker run that picks its own index —
// the same neighbor counts, split, adjustments (down to the per-save
// search counters), repaired relation and accounting.
func TestSaveAllDifferential(t *testing.T) {
	kinds := []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindVP}
	cons := Constraints{Eps: 1.0, Eta: 4}
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		r := clusteredRelation(300, 3, 53)
		r.Schema.Norm = norm
		want, err := SaveAllContext(context.Background(), r, cons, Options{Kappa: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Detection.Outliers) == 0 || len(want.Detection.Inliers) == 0 {
			t.Fatalf("norm %v: degenerate split (%d inliers, %d outliers) proves nothing",
				norm, len(want.Detection.Inliers), len(want.Detection.Outliers))
		}
		if want.Saved == 0 {
			t.Fatalf("norm %v: no outlier saved, the save leg is untested", norm)
		}
		for _, kind := range kinds {
			for _, w := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%v/%v/W=%d", norm, kind, w), func(t *testing.T) {
					idx, err := neighbors.NewMutable(r, cons.Eps, kind)
					if err != nil {
						t.Fatal(err)
					}
					res, err := SaveAllContext(context.Background(), r, cons, Options{Kappa: 2, Index: idx, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if res.Failed() != 0 {
						t.Fatalf("unexpected save errors: %v", res.Errs)
					}
					if !reflect.DeepEqual(res.Detection.Counts, want.Detection.Counts) {
						t.Fatal("neighbor counts diverge from the reference run")
					}
					if !reflect.DeepEqual(res.Detection.Inliers, want.Detection.Inliers) ||
						!reflect.DeepEqual(res.Detection.Outliers, want.Detection.Outliers) {
						t.Fatal("inlier/outlier split diverges from the reference run")
					}
					for k := range res.Adjustments {
						if !reflect.DeepEqual(res.Adjustments[k], want.Adjustments[k]) {
							t.Fatalf("adjustment %d diverges:\ngot:  %+v\nwant: %+v",
								k, res.Adjustments[k], want.Adjustments[k])
						}
					}
					if len(res.Adjustments) != len(want.Adjustments) {
						t.Fatalf("got %d adjustments, want %d", len(res.Adjustments), len(want.Adjustments))
					}
					if !reflect.DeepEqual(res.Repaired.Tuples, want.Repaired.Tuples) {
						t.Fatal("repaired relation diverges from the reference run")
					}
					if res.Saved != want.Saved || res.Natural != want.Natural || res.Exhausted != want.Exhausted {
						t.Fatalf("accounting diverges: got %d/%d/%d, want %d/%d/%d",
							res.Saved, res.Natural, res.Exhausted, want.Saved, want.Natural, want.Exhausted)
					}
				})
			}
		}
	}
}

// TestDetectReportsIndexBuild: without a supplied index, DetectContext
// builds one and reports the build time; with one, the build time is zero.
func TestDetectReportsIndexBuild(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}

	det, err := DetectContext(context.Background(), r, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if det.IndexBuild <= 0 {
		t.Errorf("self-built detection reports IndexBuild = %v, want > 0", det.IndexBuild)
	}

	idx := neighbors.Build(r, cons.Eps)
	det2, err := DetectContext(context.Background(), r, cons, idx)
	if err != nil {
		t.Fatal(err)
	}
	if det2.IndexBuild != 0 {
		t.Errorf("detection with supplied index reports IndexBuild = %v, want 0", det2.IndexBuild)
	}
}
