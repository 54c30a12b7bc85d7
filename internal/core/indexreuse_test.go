package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/data"
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
// reports no detection index build of its own.
func TestSaveAllReusesSuppliedIndex(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	r.Append(data.Tuple{data.Num(20), data.Num(20)})
	cons := Constraints{Eps: 1.5, Eta: 3}

	probe := &probeIndex{Index: neighbors.Build(r, cons.Eps)}
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
