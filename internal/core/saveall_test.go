package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
)

// scatteredOutliers builds a dense 49-point cluster plus k mutually
// distant isolated points, so DetectContext finds exactly k outliers.
func scatteredOutliers(k int) *data.Relation {
	r := clusterRelation(0, 0, 3)
	for i := 0; i < k; i++ {
		// Spiral the outliers apart so none has an ε-neighbor.
		x := 10 + 7*float64(i)
		y := -10 + 11*float64(i%2) - 5*float64(i)
		r.Append(data.Tuple{data.Num(x), data.Num(y)})
	}
	return r
}

// TestSaveAllParallelManyOutliers exercises the worker pool across many
// simultaneous saves; run with -race it is the data-race acceptance test.
func TestSaveAllParallelManyOutliers(t *testing.T) {
	rel := scatteredOutliers(20)
	cons := Constraints{Eps: 1.5, Eta: 3}
	res, err := SaveAllContext(context.Background(), rel, cons, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Detection.Outliers); got != 20 {
		t.Fatalf("detected %d outliers, want 20", got)
	}
	if res.Failed() != 0 {
		t.Fatalf("unexpected save errors: %v", res.Errs)
	}
	if res.Saved+res.Natural != 20 {
		t.Fatalf("saved %d + natural %d != 20", res.Saved, res.Natural)
	}
	if res.Exhausted != 0 {
		t.Errorf("%d saves flagged Exhausted without any budget", res.Exhausted)
	}
}

// TestSaveAllRecoversInjectedPanic injects a panic into one outlier's save
// and requires the batch to survive: the poisoned outlier lands in Errs,
// every other outlier is still saved.
func TestSaveAllRecoversInjectedPanic(t *testing.T) {
	saveAllHook = func(k int) {
		if k == 1 {
			panic("injected save panic")
		}
	}
	defer func() { saveAllHook = nil }()

	rel := scatteredOutliers(6)
	cons := Constraints{Eps: 1.5, Eta: 3}
	res, err := SaveAllContext(context.Background(), rel, cons, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 1 {
		t.Fatalf("Errs = %v, want exactly the poisoned outlier", res.Errs)
	}
	poisoned := res.Detection.Outliers[1]
	if res.Errs[0].Index != poisoned {
		t.Errorf("Errs[0].Index = %d, want outlier %d", res.Errs[0].Index, poisoned)
	}
	if !strings.Contains(res.Errs[0].Err.Error(), "injected save panic") {
		t.Errorf("recovered error %v does not carry the panic value", res.Errs[0].Err)
	}
	if res.Saved+res.Natural != 5 {
		t.Fatalf("saved %d + natural %d != 5 surviving outliers", res.Saved, res.Natural)
	}
	// The poisoned outlier's adjustment slot is inert: not saved, not
	// natural, original value kept in the repaired relation.
	for _, adj := range res.Adjustments {
		if adj.Index != poisoned {
			continue
		}
		if adj.Saved() || adj.Natural {
			t.Errorf("poisoned outlier has adjustment %+v", adj)
		}
		if data.DiffMask(rel.Schema, res.Repaired.Tuples[poisoned], rel.Tuples[poisoned]) != 0 {
			t.Error("poisoned outlier's tuple was modified")
		}
	}
}

// TestSaveAllCancelMidBatchKeepsPartialResults cancels the batch from
// inside the third save: the first two outliers keep their adjustments,
// the in-flight one degrades to a best-so-far Exhausted answer, and the
// rest are recorded in Errs with the cancellation.
func TestSaveAllCancelMidBatchKeepsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saveAllHook = func(k int) {
		if k == 2 {
			cancel()
		}
	}
	defer func() { saveAllHook = nil }()

	rel := scatteredOutliers(6)
	cons := Constraints{Eps: 1.5, Eta: 3}
	res, err := SaveAllContext(ctx, rel, cons, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 3 { // outliers 3, 4, 5 never started
		t.Fatalf("Errs = %v, want the 3 undispatched outliers", res.Errs)
	}
	for _, se := range res.Errs {
		if !errors.Is(se, context.Canceled) {
			t.Errorf("outlier %d recorded %v, want context.Canceled", se.Index, se.Err)
		}
	}
	for k := 0; k < 2; k++ {
		if adj := res.Adjustments[k]; !adj.Saved() && !adj.Natural {
			t.Errorf("outlier %d processed before the cancel was lost: %+v", k, adj)
		}
	}
	if adj := res.Adjustments[2]; !adj.Exhausted {
		t.Errorf("in-flight save not flagged Exhausted: %+v", adj)
	}
	if res.Exhausted == 0 {
		t.Error("SaveResult.Exhausted not accounted")
	}
}

// TestSaveAllBatchTimeout lets the batch budget expire during the first
// save (which the hook stalls past the deadline) and requires a partial,
// accounted result rather than an abort.
func TestSaveAllBatchTimeout(t *testing.T) {
	saveAllHook = func(k int) {
		if k == 0 {
			time.Sleep(500 * time.Millisecond)
		}
	}
	defer func() { saveAllHook = nil }()

	rel := scatteredOutliers(5)
	cons := Constraints{Eps: 1.5, Eta: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := SaveAllContext(ctx, rel, cons, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 4 {
		t.Fatalf("Errs = %v, want the 4 outliers after the stalled one", res.Errs)
	}
	for _, se := range res.Errs {
		if !errors.Is(se, context.DeadlineExceeded) {
			t.Errorf("outlier %d recorded %v, want context.DeadlineExceeded", se.Index, se.Err)
		}
	}
	if adj := res.Adjustments[0]; !adj.Exhausted {
		t.Errorf("stalled save not flagged Exhausted: %+v", adj)
	}
}

func TestSaveAllRejectsNaN(t *testing.T) {
	rel := clusterRelation(0, 0, 3)
	rel.Append(data.Tuple{data.Num(20), data.Num(20)}) // outlier → save path runs
	rel.Append(data.Tuple{data.Num(1), data.Num(math.NaN())})
	if _, err := SaveAllContext(context.Background(), rel, Constraints{Eps: 1.5, Eta: 3}, Options{}); err == nil {
		t.Fatal("SaveAllContext accepted a NaN value")
	}
}
