package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// denseRelation6D builds a random 6-attribute cluster inside the unit cube:
// enough attributes that Algorithm 1 has a real (2^6-mask) search tree to
// budget, enough density that every position is feasible.
func denseRelation6D(n int, seed int64) *data.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := data.NewRelation(data.NewNumericSchema("a", "b", "c", "d", "e", "f"))
	for i := 0; i < n; i++ {
		t := make(data.Tuple, 6)
		for a := range t {
			t[a] = data.Num(rng.Float64())
		}
		r.Append(t)
	}
	return r
}

func far6D() data.Tuple {
	t := make(data.Tuple, 6)
	for a := range t {
		t[a] = data.Num(3)
	}
	return t
}

// TestSaveMaxNodesReturnsFeasibleExhausted is the budget acceptance test:
// a tripped MaxNodes budget must still return a feasible adjustment, cost
// no worse than the Lemma 4 initial bound, flagged Exhausted, within the
// node cap.
func TestSaveMaxNodesReturnsFeasibleExhausted(t *testing.T) {
	r := denseRelation6D(150, 7)
	cons := Constraints{Eps: 1.4, Eta: 4}
	// Corrupt half the attributes: the masks keeping clean attributes form a
	// real search tree (2^3 subsets and their children) for the budget to cut.
	outlier := centered6D()
	outlier[0], outlier[1], outlier[2] = data.Num(3), data.Num(4), data.Num(5)

	free, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unbounded := free.SaveOne(context.Background(), outlier)
	if !unbounded.Saved() || unbounded.Exhausted {
		t.Fatalf("unbounded save: saved=%v exhausted=%v", unbounded.Saved(), unbounded.Exhausted)
	}
	const nodeCap = 5
	if unbounded.Nodes <= nodeCap {
		t.Fatalf("search too small to exercise the budget: %d nodes", unbounded.Nodes)
	}

	capped, err := NewSaverContext(context.Background(), r, cons, Options{MaxNodes: nodeCap})
	if err != nil {
		t.Fatal(err)
	}
	adj := capped.SaveOne(context.Background(), outlier)
	if !adj.Exhausted {
		t.Fatal("MaxNodes trip not flagged Exhausted")
	}
	if adj.Nodes > nodeCap {
		t.Errorf("expanded %d nodes, budget was %d", adj.Nodes, nodeCap)
	}
	if !adj.Saved() {
		t.Fatal("budgeted save lost the Lemma 4 initial answer")
	}
	// Feasibility: the degraded adjustment still satisfies the constraints.
	idx := neighbors.NewBrute(r)
	if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
		t.Errorf("degraded adjustment has %d ε-neighbors, want ≥ %d", got, cons.Eta)
	}
	// No worse than the Lemma 4 initial bound, no better than the full
	// search's optimum.
	ar := new(saveArena)
	ar.bind(capped)
	if _, initCost := capped.initialBound(ar, outlier); adj.Cost > initCost+1e-9 {
		t.Errorf("degraded cost %v exceeds the Lemma 4 bound %v", adj.Cost, initCost)
	}
	if adj.Cost < unbounded.Cost-1e-9 {
		t.Errorf("degraded cost %v beats the completed search %v", adj.Cost, unbounded.Cost)
	}
}

func TestSaveContextCancelledDegrades(t *testing.T) {
	r := denseRelation6D(150, 11)
	cons := Constraints{Eps: 1.4, Eta: 4}
	s, err := NewSaverContext(context.Background(), r, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	adj := s.SaveOne(ctx, far6D())
	if !adj.Exhausted {
		t.Fatal("cancelled context not flagged Exhausted")
	}
	if adj.Nodes > 1 {
		t.Errorf("expanded %d nodes under a cancelled context", adj.Nodes)
	}
	if adj.Saved() {
		idx := neighbors.NewBrute(r)
		if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
			t.Errorf("degraded adjustment has %d ε-neighbors, want ≥ %d", got, cons.Eta)
		}
	}
	// An untripped save of the same tuple is not marked Exhausted.
	if again := s.SaveOne(context.Background(), far6D()); again.Exhausted {
		t.Error("background save marked Exhausted")
	}
}

func TestSaveDeadlineTrips(t *testing.T) {
	r := denseRelation6D(150, 19)
	s, err := NewSaverContext(context.Background(), r, Constraints{Eps: 1.4, Eta: 4}, Options{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	adj := s.SaveOne(context.Background(), far6D())
	if !adj.Exhausted {
		t.Fatal("1ns deadline did not trip")
	}
}

func TestSaveKappaRestrictedBudget(t *testing.T) {
	// The κ-restricted start-mask enumeration must also honor the budget.
	r := denseRelation6D(150, 23)
	cons := Constraints{Eps: 1.4, Eta: 4}
	free, err := NewSaverContext(context.Background(), r, cons, Options{Kappa: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := far6D()
	o[0] = data.Num(0.5) // partially corrupted so a κ-repair can exist
	o[1] = data.Num(0.5)
	o[2] = data.Num(0.5)
	unbounded := free.SaveOne(context.Background(), o)
	if unbounded.Nodes <= 2 {
		t.Skipf("κ search too small to budget: %d nodes", unbounded.Nodes)
	}
	capped, err := NewSaverContext(context.Background(), r, cons, Options{Kappa: 3, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	adj := capped.SaveOne(context.Background(), o)
	if !adj.Exhausted {
		t.Fatal("κ-restricted MaxNodes trip not flagged Exhausted")
	}
	if adj.Nodes > 2 {
		t.Errorf("expanded %d nodes, budget was 2", adj.Nodes)
	}
}

func TestExactSaverBudget(t *testing.T) {
	r := clusterRelation(0, 0, 3)
	cons := Constraints{Eps: 1.5, Eta: 3}
	e, err := NewExactSaver(r, cons, 8)
	if err != nil {
		t.Fatal(err)
	}
	outlier := data.Tuple{data.Num(10), data.Num(0.25)}
	full := e.SaveOne(context.Background(), outlier)
	if !full.Saved() || full.Exhausted {
		t.Fatalf("unbounded exact save: saved=%v exhausted=%v", full.Saved(), full.Exhausted)
	}

	e.MaxNodes = 2
	adj := e.SaveOne(context.Background(), outlier)
	if !adj.Exhausted {
		t.Fatal("exact MaxNodes trip not flagged Exhausted")
	}
	if adj.Saved() {
		idx := neighbors.NewBrute(r)
		if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
			t.Errorf("degraded exact adjustment has %d ε-neighbors, want ≥ %d", got, cons.Eta)
		}
	}

	e.MaxNodes = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if adj := e.SaveOne(ctx, outlier); !adj.Exhausted {
		t.Fatal("cancelled exact save not flagged Exhausted")
	}
}

func TestDetectContextCancelled(t *testing.T) {
	r := denseRelation6D(64, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DetectContext(ctx, r, Constraints{Eps: 1.4, Eta: 4}, nil); err == nil {
		t.Fatal("cancelled DetectContext returned no error")
	}
}

// cancelAfter is an index that cancels its pass's context once it has
// answered k queries, so a test can stop a pass midway through.
type cancelAfter struct {
	neighbors.Index
	k       int64
	queries atomic.Int64
	cancel  context.CancelFunc
}

func (c *cancelAfter) tick() {
	if c.queries.Add(1) == c.k {
		c.cancel()
	}
}

func (c *cancelAfter) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	c.tick()
	return c.Index.CountWithin(q, eps, skip, cap)
}

func (c *cancelAfter) KNN(q data.Tuple, k, skip int) []neighbors.Neighbor {
	c.tick()
	return c.Index.KNN(q, k, skip)
}

// TestCancelMidPass cancels the detection pass after ten queries. The
// worker pool's per-item context check is its only cancellation point, so
// the pass must return the cancellation and stop well before it has
// queried every row. NewSaverContext has no pass left to cancel: it
// issues no query at all, and its one use of ctx is to refuse an already
// cancelled one.
func TestCancelMidPass(t *testing.T) {
	r := denseRelation6D(400, 7)
	cons := Constraints{Eps: 1.4, Eta: 4}
	t.Run("DetectContext", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		idx := &cancelAfter{Index: neighbors.NewBrute(r), k: 10, cancel: cancel}
		if _, err := DetectContext(ctx, r, cons, idx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if q := idx.queries.Load(); q >= int64(r.N()) {
			t.Fatalf("%d queries over %d rows: the pass ran to the end", q, r.N())
		}
	})
	t.Run("NewSaverContext", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		idx := &cancelAfter{Index: neighbors.NewBrute(r), k: 1, cancel: cancel}
		s, err := NewSaverContext(ctx, r, cons, Options{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		if q := idx.queries.Load(); q != 0 {
			t.Fatalf("NewSaverContext issued %d queries, want none", q)
		}
		if st, _, eta := s.SetupStats(); st != (obs.SearchStats{}) || eta != 0 {
			t.Fatalf("SetupStats = %+v, η-radius %v; want zero", st, eta)
		}
		cancel()
		if _, err := NewSaverContext(ctx, r, cons, Options{Index: idx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
		}
	})
}

func TestDeterminePoissonContextCancelled(t *testing.T) {
	r := denseRelation6D(200, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DeterminePoissonContext(ctx, r, ParamOptions{Seed: 1}); err == nil {
		t.Fatal("cancelled DeterminePoissonContext returned no error")
	}
	// A live context still determines parameters (and is not Exhausted).
	choice, err := DeterminePoissonContext(context.Background(), r, ParamOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Exhausted {
		t.Error("uncancelled determination flagged Exhausted")
	}
}
