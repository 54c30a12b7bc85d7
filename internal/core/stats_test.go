package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// statsRelation builds a tight cluster over m attributes; with a huge ε the
// search sees no pruning at all, so its counters are exactly predictable.
func statsRelation(n, m int, seed int64) *data.Relation {
	names := make([]string, m)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	r := data.NewRelation(data.NewNumericSchema(names...))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t := make(data.Tuple, m)
		for a := range t {
			t[a] = data.Num(rng.Float64())
		}
		r.Append(t)
	}
	return r
}

// centered6D is a cluster-center tuple for denseRelation6D. Corrupting one
// or two of its attributes plants an outlier that Algorithm 1 can actually
// search over: the masks keeping the clean attributes have candidates, so
// nodes are expanded. (A tuple corrupted in *every* attribute, like far6D,
// degenerates: all proper subspaces are empty, only the root expands.)
func centered6D() data.Tuple {
	t := make(data.Tuple, 6)
	for a := range t {
		t[a] = data.Num(0.5)
	}
	return t
}

// TestSearchCountersExact pins the counter semantics on a workload where
// the whole mask lattice is expanded: ε so large that the Proposition 3
// lower bound (η-th distance − ε < 0) can never reach bestCost ≥ 0 and no
// candidate ever falls outside ε. Then the unrestricted search must expand
// every mask exactly once — Nodes = 2^m — and every further lattice edge
// into an already-visited mask is a memo hit: the lattice has m·2^(m−1)
// edges, 2^m − 1 of which are first entries, so
// MemoHits = m·2^(m−1) − 2^m + 1.
func TestSearchCountersExact(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		m := m
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			r := statsRelation(40, m, 7)
			cons := Constraints{Eps: 1000, Eta: 3}
			s, err := NewSaverContext(context.Background(), r, cons, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			to := make(data.Tuple, m)
			for a := range to {
				to[a] = data.Num(50) // far outside the cluster
			}
			adj := s.SaveOne(context.Background(), to)

			wantNodes := int64(1) << m
			wantHits := int64(m)*(1<<(m-1)) - (1 << m) + 1
			st := adj.Stats
			if st.Nodes != wantNodes {
				t.Errorf("Nodes = %d, want 2^%d = %d", st.Nodes, m, wantNodes)
			}
			if int64(adj.Nodes) != st.Nodes {
				t.Errorf("Adjustment.Nodes %d disagrees with Stats.Nodes %d", adj.Nodes, st.Nodes)
			}
			if st.MemoHits != wantHits {
				t.Errorf("MemoHits = %d, want m·2^(m−1) − 2^m + 1 = %d", st.MemoHits, wantHits)
			}
			if st.LBPrunes != 0 || st.CandPrunes != 0 {
				t.Errorf("huge-ε search must not prune, got lb=%d cand=%d", st.LBPrunes, st.CandPrunes)
			}
			if st.BudgetTrips != 0 {
				t.Errorf("unbudgeted search tripped %d budgets", st.BudgetTrips)
			}
			if st.Candidates != int64(r.N()) {
				t.Errorf("Candidates = %d, want all %d inliers under a huge ε", st.Candidates, r.N())
			}
			if st.KappaMasks != 0 || st.KappaPrefiltered != 0 {
				t.Errorf("unrestricted search counted κ work: masks=%d prefiltered=%d",
					st.KappaMasks, st.KappaPrefiltered)
			}
			if st.UBWitnesses == 0 || st.BestUpdates == 0 {
				t.Errorf("feasible search saw no witnesses/updates: %+v", st)
			}
			if st.KNNQueries == 0 {
				t.Error("Lemma 4 initial bound performed no k-NN query")
			}
			if st.RangeQueries == 0 || st.DistEvals == 0 {
				t.Errorf("no index traffic recorded: %+v", st)
			}
			if !adj.Saved() {
				t.Error("huge-ε save found no adjustment")
			}
		})
	}
}

// TestCounterAblations checks the ablation directions the counters must
// make visible: disabling the lower bound expands strictly more nodes and
// records zero LBPrunes; disabling the memo records zero MemoHits and
// re-expands shared masks.
//
// The workload is built so the Proposition 3 bound provably fires. The
// outlier is a cluster member with attribute 5 shifted by +3 (repair cost ≈
// 3 − max cluster value ≈ 2.0, found while exploring the masks without
// attribute 5, which come first). A decoy clique of 6 points matches the
// corrupted value exactly but sits at full distance 3.5: at X = {5} the
// cluster is filtered (> ε on attribute 5) and only decoys remain, so the
// η-th candidate distance gives the lower bound 3.5 − ε = 2.3 > bestCost —
// the whole 2^4-mask subtree over {1,2,3,4} is pruned. Without the bound
// those masks all expand (the decoys stay within ε on them).
func TestCounterAblations(t *testing.T) {
	r := denseRelation6D(200, 3)
	cons := Constraints{Eps: 1.2, Eta: 4}
	outlier := r.Tuples[0].Clone()
	outlier[5] = data.Num(outlier[5].Num + 3)
	for i := 0; i < 6; i++ {
		decoy := outlier.Clone()
		decoy[0] = data.Num(decoy[0].Num + 3.5 + float64(i)*0.001)
		r.Append(decoy)
	}
	save := func(opts Options) obs.SearchStats {
		s, err := NewSaverContext(context.Background(), r, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s.SaveOne(context.Background(), outlier).Stats
	}
	base := save(Options{Workers: 1})
	noPrune := save(Options{Workers: 1, DisablePruning: true})
	noMemo := save(Options{Workers: 1, DisableMemo: true})

	if base.LBPrunes == 0 {
		t.Fatalf("baseline never pruned — workload too easy to test the ablation: %+v", base)
	}
	if noPrune.LBPrunes != 0 {
		t.Errorf("DisablePruning still counted %d LB prunes", noPrune.LBPrunes)
	}
	if noPrune.Nodes <= base.Nodes {
		t.Errorf("DisablePruning expanded %d nodes, baseline %d — pruning saved nothing?",
			noPrune.Nodes, base.Nodes)
	}
	if noMemo.MemoHits != 0 {
		t.Errorf("DisableMemo still counted %d memo hits", noMemo.MemoHits)
	}
	if noMemo.Nodes < base.Nodes {
		t.Errorf("DisableMemo expanded %d nodes, baseline %d — memo cannot reduce below the lattice",
			noMemo.Nodes, base.Nodes)
	}
}

// TestKappaCounters checks the §3.3 restriction's counters: a κ-restricted
// search enumerates C(m, κ) start masks (minus budget cut-offs; none here).
func TestKappaCounters(t *testing.T) {
	r := denseRelation6D(200, 5)
	s, err := NewSaverContext(context.Background(), r, Constraints{Eps: 1.2, Eta: 4}, Options{Kappa: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.SaveOne(context.Background(), far6D()).Stats
	if want := int64(15); st.KappaMasks != want { // C(6,2)
		t.Errorf("KappaMasks = %d, want C(6,2) = %d", st.KappaMasks, want)
	}
}

// TestSaveAllMergesStats runs the full pipeline and checks SaveResult.Stats
// is the sum of its parts, the phase timings are populated, and the
// progress/logging hooks fire.
func TestSaveAllMergesStats(t *testing.T) {
	r := denseRelation6D(220, 17)
	// A few planted outliers, corrupted in one attribute and spaced > ε
	// apart on it so they cannot form their own cluster.
	for i := 0; i < 5; i++ {
		t := centered6D()
		t[0] = data.Num(3 + float64(i)*2)
		r.Append(t)
	}
	var mu sync.Mutex
	var snaps []obs.Progress
	var logBuf bytes.Buffer
	res, err := SaveAllContext(context.Background(), r, Constraints{Eps: 1.2, Eta: 4}, Options{
		Kappa:            2,
		Progress:         func(p obs.Progress) { mu.Lock(); snaps = append(snaps, p); mu.Unlock() },
		ProgressInterval: time.Nanosecond, // deliver every report
		Logger:           slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detection.Outliers) == 0 {
		t.Fatal("workload produced no outliers")
	}

	// Stats: batch total = detection + saver setup + Σ per-outlier.
	var fromAdjustments int64
	for _, adj := range res.Adjustments {
		fromAdjustments += adj.Stats.Nodes
		if int64(adj.Nodes) != adj.Stats.Nodes {
			t.Errorf("outlier %d: Nodes field %d != Stats.Nodes %d", adj.Index, adj.Nodes, adj.Stats.Nodes)
		}
	}
	if res.Stats.Nodes != fromAdjustments {
		t.Errorf("batch Nodes %d != Σ per-outlier %d (detection/setup expand no nodes)",
			res.Stats.Nodes, fromAdjustments)
	}
	if res.Stats.Nodes == 0 {
		t.Error("batch expanded zero nodes")
	}
	// Detection issues one range query per tuple; the batch total must
	// include them on top of the per-save traffic.
	if res.Stats.RangeQueries < int64(r.N()) {
		t.Errorf("RangeQueries = %d < n = %d: detection pass not merged", res.Stats.RangeQueries, r.N())
	}
	if res.Detection.Stats.Nodes != 0 {
		t.Errorf("detection claims %d search nodes", res.Detection.Stats.Nodes)
	}

	// Timings.
	if res.Timings.Total <= 0 || res.Timings.Detect <= 0 || res.Timings.Save <= 0 {
		t.Errorf("phase timings not populated: %+v", res.Timings)
	}
	if res.Timings.Total < res.Timings.Save {
		t.Errorf("Total %v < Save %v", res.Timings.Total, res.Timings.Save)
	}

	// Progress: every outlier reported (interval ~0), final snapshot sealed.
	if len(snaps) == 0 {
		t.Fatal("no progress delivered")
	}
	final := snaps[len(snaps)-1]
	nOut := len(res.Detection.Outliers)
	if final.Done != nOut || final.Total != nOut {
		t.Errorf("final progress %d/%d, want %d/%d", final.Done, final.Total, nOut, nOut)
	}
	if final.Saved != res.Saved || final.Natural != res.Natural {
		t.Errorf("final progress split (%d saved, %d natural) disagrees with result (%d, %d)",
			final.Saved, final.Natural, res.Saved, res.Natural)
	}

	// Logs: the phase events came through.
	logs := logBuf.String()
	for _, want := range []string{"detection done", "saver ready", "batch done"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log output missing %q:\n%s", want, logs)
		}
	}
}

// TestSaveAllStatsUnderPanics exercises the sharded counters with parallel
// workers, a progress callback, a logger, and a panicking save — the -race
// configuration of the suite turns any cross-shard write into a failure.
func TestSaveAllStatsUnderPanics(t *testing.T) {
	r := denseRelation6D(220, 23)
	for i := 0; i < 8; i++ {
		tp := centered6D()
		tp[1] = data.Num(3 + float64(i)*2)
		r.Append(tp)
	}
	saveAllHook = func(k int) {
		if k == 2 {
			panic("injected")
		}
	}
	defer func() { saveAllHook = nil }()

	var logBuf syncBuffer
	res, err := SaveAllContext(context.Background(), r, Constraints{Eps: 1.2, Eta: 4}, Options{
		Kappa:            2,
		Workers:          4,
		Progress:         func(obs.Progress) {},
		ProgressInterval: time.Nanosecond,
		Logger:           slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 1 {
		t.Fatalf("want exactly the injected panic failed, got %d (%v)", res.Failed(), res.Errs)
	}
	var fromAdjustments int64
	for _, adj := range res.Adjustments {
		fromAdjustments += adj.Stats.Nodes
	}
	if res.Stats.Nodes != fromAdjustments || res.Stats.Nodes == 0 {
		t.Errorf("stats merge wrong under panic: batch %d, Σ %d", res.Stats.Nodes, fromAdjustments)
	}
	if !strings.Contains(logBuf.String(), "not processed") {
		t.Error("panicked outlier not logged")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: slog handlers are called from
// every save worker concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestInstrumentationAllocFree proves the tentpole's performance contract:
// with the counters wired in, a warm-arena save still performs no per-node
// allocations (same bound as TestSaveSteadyStateAllocs) — the counting
// index view is cached on the arena and the counters are plain fields.
func TestInstrumentationAllocFree(t *testing.T) {
	for _, tc := range arenaCases {
		t.Run(tc.name, func(t *testing.T) {
			s, to := arenaWorkload(t, tc.kappa, tc.mixed)
			ar := new(saveArena)
			ctx := context.Background()
			adj := s.save(ctx, to, ar) // warm slabs + counting view
			if adj.Stats.Nodes < int64(tc.minNodes) {
				t.Fatalf("workload too small (%d nodes)", adj.Stats.Nodes)
			}
			// The κ path queries only the attribute-group indexes; its
			// screen and start masks are what the counters must see.
			if tc.kappa == 0 && adj.Stats.DistEvals == 0 {
				t.Fatal("instrumentation inactive: no distance evaluations counted")
			}
			if tc.kappa > 0 && (adj.Stats.KappaMasks == 0 || adj.Stats.KappaPrefiltered == 0 ||
				adj.Stats.RangeQueries != int64(tc.kappa+1)) {
				t.Fatalf("instrumentation inactive: κ counters %+v", adj.Stats)
			}
			allocs := testing.AllocsPerRun(20, func() {
				s.save(ctx, to, ar)
			})
			// Same race-mode widening as TestSaveSteadyStateAllocs: the race
			// detector's sync.Pool drops re-admit a few query-bind allocations.
			budget := 16.0
			if raceDetector {
				budget = 64
			}
			if allocs > budget {
				t.Errorf("instrumented steady-state save allocates %.1f per call (budget %.0f) over %d nodes",
					allocs, budget, adj.Stats.Nodes)
			}
		})
	}
}
