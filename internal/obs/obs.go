// Package obs is the observability substrate of the DISC pipeline: search
// counters that quantify why Algorithm 1 is fast (how much of the O(2^m)
// mask lattice the Lemma 2 / Proposition 3 lower bound pruned, how often
// the memo deduplicated a mask, how hard the κ restriction cut the start
// set), phase timings for the SaveAllContext pipeline, a rate-bounded
// progress reporter for long batches, and nil-safe structured-logging
// helpers.
//
// The counters are plain int64 fields updated without synchronization: the
// hot path (one Algorithm 1 search) owns its SearchStats exclusively — one
// shard per worker arena — and shards are merged with Add only at
// aggregation points after the fan-out joins. No atomics, no allocation.
//
// See docs/OBSERVABILITY.md for the mapping from each counter to the
// paper's lemmas and for the -stats-json schema of the CLIs.
package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// SearchStats counts the work of one or more Algorithm 1 searches plus the
// neighbor-index traffic that fed them. A single save fills one instance
// (Adjustment.Stats); SaveAllContext merges the per-outlier instances
// together with the detection pass and the η-radius precompute into
// SaveResult.Stats.
type SearchStats struct {
	// Nodes is the number of recursion nodes expanded — the unit the
	// O(m^{κ+1}·n) analysis of §3.3 counts. A node is one unadjusted set X
	// whose candidate list was actually processed; masks that were visited
	// but pruned before their candidate scan are counted by the prune
	// counters below, not here, so disabling a prune visibly raises Nodes.
	Nodes int64 `json:"nodes"`
	// LBPrunes counts lattice visits cut by the Proposition 3 lower bound
	// (Δ(t_o, t_1) − ε with t_1 the η-th nearest candidate): the visit paid
	// one η-selection but neither the mask nor its subtree was expanded.
	LBPrunes int64 `json:"lb_prunes"`
	// CandPrunes counts lattice visits cut because fewer than η candidates
	// survived on X — no feasible adjustment can keep t_o[X] (children's
	// candidate sets only shrink), so the mask was not expanded.
	CandPrunes int64 `json:"cand_prunes"`
	// MemoHits counts masks skipped because an identical X had already
	// been processed (the visited-set deduplication).
	MemoHits int64 `json:"memo_hits"`
	// UBWitnesses counts the Proposition 5 upper-bound witnesses examined:
	// candidates t_2 with δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]), each yielding a
	// feasible composite answer.
	UBWitnesses int64 `json:"ub_witnesses"`
	// BestUpdates counts how many witnesses actually improved the
	// best-so-far cost.
	BestUpdates int64 `json:"best_updates"`
	// KappaMasks counts the start masks |X| = m−κ the §3.3 restriction
	// enumerated (C(m, κ) minus budget cut-offs); zero for unrestricted
	// searches.
	KappaMasks int64 `json:"kappa_masks"`
	// KappaPrefiltered counts the live inliers the κ screen dropped before
	// any mask was searched: even their best aggregate over any |X| = m−κ
	// exceeds ε, so no start mask admits them. Counted under every norm,
	// L∞ included.
	KappaPrefiltered int64 `json:"kappa_prefiltered"`
	// BudgetTrips counts searches cut short by MaxNodes, Deadline or
	// context cancellation (0 or 1 per save; summed across a batch).
	BudgetTrips int64 `json:"budget_trips"`
	// Candidates counts the inliers read into the compact candidate
	// table(s): the Lemma 4 truncation ball on the unrestricted path, or
	// the inliers the κ screen read on the κ path — the union of the
	// attribute-group range hits (Candidates − KappaPrefiltered of them
	// survive into the tables).
	Candidates int64 `json:"candidates"`
	// KNNQueries and RangeQueries count neighbor-index queries (k-NN, and
	// Within/CountWithin respectively); DistEvals counts the tuple-pair
	// distance evaluations the index performed to answer them, the common
	// currency that makes Brute/Grid/VPTree comparable.
	KNNQueries   int64 `json:"knn_queries"`
	RangeQueries int64 `json:"range_queries"`
	DistEvals    int64 `json:"dist_evals"`
	// GridFallbacks counts grid queries degraded to a brute scan because
	// the requested radius spanned more cells than a scan costs.
	GridFallbacks int64 `json:"grid_fallbacks"`
	// DistEarlyExits, TextCacheHits and TextCacheMisses refine DistEvals
	// with the compiled kernel's view of how much each evaluation actually
	// cost: pairs abandoned by the ε early exit before their last
	// attribute, text metric evaluations answered from the pair cache or
	// query memo, and text metric evaluations actually computed.
	DistEarlyExits  int64 `json:"dist_early_exits"`
	TextCacheHits   int64 `json:"text_cache_hits"`
	TextCacheMisses int64 `json:"text_cache_misses"`
}

// Add folds o into s field by field. Shards merged this way must no longer
// be written concurrently.
func (s *SearchStats) Add(o *SearchStats) {
	s.Nodes += o.Nodes
	s.LBPrunes += o.LBPrunes
	s.CandPrunes += o.CandPrunes
	s.MemoHits += o.MemoHits
	s.UBWitnesses += o.UBWitnesses
	s.BestUpdates += o.BestUpdates
	s.KappaMasks += o.KappaMasks
	s.KappaPrefiltered += o.KappaPrefiltered
	s.BudgetTrips += o.BudgetTrips
	s.Candidates += o.Candidates
	s.KNNQueries += o.KNNQueries
	s.RangeQueries += o.RangeQueries
	s.DistEvals += o.DistEvals
	s.GridFallbacks += o.GridFallbacks
	s.DistEarlyExits += o.DistEarlyExits
	s.TextCacheHits += o.TextCacheHits
	s.TextCacheMisses += o.TextCacheMisses
}

// String renders the counters in the order a pruning-power reading wants:
// how many nodes ran, what cut the rest.
func (s *SearchStats) String() string {
	return fmt.Sprintf(
		"nodes=%d lb_prunes=%d cand_prunes=%d memo_hits=%d ub_witnesses=%d best_updates=%d "+
			"kappa_masks=%d kappa_prefiltered=%d budget_trips=%d candidates=%d "+
			"knn_queries=%d range_queries=%d dist_evals=%d grid_fallbacks=%d "+
			"dist_early_exits=%d text_cache_hits=%d text_cache_misses=%d",
		s.Nodes, s.LBPrunes, s.CandPrunes, s.MemoHits, s.UBWitnesses, s.BestUpdates,
		s.KappaMasks, s.KappaPrefiltered, s.BudgetTrips, s.Candidates,
		s.KNNQueries, s.RangeQueries, s.DistEvals, s.GridFallbacks,
		s.DistEarlyExits, s.TextCacheHits, s.TextCacheMisses)
}

// PhaseTimings breaks a SaveAllContext run into its pipeline phases. Phases not
// run (e.g. no outliers → no save fan-out) stay zero.
type PhaseTimings struct {
	// Validate is the NaN/±Inf value scan over the input relation.
	Validate time.Duration
	// Detect covers the ε-neighbor counting pass and its index build.
	Detect time.Duration
	// DetectIndexBuild is the portion of Detect spent building the
	// detection index; zero when the caller supplied one via Options.Index,
	// making index reuse across phases visible in the timing record.
	DetectIndexBuild time.Duration
	// IndexBuild is the construction of the inlier index the saves query.
	IndexBuild time.Duration
	// EtaRadius is the δ_η precompute over the inliers (Proposition 5's
	// feasibility table).
	EtaRadius time.Duration
	// Save is the per-outlier save fan-out.
	Save time.Duration
	// Total is the whole pipeline, ≥ the sum of the phases.
	Total time.Duration
}

// MarshalJSON emits the phases as seconds (floats), the unit every table
// of the paper reports, rather than opaque nanosecond integers.
func (t PhaseTimings) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]float64{
		"validate_s":           t.Validate.Seconds(),
		"detect_s":             t.Detect.Seconds(),
		"detect_index_build_s": t.DetectIndexBuild.Seconds(),
		"index_build_s":        t.IndexBuild.Seconds(),
		"eta_radius_s":         t.EtaRadius.Seconds(),
		"save_s":               t.Save.Seconds(),
		"total_s":              t.Total.Seconds(),
	})
}
