// Package core implements the paper's contribution: saving outliers by
// minimal value adjustment under DIStance constraints for Clustering (DISC).
//
// A tuple violates the distance constraints (ε, η) when it has fewer than η
// ε-neighbors (Definition 1). Saving it means finding an adjustment t'_o
// with |r_ε(t'_o)| ≥ η minimizing Δ(t_o, t'_o) (Definition 2) — an NP-hard
// problem (Theorem 1). The Saver type implements Algorithm 1: a recursive
// enumeration of unadjusted-attribute sets X with the lower bound of
// Proposition 3 for pruning and the upper bound of Proposition 5 as the
// approximate solution, plus the κ-restricted variant of §3.3 and the
// natural-vs-dirty outlier policy of §1.2. ExactSaver implements the
// O(d^m·n) value-enumeration baseline of §2.3 used in Figures 6–7.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/par"
)

// Constraints are the distance constraints (ε, η) of Definition 1: a tuple
// belongs to a cluster with high probability when it has at least Eta
// neighbors within distance Eps.
type Constraints struct {
	Eps float64
	Eta int
}

// Validate rejects non-positive thresholds.
func (c Constraints) Validate() error {
	if c.Eps <= 0 {
		return fmt.Errorf("core: distance threshold ε must be positive, got %v", c.Eps)
	}
	if c.Eta < 1 {
		return fmt.Errorf("core: neighbor threshold η must be ≥ 1, got %d", c.Eta)
	}
	return nil
}

// Detection is the split of a dataset into non-outlying tuples r and
// outliers s (§2.2), with the η-capped ε-neighbor count of every tuple.
type Detection struct {
	// Inliers and Outliers are tuple indexes into the detected relation.
	Inliers, Outliers []int
	// Counts[i] is min(|r_ε(t_i)|, η), t_i itself excluded: an outlier's
	// exact count, η for every inlier. The split only asks which side of η
	// a count falls on, so counting stops at η. Every producer keeps this
	// invariant: DetectContext, RehydrateDetection and the serving layer's
	// mutations. NeighborCountsContext gives the uncapped counts.
	Counts []int
	// Stats holds the index traffic of the counting pass (range queries,
	// distance evaluations, grid fallbacks); the search counters stay
	// zero — detection expands no Algorithm 1 nodes.
	Stats obs.SearchStats
	// Elapsed is the wall time of the counting pass, including the index
	// build when none was supplied.
	Elapsed time.Duration
	// IndexBuild is the portion of Elapsed spent building the index; zero
	// when the caller supplied one, so reuse across phases is visible.
	IndexBuild time.Duration
}

// RehydrateDetection reconstructs a Detection from persisted neighbor
// counts and the resolved η, re-deriving the inlier/outlier split without
// touching the data. It is the restart path of a durable serving layer:
// counts are the expensive part of DetectContext, so a snapshot that kept
// them skips the counting pass entirely. Counts above η (snapshots written
// before counting was capped) are clamped to η in place, so the result
// keeps the Counts invariant and behaves like a fresh detection. Stats,
// Elapsed and IndexBuild stay zero — no index traffic happened — which is
// exactly how callers tell a rehydrated detection from a computed one.
func RehydrateDetection(counts []int, eta int) *Detection {
	det := &Detection{Counts: counts}
	for i, c := range counts {
		if c >= eta {
			counts[i] = eta
			det.Inliers = append(det.Inliers, i)
		} else {
			det.Outliers = append(det.Outliers, i)
		}
	}
	return det
}

// DetectContext splits rel under the constraints: tuples with ≥ η
// ε-neighbors (self excluded) are inliers, the rest outliers. idx must
// index rel; pass nil to build one automatically, which Detection.IndexBuild
// then times. The neighbor-counting pass stops promptly once ctx is
// cancelled and the cancellation is returned as an error (a partial split
// would misclassify the uncounted tuples, so no partial Detection is
// produced).
func DetectContext(ctx context.Context, rel *data.Relation, cons Constraints, idx neighbors.Index) (*Detection, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	var indexBuild time.Duration
	if idx == nil {
		idx = neighbors.Build(rel, cons.Eps)
		indexBuild = time.Since(start)
	}
	n := rel.N()
	det := &Detection{Counts: make([]int, n), IndexBuild: indexBuild}
	// Counting stops at η (the Counts invariant): the split needs only
	// the side of η. Counting is read-only per tuple, so it fans out
	// across cores — each worker counts index traffic in its own shard,
	// merged once the pool joins.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	shards := make([]neighbors.Counters, max(workers, 1))
	views := make([]neighbors.Index, max(workers, 1))
	for w := range views {
		views[w] = neighbors.Counting(idx, &shards[w])
	}
	errs := par.ForEachWorker(ctx, n, workers, func(w, i int) error {
		det.Counts[i] = views[w].CountWithin(rel.Tuples[i], cons.Eps, i, cons.Eta)
		return nil
	})
	var merged neighbors.Counters
	for w := range shards {
		merged.Add(shards[w])
	}
	merged.AddTo(&det.Stats)
	det.Elapsed = time.Since(start)
	if err := par.FirstErr(errs); err != nil {
		return nil, fmt.Errorf("core: detecting outliers: %w", err)
	}
	for i := 0; i < n; i++ {
		if det.Counts[i] >= cons.Eta {
			det.Inliers = append(det.Inliers, i)
		} else {
			det.Outliers = append(det.Outliers, i)
		}
	}
	return det, nil
}

// Adjustment is the result of saving one outlier.
type Adjustment struct {
	// Index is the outlier's position in the original relation (set by
	// SaveAllContext; -1 for single-tuple calls).
	Index int
	// Tuple is the adjusted tuple t'_o; nil when the outlier was left
	// unchanged (natural, or no feasible adjustment).
	Tuple data.Tuple
	// Cost is Δ(t_o, t'_o); +Inf when Tuple is nil.
	Cost float64
	// Adjusted is the set of attributes whose values actually changed.
	Adjusted data.AttrMask
	// Natural marks outliers classified as true abnormal behaviour: the
	// search ran to completion and no feasible adjustment exists within
	// the κ-attribute budget, so the tuple is flagged rather than
	// repaired (§1.2). Natural is never set on an exhausted save — a
	// tripped budget proves nothing about feasibility.
	Natural bool
	// Nodes counts the recursion nodes Algorithm 1 expanded (ablation and
	// scalability reporting).
	Nodes int
	// Exhausted marks a save whose search was cut short by a budget
	// (Options.MaxNodes, Options.Deadline, or context cancellation). The
	// adjustment, when present, is still feasible — every intermediate
	// answer is a Proposition 5 witness — but it is only best-so-far: the
	// Proposition 6/7 approximation guarantees require a completed search
	// and do not apply.
	Exhausted bool
	// Stats breaks the search down: nodes expanded (== Nodes), what the
	// Lemma 2 / Proposition 3 lower bound pruned, memo hits, Proposition 5
	// witnesses, κ-restriction work and the index traffic of this save.
	Stats obs.SearchStats
}

// Saved reports whether the outlier received an adjustment.
func (a *Adjustment) Saved() bool { return a.Tuple != nil }
