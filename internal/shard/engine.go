package shard

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures a sharded run.
type Options struct {
	// Shards is the partition width S; <= 0 means 1.
	Shards int
	// Kind selects the per-shard neighbor index (KindAuto resolves per
	// shard exactly like neighbors.Build).
	Kind neighbors.IndexKind
	// Save carries the Algorithm 1 options (κ, budgets, workers, logger).
	// Save.Index is ignored — it would index the full relation, not a
	// shard. Save.Workers bounds the shard-level fan-out.
	Save core.Options
}

// ShardStats is one shard's contribution to a run: its size, its share of
// the index traffic, and its phase timings. The coordinator surfaces these
// per shard in /varz; merged they reconcile with the global SearchStats.
type ShardStats struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// Owned and Halo are the shard's tuple counts.
	Owned int `json:"owned"`
	Halo  int `json:"halo"`
	// Fallback reports the full-replication degradation.
	Fallback bool `json:"fallback"`
	// Outliers counts the outliers this shard owned (after Save).
	Outliers int `json:"outliers"`
	// Stats is the shard's index traffic (detection; saves are counted on
	// the shared saver and merged at the result level).
	Stats obs.SearchStats `json:"stats"`
	// IndexBuild/Detect/Save are this shard's wall-clock phases.
	IndexBuild time.Duration `json:"index_build_ns"`
	Detect     time.Duration `json:"detect_ns"`
	Save       time.Duration `json:"save_ns"`
	// Err records the shard's failure, if any (save legs degrade to
	// partial results; detection errors fail the whole run).
	Err string `json:"err,omitempty"`
}

// Engine runs the DISC pipeline shard-wise over one relation. The partition
// is computed once at construction; Detect and Save fan the shards out on
// the internal/par pool and merge the per-shard answers into the same
// result types the single-node path returns — bit-exact, per the package
// invariant.
type Engine struct {
	rel  *data.Relation
	cons core.Constraints
	opts Options
	part *Partition
}

// New validates the inputs and partitions the relation.
func New(rel *data.Relation, cons core.Constraints, opts Options) (*Engine, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	part, err := Split(rel, cons.Eps, opts.Shards)
	if err != nil {
		return nil, err
	}
	return &Engine{rel: rel, cons: cons, opts: opts, part: part}, nil
}

// Partition exposes the computed split (inspection and tests).
func (e *Engine) Partition() *Partition { return e.part }

// workers resolves the shard-level parallelism.
func (e *Engine) workers() int {
	w := e.opts.Save.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Detect runs the ε-neighbor counting pass shard-wise: each shard builds
// its own index over owned+halo tuples and counts only its owned tuples,
// each capped at η like core.DetectContext's counts. The ε-halo makes each
// count equal the global count, so the merged
// Detection is identical to core.DetectContext's. Like the single-node
// path, detection produces no partial results — a failed shard fails the
// run (a partial split would misclassify the uncounted tuples).
func (e *Engine) Detect(ctx context.Context) (*core.Detection, []ShardStats, error) {
	start := time.Now()
	counts := make([]int, e.rel.N())
	stats := make([]ShardStats, len(e.part.Shards))
	errs := par.ForEachWorker(ctx, len(e.part.Shards), e.workers(), func(w, si int) error {
		sh := &e.part.Shards[si]
		st := &stats[si]
		st.Shard, st.Owned, st.Halo, st.Fallback = si, len(sh.Owned), len(sh.Halo), e.part.Fallback
		if len(sh.Owned) == 0 {
			return nil
		}
		if err := fault.Inject(fault.ShardDispatch); err != nil {
			st.Err = err.Error()
			return err
		}
		tb := time.Now()
		idx, err := neighbors.NewMutable(sh.Rel, e.cons.Eps, e.opts.Kind)
		if err != nil {
			st.Err = err.Error()
			return err
		}
		st.IndexBuild = time.Since(tb)
		td := time.Now()
		var c neighbors.Counters
		view := neighbors.WithContext(ctx, neighbors.Counting(idx, &c))
		for p, gi := range sh.Owned {
			counts[gi] = view.CountWithin(sh.Rel.Tuples[p], e.cons.Eps, p, e.cons.Eta)
		}
		st.Detect = time.Since(td)
		st.Stats = statsFromCounters(c)
		return nil
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, stats, fmt.Errorf("shard: detecting outliers: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("shard: detecting outliers: %w", err)
	}
	if err := fault.Inject(fault.ShardMerge); err != nil {
		return nil, stats, fmt.Errorf("shard: merging detections: %w", err)
	}
	det := core.RehydrateDetection(counts, e.cons.Eta)
	var build time.Duration
	for si := range stats {
		det.Stats.Add(&stats[si].Stats)
		if stats[si].IndexBuild > build {
			build = stats[si].IndexBuild // parallel legs: wall clock is the max
		}
	}
	det.IndexBuild = build
	det.Elapsed = time.Since(start)
	return det, stats, nil
}

// Save runs the full sharded pipeline: shard-wise detection, then the save
// fan-out partitioned by owning shard. Every shard's outliers are saved
// against ONE saver prepared over the full inlier subset — a save is not
// ε-local (its candidate ball grows with the best-so-far cost), so the
// inlier side cannot be sharded without breaking bit-exactness; the
// per-outlier searches are independent, so the fan-out shards perfectly.
// A shard killed mid-scatter (fault.ShardDispatch, a panic, a cancelled
// context) degrades to per-outlier SaveErrors in that shard's territory;
// the other shards' adjustments survive, mirroring SaveAllContext's
// partial-batch contract.
func (e *Engine) Save(ctx context.Context) (*core.SaveResult, []ShardStats, error) {
	totalStart := time.Now()
	if e.opts.Save.BatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Save.BatchTimeout)
		defer cancel()
	}
	if err := data.ValidateValues(e.rel); err != nil {
		return nil, nil, err
	}
	validate := time.Since(totalStart)

	det, stats, err := e.Detect(ctx)
	if err != nil {
		return nil, stats, err
	}

	// Outlier fan-out by owning shard; shards with no outliers stay idle.
	byShard := make([][]int, len(e.part.Shards))
	for _, oi := range det.Outliers {
		sid := e.part.Owner[oi]
		byShard[sid] = append(byShard[sid], oi)
	}
	for si := range stats {
		stats[si].Outliers = len(byShard[si])
	}

	finish := func(parts []core.SavePart, setup obs.SearchStats, indexBuild, etaRadius, save time.Duration) (*core.SaveResult, []ShardStats, error) {
		if err := fault.Inject(fault.ShardMerge); err != nil {
			return nil, stats, fmt.Errorf("shard: merging save results: %w", err)
		}
		res := core.ComposeSaveResult(e.rel, det, parts)
		res.Stats.Add(&setup)
		res.Timings.Validate = validate
		res.Timings.Detect = det.Elapsed
		res.Timings.DetectIndexBuild = det.IndexBuild
		res.Timings.IndexBuild = indexBuild
		res.Timings.EtaRadius = etaRadius
		res.Timings.Save = save
		res.Timings.Total = time.Since(totalStart)
		return res, stats, nil
	}

	if len(det.Outliers) == 0 {
		return finish(nil, obs.SearchStats{}, 0, 0, 0)
	}
	if len(det.Inliers) == 0 {
		// Nothing to save against: every outlier stays unchanged.
		part := core.SavePart{}
		for _, oi := range det.Outliers {
			part.Adjustments = append(part.Adjustments, core.Adjustment{Index: oi, Natural: true})
		}
		return finish([]core.SavePart{part}, obs.SearchStats{}, 0, 0, 0)
	}

	saveOpts := e.opts.Save
	saveOpts.Index = nil // an Options.Index would index rel, not the inlier subset
	saver, err := core.NewSaverContext(ctx, e.rel.Subset(det.Inliers), e.cons, saveOpts)
	if err != nil {
		return nil, stats, err
	}
	setup, indexBuild, etaRadius := saver.SetupStats()

	parts := make([]core.SavePart, len(e.part.Shards))
	saveStart := time.Now()
	par.ForEachWorker(ctx, len(e.part.Shards), e.workers(), func(w, si int) error {
		st := &stats[si]
		outliers := byShard[si]
		if len(outliers) == 0 {
			return nil
		}
		ts := time.Now()
		defer func() { st.Save = time.Since(ts) }()
		if err := fault.Inject(fault.ShardDispatch); err != nil {
			st.Err = err.Error()
			for _, oi := range outliers {
				parts[si].Errs = append(parts[si].Errs, core.SaveError{Index: oi, Err: err})
			}
			return nil // degraded, not failed: the other shards proceed
		}
		for _, oi := range outliers {
			if err := ctx.Err(); err != nil {
				// Mirror SaveAllContext: never-started outliers land in
				// Errs; already-computed adjustments survive.
				st.Err = err.Error()
				parts[si].Errs = append(parts[si].Errs, core.SaveError{Index: oi, Err: err})
				continue
			}
			adj, err := saveOne(ctx, saver, e.rel.Tuples[oi])
			if err != nil {
				st.Err = err.Error()
				parts[si].Errs = append(parts[si].Errs, core.SaveError{Index: oi, Err: err})
				continue
			}
			adj.Index = oi
			parts[si].Adjustments = append(parts[si].Adjustments, adj)
		}
		return nil
	})
	return finish(parts, setup, indexBuild, etaRadius, time.Since(saveStart))
}

// saveOne runs one outlier's save, converting a panic inside the search
// into an error so one poisoned outlier degrades to its own Errs entry
// instead of killing the shard (par.ForEachWorker gives SaveAllContext the
// same per-item recovery).
func saveOne(ctx context.Context, saver *core.Saver, to data.Tuple) (adj core.Adjustment, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: save panicked: %v", r)
		}
	}()
	return saver.SaveContext(ctx, to), nil
}

// statsFromCounters bridges raw index counters into the index-traffic slots
// of a SearchStats (the same mapping the core saver applies).
func statsFromCounters(c neighbors.Counters) obs.SearchStats {
	return obs.SearchStats{
		KNNQueries:      c.KNNQueries,
		RangeQueries:    c.RangeQueries,
		DistEvals:       c.DistEvals,
		GridFallbacks:   c.GridFallbacks,
		DistEarlyExits:  c.DistEarlyExits,
		TextCacheHits:   c.TextCacheHits,
		TextCacheMisses: c.TextCacheMisses,
	}
}

// MergeShardStats folds per-shard stats into one SearchStats (the /varz
// reconciliation view).
func MergeShardStats(stats []ShardStats) obs.SearchStats {
	var out obs.SearchStats
	for i := range stats {
		out.Add(&stats[i].Stats)
	}
	return out
}
