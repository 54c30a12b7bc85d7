package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// digestCSV fingerprints a byte string.
func digestCSV(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestRelation fingerprints a relation through its CSV encoding.
func digestRelation(rel *data.Relation) (string, error) {
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rel); err != nil {
		return "", err
	}
	return digestCSV(buf.Bytes()), nil
}

// liveHeapMB is the heap in use after a forced collection, in MiB. The
// second collection empties the sync.Pool victim caches the first one
// only demoted, so pooled scratch does not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// readCSVTimed parses the input reps times and returns the last relation
// with the parse times.
func readCSVTimed(csv []byte, reps int) (*data.Relation, samples, error) {
	var rel *data.Relation
	var ts samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r, err := data.ReadCSV(bytes.NewReader(csv))
		if err != nil {
			return nil, nil, fmt.Errorf("parsing the generated input: %w", err)
		}
		ts.add(time.Since(t0))
		rel = r
	}
	return rel, ts, nil
}

// project keeps the attributes of one kind, or nil when there are none.
func project(rel *data.Relation, kind data.Kind) *data.Relation {
	var cols []int
	sch := &data.Schema{Norm: rel.Schema.Norm}
	for a, at := range rel.Schema.Attrs {
		if at.Kind == kind {
			cols = append(cols, a)
			sch.Attrs = append(sch.Attrs, at)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	out := data.NewRelation(sch)
	for _, t := range rel.Tuples {
		p := make(data.Tuple, len(cols))
		for i, a := range cols {
			p[i] = t[a]
		}
		out.Append(p)
	}
	return out
}

// kernelNsPerEval times the compiled distance kernel over a fixed, seeded
// sample of tuple pairs: Kernel.Dist between rows and KernelQuery.DistTo
// from a bound row. Each repetition compiles a fresh kernel so text pair
// caches start cold every time; the median repetition is reported.
func kernelNsPerEval(rel *data.Relation, seed int64) float64 {
	if rel == nil || rel.N() < 2 {
		return 0
	}
	const queries, perQuery, reps = 256, 64, 5
	rng := rand.New(rand.NewSource(seed))
	is := make([]int, queries)
	js := make([]int, queries*perQuery)
	for i := range is {
		is[i] = rng.Intn(rel.N())
	}
	for i := range js {
		js[i] = rng.Intn(rel.N())
	}
	var ts samples
	sink := 0.0
	for r := 0; r < reps; r++ {
		k := data.CompileKernel(rel)
		t0 := time.Now()
		for qi, i := range is {
			q := k.Bind(rel.Tuples[i])
			for _, j := range js[qi*perQuery : (qi+1)*perQuery] {
				sink += q.DistTo(j)
				sink += k.Dist(i, j)
			}
			q.Release()
		}
		ts.add(time.Since(t0))
	}
	runtime.KeepAlive(sink)
	return ts.median() * 1e9 / float64(2*queries*perQuery)
}

// mutableInsertNs times neighbors.Mutable.Insert of jittered copies of
// sampled rows into a fresh mutable index over a copy of rel (inserts
// append to the indexed relation).
func mutableInsertNs(rel *data.Relation, eps float64, seed int64) (float64, error) {
	m, err := neighbors.NewMutable(rel.Clone(), eps, neighbors.KindAuto)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	const n = 256
	rows := make([]data.Tuple, n)
	for i := range rows {
		rows[i] = jitter(rel.Schema, rel.Tuples[rng.Intn(rel.N())], rng, 0.05*eps)
	}
	t0 := time.Now()
	for _, t := range rows {
		m.Insert(t)
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// jitter copies t with every numeric value moved by up to ±d.
func jitter(sch *data.Schema, t data.Tuple, rng *rand.Rand, d float64) data.Tuple {
	c := t.Clone()
	for a, at := range sch.Attrs {
		if at.Kind == data.Numeric {
			c[a] = data.Num(c[a].Num + d*(2*rng.Float64()-1))
		}
	}
	return c
}

// buildSplit is the traced replica of what a pipeline or a session does
// before the first save: index the relation, detect, index the inliers,
// precompute η-radii. Serving workloads run it on the uploaded bytes to
// split the session build into layers.
type buildSplit struct {
	det                    *core.Detection
	saver                  *core.Saver
	inliers                *data.Relation
	setup                  obs.SearchStats
	detectS, buildS        float64 // detection pass; full-relation index build
	saverBuildS, etaRadius float64
}

// tracedBuild runs the build under spans rooted at parent. mutable
// selects neighbors.NewMutable (the serving indexes) over neighbors.Build.
func tracedBuild(ctx context.Context, tr *tracer, run string, parent int, rel *data.Relation, cons core.Constraints, kappa int, mutable bool) (*buildSplit, error) {
	build := func(r *data.Relation) (neighbors.Index, error) {
		if mutable {
			return neighbors.NewMutable(r, cons.Eps, neighbors.KindAuto)
		}
		return neighbors.Build(r, cons.Eps), nil
	}
	var b buildSplit
	sp := tr.open("neighbors.build", run, parent)
	t0 := time.Now()
	idx, err := build(rel)
	b.buildS = time.Since(t0).Seconds()
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("core.detect", run, parent)
	t0 = time.Now()
	b.det, err = core.DetectContext(ctx, rel, cons, idx)
	b.detectS = time.Since(t0).Seconds()
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	b.inliers = rel.Subset(b.det.Inliers)
	sp = tr.open("neighbors.build", run, parent)
	t0 = time.Now()
	sidx, err := build(b.inliers)
	b.saverBuildS = time.Since(t0).Seconds()
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("core.eta_radius", run, parent)
	t0 = time.Now()
	b.saver, err = core.NewSaverContext(ctx, b.inliers, cons, core.Options{Kappa: kappa, Index: sidx})
	b.etaRadius = time.Since(t0).Seconds()
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	b.setup, _, _ = b.saver.SetupStats()
	return &b, nil
}

// setBuildLayers reports the build split: index build, detection cost per
// tuple, η-radius precompute, and the per-query cost of both passes in
// CPU time (wall time × workers, as both passes fan out over GOMAXPROCS).
func (r *report) setBuildLayers(b *buildSplit, n int) {
	workers := float64(runtime.GOMAXPROCS(0))
	ds := b.det.Stats
	r.setLayer("neighbors.build_s", b.buildS, "s")
	r.setLayer("core.detect_s", b.detectS, "s")
	r.setLayer("core.detect_ns_per_tuple", ratio(b.detectS*1e9, float64(n)), "ns")
	r.setLayer("core.detect_evals_per_tuple", ratio(float64(ds.DistEvals), float64(n)), "count")
	r.setLayer("core.saver_index_build_s", b.saverBuildS, "s")
	r.setLayer("core.eta_radius_s", b.etaRadius, "s")
	r.setLayer("neighbors.ns_per_range_query", ratio(b.detectS*workers*1e9, float64(ds.RangeQueries)), "ns")
	r.setLayer("neighbors.ns_per_knn_query", ratio(b.etaRadius*workers*1e9, float64(b.setup.KNNQueries)), "ns")
	r.setLayer("neighbors.evals_per_knn_query", ratio(float64(b.setup.DistEvals), float64(b.setup.KNNQueries)), "count")
}

// saveAgg accumulates per-outlier Algorithm 1 results.
type saveAgg struct {
	n, saved int64
	times    samples
	stats    obs.SearchStats // summed over the saves
}

func (a *saveAgg) add(adj core.Adjustment, d time.Duration) {
	a.n++
	if adj.Saved() {
		a.saved++
	}
	a.stats.Add(&adj.Stats)
	a.times.add(d)
}

// setSaveLayers reports the core save metrics; each per-outlier figure
// has core.saves as its base.
func (r *report) setSaveLayers(a *saveAgg) {
	n := float64(a.n)
	s := a.stats
	prunes := float64(s.LBPrunes + s.CandPrunes)
	r.setLayer("core.saves", n, "count")
	r.setLayer("core.save_ns_per_outlier", a.times.mean()*1e9, "ns")
	r.setLayer("core.save_nodes_per_outlier", ratio(float64(s.Nodes), n), "count")
	r.setLayer("core.save_candidates_per_outlier", ratio(float64(s.Candidates), n), "count")
	r.setLayer("core.save_prune_ratio", ratio(prunes, float64(s.Nodes)+prunes), "ratio")
	r.setLayer("core.save_memo_hit_ratio", ratio(float64(s.MemoHits), float64(s.Nodes+s.MemoHits)), "ratio")
	r.setLayer("core.save_max_outlier_ms", a.times.max()*1e3, "ms")
	r.setLayer("core.saved_frac", ratio(float64(a.saved), n), "ratio")
	r.setLayer("core.budget_trips", float64(s.BudgetTrips), "count")
}

// setKernelLayers reports the data layer: parse time, kernel cost per
// evaluation for the numeric and the text attributes, and the kernel
// refinements of the traffic counted in st.
func (r *report) setKernelLayers(rel *data.Relation, parse samples, st obs.SearchStats, seed int64) {
	r.setLayer("data.csv_parse_s", parse.median(), "s")
	r.setLayer("data.numeric_ns_per_eval", kernelNsPerEval(project(rel, data.Numeric), seed), "ns")
	r.setLayer("data.text_ns_per_eval", kernelNsPerEval(project(rel, data.Text), seed), "ns")
	lookups := float64(st.TextCacheHits + st.TextCacheMisses)
	r.setLayer("data.text_lookups", lookups, "count")
	r.setLayer("data.text_cache_hit_ratio", ratio(float64(st.TextCacheHits), lookups), "ratio")
	r.setLayer("data.dist_evals", float64(st.DistEvals), "count")
	r.setLayer("data.early_exit_ratio", ratio(float64(st.DistEarlyExits), float64(st.DistEvals)), "ratio")
}

// offPath reports metrics of layers the workload's path never reaches as
// 0, so every traced run reports the full per-layer set.
func (r *report) offPath(names ...string) {
	for _, m := range names {
		r.setLayer(m, 0, perLayerUnit[m])
	}
}
