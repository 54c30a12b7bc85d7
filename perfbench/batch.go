package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	disc "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/neighbors"
	"repro/internal/par"
)

// setupReps is how many times a batch run parses its input, so setup_s
// is a median over enough samples to ride out a noisy neighbour.
const setupReps = 25

// batchInput is a batch workload: the CSV bytes the program receives plus
// the ground truth the benchmark keeps to itself.
type batchInput struct {
	name  string
	csv   []byte
	cons  core.Constraints
	kappa int
	info  inputInfo
	// check inspects one pass's outputs and records any violation.
	check func(rep *report, res *core.SaveResult, cl cluster.Result)
}

// latticeSpec is lattice-detect's input: with ε = 1 every lattice tuple
// has ~268 ε-neighbors and only the 64 isolated noise rows are outliers.
// Side 4 (4,160 rows) keeps one pass near 1 s on two cores, so a run
// holds enough passes for a steady median; the issue's reference is
// Side 8. Detection and the η-radius precompute still take over 90 % of
// the save phase, and the noise rows are exactly the outliers on every
// seed tried (1–40).
func latticeSpec(seed int64) data.LatticeSpec {
	return data.LatticeSpec{Side: 4, PerCell: 64, Dims: 3, Noise: 64, Seed: seed}
}

func runLattice(cfg runConfig) (*report, error) {
	sp := latticeSpec(cfg.seed)
	var buf bytes.Buffer
	if err := data.StreamLatticeCSV(&buf, sp); err != nil {
		return nil, err
	}
	n := sp.N()
	in := &batchInput{
		name:  "lattice-detect",
		csv:   buf.Bytes(),
		cons:  core.Constraints{Eps: 1, Eta: 20},
		kappa: 2,
		info:  inputInfo{SHA256: digestCSV(buf.Bytes()), Bytes: buf.Len(), Rows: n, Attrs: sp.Dims, Outliers: sp.Noise},
	}
	in.check = func(rep *report, res *core.SaveResult, _ cluster.Result) {
		out := res.Detection.Outliers
		ok := len(out) == sp.Noise
		for k := 0; ok && k < len(out); k++ {
			ok = out[k] == n-sp.Noise+k
		}
		if !ok {
			rep.problemf("outlier set is %d rows, want exactly the %d noise rows %d..%d", len(out), sp.Noise, n-sp.Noise, n-1)
		}
	}
	return runBatch(cfg, in, nil)
}

// letterScale is letter-repair's size: Table 1 Letter at 0.3 is 6,000
// rows, m = 16, 576 outliers. The issue's reference is 0.5; at 0.3 one
// pass stays near 1 s on two cores and the save fan-out still dominates.
const letterScale = 0.3

func runLetter(cfg runConfig) (*report, error) {
	ds, err := data.Table1("Letter", letterScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, ds.Rel); err != nil {
		return nil, err
	}
	in := &batchInput{
		name:  "letter-repair",
		csv:   buf.Bytes(),
		cons:  core.Constraints{Eps: ds.Eps, Eta: ds.Eta},
		kappa: 2,
		info: inputInfo{SHA256: digestCSV(buf.Bytes()), Bytes: buf.Len(), Rows: ds.N(), Attrs: ds.Rel.Schema.M(),
			Outliers: ds.DirtyCount() + ds.NaturalCount()},
	}
	dirty := eval.F1(cluster.DBSCAN(ds.Rel, cluster.DBSCANConfig{Eps: ds.Eps, MinPts: ds.Eta}).Labels, ds.Labels)
	var f1 samples
	in.check = func(rep *report, _ *core.SaveResult, cl cluster.Result) {
		got := eval.F1(cl.Labels, ds.Labels)
		f1 = append(f1, got)
		if got < dirty {
			rep.problemf("cluster_f1 %.4f on the repaired relation is below the dirty relation's %.4f", got, dirty)
		}
	}
	rep, err := runBatch(cfg, in, func(rep *report) {
		rep.name("cluster_f1", f1.median(), "ratio", len(f1))
		rep.name("dirty_f1", dirty, "ratio", 1)
	})
	return rep, err
}

// pass is one run of the pipeline: save every outlier, then cluster.
type pass struct {
	res              *core.SaveResult
	repaired         *data.Relation
	cl               cluster.Result
	save, clusterDur time.Duration
}

// untracedPass is the pipeline as a user runs it: disc.SaveContext, then
// DBSCAN on the repaired relation.
func untracedPass(ctx context.Context, rel *data.Relation, in *batchInput) (*pass, error) {
	t0 := time.Now()
	res, err := disc.SaveContext(ctx, rel, in.cons, disc.Options{Kappa: in.kappa})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cl := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: in.cons.Eps, MinPts: in.cons.Eta})
	return &pass{res: res, repaired: res.Repaired, cl: cl, save: t1.Sub(t0), clusterDur: time.Since(t1)}, nil
}

func runBatch(cfg runConfig, in *batchInput, finish func(*report)) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	rep.input = in.info
	rel, parse, err := readCSVTimed(in.csv, setupReps)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = metricVal{parse.median(), "s"}
	rep.name("setup_s", parse.median(), "s", len(parse))

	// One untimed pass first, so lazy set-up and the heap's growth are
	// not charged to the first timed pass.
	if _, err := untracedPass(ctx, rel, in); err != nil {
		return nil, err
	}
	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	var saveT, clusterT, passT samples
	var last *pass
	deadline := time.Now().Add(phase)
	for len(passT) == 0 || time.Now().Before(deadline) {
		p, err := untracedPass(ctx, rel, in)
		if err != nil {
			return nil, err
		}
		saveT.add(p.save)
		clusterT.add(p.clusterDur)
		passT.add(p.save + p.clusterDur)
		if err := checkPass(rep, in, p); err != nil {
			return nil, err
		}
		last = p
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	rep.e2e["save_p50_ms"] = metricVal{saveT.median() * 1e3, "ms"}
	rep.e2e["query_p50_ms"] = metricVal{clusterT.median() * 1e3, "ms"}
	rep.e2e["throughput"] = metricVal{float64(rel.N()) / passT.median(), "1/s"}
	rep.e2e["live_heap_mb"] = metricVal{heap, "MiB"}
	rep.name("save_all_s", saveT.median(), "s", len(saveT))
	rep.name("cluster_s", clusterT.median(), "s", len(clusterT))
	rep.name("live_heap_mb", heap, "MiB", 1)
	rep.name("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", int(rep.attempted))
	if cfg.trace {
		if err := tracedPhase(ctx, cfg, rep, rel, in, parse, passT.median(), phase); err != nil {
			return nil, err
		}
	}
	if finish != nil {
		finish(rep)
	}
	return rep, nil
}

// checkPass applies the output checks every pass must pass, traced or not.
func checkPass(rep *report, in *batchInput, p *pass) error {
	rep.attempted += int64(len(p.res.Detection.Outliers))
	rep.failed += int64(len(p.res.Errs))
	in.check(rep, p.res, p.cl)
	d, err := digestRelation(p.repaired)
	if err != nil {
		return err
	}
	if rep.digest == "" {
		rep.digest = d
	} else if d != rep.digest {
		rep.problemf("repaired relation digest %s differs from the run's first pass %s", d, rep.digest)
	}
	return nil
}

// tracedStats is what one traced pass measured.
type tracedStats struct {
	build                    *buildSplit
	saves                    saveAgg
	pipeline, fanout, dbscan time.Duration
	busy                     time.Duration
	workers                  int
	dbscanCnt                neighbors.Counters
}

// tracedPass replays disc.SaveContext from its public parts — index
// build, DetectContext, the saver's index and η-radius precompute, and
// the par fan-out of Saver.SaveOne — then DBSCAN over a counting index,
// with a span around every call.
func tracedPass(ctx context.Context, tr *tracer, run string, rel *data.Relation, in *batchInput) (*pass, *tracedStats, error) {
	ts := &tracedStats{workers: runtime.GOMAXPROCS(0)}
	root := tr.open("bench.pass", run, -1)
	t0 := time.Now()
	pipe := tr.open("core.save_all", run, root)
	b, err := tracedBuild(ctx, tr, run, pipe, rel, in.cons, in.kappa, false)
	if err != nil {
		return nil, nil, err
	}
	ts.build = b
	outliers := b.det.Outliers
	adjs := make([]core.Adjustment, len(outliers))
	workers := min(ts.workers, max(len(outliers), 1))
	fan := tr.open("par.fanout", run, pipe)
	wspans := make([]int, workers)
	first := make([]time.Time, workers)
	last := make([]time.Time, workers)
	busy := make([]time.Duration, workers)
	for w := range wspans {
		wspans[w] = tr.open("par.worker", run, fan)
	}
	fanStart := time.Now()
	errs := par.ForEachWorker(ctx, len(outliers), workers, func(w, k int) error {
		s0 := time.Now()
		if first[w].IsZero() {
			first[w] = s0
		}
		sp := tr.open("core.save_one", run, wspans[w])
		adjs[k] = b.saver.SaveOne(ctx, rel.Tuples[outliers[k]])
		tr.close(sp)
		last[w] = time.Now()
		busy[w] += last[w].Sub(s0)
		return nil
	})
	ts.fanout = time.Since(fanStart)
	for w := range wspans {
		if first[w].IsZero() {
			first[w], last[w] = fanStart, fanStart
		}
		tr.setTimes(wspans[w], first[w], last[w])
		ts.busy += busy[w]
	}
	tr.close(fan)
	if err := par.FirstErr(errs); err != nil {
		return nil, nil, err
	}
	// Assemble the repaired relation the way SaveAll does.
	repaired := rel.Clone()
	res := &core.SaveResult{Repaired: repaired, Detection: b.det, Adjustments: adjs}
	for k, adj := range adjs {
		if adj.Saved() {
			repaired.Tuples[outliers[k]] = adj.Tuple.Clone()
		}
	}
	tr.close(pipe)
	ts.pipeline = time.Since(t0)
	for k := range adjs {
		ts.saves.add(adjs[k], 0)
	}

	c0 := time.Now()
	csp := tr.open("cluster.dbscan", run, root)
	bsp := tr.open("neighbors.build", run, csp)
	idx := neighbors.Build(repaired, in.cons.Eps)
	tr.close(bsp)
	cl := cluster.DBSCAN(repaired, cluster.DBSCANConfig{Eps: in.cons.Eps, MinPts: in.cons.Eta, Index: neighbors.Counting(idx, &ts.dbscanCnt)})
	tr.close(csp)
	ts.dbscan = time.Since(c0)
	tr.close(root)
	return &pass{res: res, repaired: repaired, cl: cl, save: ts.pipeline, clusterDur: ts.dbscan}, ts, nil
}

// tracedPhase runs traced passes for the second half of a traced run and
// reports the per-layer split. untracedPass is the untraced median pass
// time, the base of trace.overhead_frac.
func tracedPhase(ctx context.Context, cfg runConfig, rep *report, rel *data.Relation, in *batchInput, parse samples, untracedPassS float64, phase time.Duration) error {
	tr := newTracer()
	var passT, pipeT, fanT, dbT, detT, etaT, buildT, sbuildT samples
	var st *tracedStats
	deadline := time.Now().Add(phase)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		p, ts, err := tracedPass(ctx, tr, fmt.Sprintf("pass-%d", k), rel, in)
		if err != nil {
			return err
		}
		if err := checkPass(rep, in, p); err != nil {
			return err
		}
		passT.add(ts.pipeline + ts.dbscan)
		pipeT.add(ts.pipeline)
		fanT.add(ts.fanout)
		dbT.add(ts.dbscan)
		detT = append(detT, ts.build.detectS)
		etaT = append(etaT, ts.build.etaRadius)
		buildT = append(buildT, ts.build.buildS)
		sbuildT = append(sbuildT, ts.build.saverBuildS)
		st = ts
	}
	spans := tr.finish()
	if err := writeTrace(outDir+"/traces", fmt.Sprintf("%s-seed%d.json", in.name, cfg.seed), spans); err != nil {
		return err
	}
	// Counts are per pass (every pass does identical work); times are
	// medians over passes, and per-outlier times cover every SaveOne span
	// of every pass.
	saves := st.saves
	saves.times = nil
	for i := range spans {
		if spans[i].Name == "core.save_one" {
			saves.times = append(saves.times, float64(spans[i].dur())/1e9)
		}
	}
	b := st.build
	b.detectS, b.etaRadius, b.buildS, b.saverBuildS = detT.median(), etaT.median(), buildT.median(), sbuildT.median()
	rep.setBuildLayers(b, rel.N())
	rep.setSaveLayers(&saves)
	dc := st.dbscanCnt
	all := b.det.Stats
	all.Add(&b.setup)
	all.Add(&saves.stats)
	all.RangeQueries += dc.RangeQueries
	all.DistEvals += dc.DistEvals
	all.DistEarlyExits += dc.DistEarlyExits
	all.GridFallbacks += dc.GridFallbacks
	rep.setKernelLayers(rel, parse, all, cfg.seed)
	rep.setLayer("neighbors.range_queries", float64(all.RangeQueries), "count")
	rep.setLayer("neighbors.knn_queries", float64(all.KNNQueries), "count")
	// Detection and DBSCAN issue only range queries, so their evaluations
	// divided by their queries is the range-query cost; saves mix both
	// kinds and are left out of the ratio.
	rep.setLayer("neighbors.evals_per_range_query",
		ratio(float64(b.det.Stats.DistEvals+dc.DistEvals), float64(b.det.Stats.RangeQueries+dc.RangeQueries)), "count")
	rep.setLayer("neighbors.grid_fallbacks", float64(all.GridFallbacks), "count")
	ins, err := mutableInsertNs(rel, in.cons.Eps, cfg.seed)
	if err != nil {
		return err
	}
	rep.setLayer("neighbors.mutable_insert_ns", ins, "ns")
	rep.setLayer("core.pipeline_s", pipeT.median(), "s")
	rep.setLayer("core.detect_eta_share", ratio(b.detectS+b.etaRadius, pipeT.median()), "ratio")
	rep.setLayer("par.workers", float64(st.workers), "count")
	rep.setLayer("par.fanout_s", fanT.median(), "s")
	rep.setLayer("par.fanout_share", ratio(fanT.median(), pipeT.median()), "ratio")
	rep.setLayer("par.save_busy_frac", ratio(st.busy.Seconds(), float64(st.workers)*st.fanout.Seconds()), "ratio")
	rep.setLayer("cluster.dbscan_s", dbT.median(), "s")
	rep.setLayer("cluster.range_queries", float64(dc.RangeQueries), "count")
	rep.setLayer("cluster.evals_per_query", ratio(float64(dc.DistEvals), float64(dc.RangeQueries)), "count")
	rep.setLayer("trace.overhead_frac", ratio(passT.median()-untracedPassS, untracedPassS), "ratio")
	rep.setLayer("trace.unattributed_frac", unattributed(spans), "ratio")
	rep.setLayer("trace.spans", float64(len(spans)), "count")
	rep.offPath(batchOffPath...)
	return nil
}
