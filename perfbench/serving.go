package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/serve"
)

// setupRepsServing is how many sessions a serving run uploads to time
// setup_s; only the last one serves traffic.
const setupRepsServing = 5

// mixedHeapAfter is how many serve-mixed-rw requests run before the heap
// is taken: about 3 s of the loop on two cores.
const mixedHeapAfter = 2000

// mixedInput is serve-mixed-rw's dataset: GenMixed's business directory
// (3 text + 4 numeric attributes). The CSV dialect carries no attribute
// scales, so price is written already divided by its generator scale of
// 10; the server then sees the distances the generator intended.
func mixedInput(seed int64) ([]byte, error) {
	ds, err := data.GenMixed(data.MixedSpec{Name: "serve-mixed-rw", N: 4000, Entities: 3200,
		DirtyFrac: 0.05, Eps: 2, Eta: 3, Seed: seed})
	if err != nil {
		return nil, err
	}
	rel := ds.Rel.Clone()
	for a, at := range rel.Schema.Attrs {
		if at.Kind == data.Numeric && at.Scale > 0 && at.Scale != 1 {
			for _, t := range rel.Tuples {
				t[a] = data.Num(t[a].Num / at.Scale)
			}
		}
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rel); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// createAnswer is the part of a create answer the benchmark reads; a
// coordinator also lists the owner workers and their local session ids.
type createAnswer struct {
	ID     string `json:"id"`
	Owners []struct {
		Worker  string `json:"worker"`
		Session string `json:"session"`
	} `json:"owners"`
}

// uploadTimed creates a session from raw CSV reps times and returns the
// answers with the time from sending the bytes to the 201.
func uploadTimed(cli *http.Client, base, prefix string, csv []byte, q url.Values, reps int) ([]createAnswer, samples, error) {
	answers := make([]createAnswer, reps)
	var ts samples
	for i := range answers {
		t0 := time.Now()
		if _, err := call(cli, http.MethodPost, base+"/v1/datasets?"+q.Encode(), fmt.Sprintf("%s-upload-%d", prefix, i), "text/csv", csv, &answers[i]); err != nil {
			return nil, nil, fmt.Errorf("upload: %w", err)
		}
		ts.add(time.Since(t0))
	}
	return answers, ts, nil
}

// keepLast deletes every uploaded session but the last and returns it.
func keepLast(cli *http.Client, base, prefix string, answers []createAnswer) (createAnswer, error) {
	for _, a := range answers[:len(answers)-1] {
		if _, err := call(cli, http.MethodDelete, base+"/v1/datasets/"+a.ID, prefix+"-cleanup", "", nil, nil); err != nil {
			return createAnswer{}, err
		}
	}
	return answers[len(answers)-1], nil
}

// mixedState is the benchmark's model of the session's live rows: the
// uploaded rows plus every insert not yet deleted, by logical handle.
type mixedState struct {
	mu      sync.Mutex
	sch     *data.Schema
	base    *data.Relation
	inserts map[int]data.Tuple
	// fifo holds each client's inserted handles, oldest first.
	fifo [clients][]int
}

func (m *mixedState) live() *data.Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	rel := m.base.Clone()
	for _, t := range m.inserts {
		rel.Append(t)
	}
	return rel
}

// typo replaces one letter of s.
func typo(rng *rand.Rand, s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
	return string(b)
}

func runServeMixed(cfg runConfig) (*report, error) {
	ctx := context.Background()
	csv, err := mixedInput(cfg.seed)
	if err != nil {
		return nil, err
	}
	const name = "serve-mixed-rw"
	cons := core.Constraints{Eps: 2, Eta: 3}
	local, parse, err := readCSVTimed(csv, setupReps)
	if err != nil {
		return nil, err
	}
	ref, err := core.DetectContext(ctx, local, cons, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.input = inputInfo{SHA256: digestCSV(csv), Bytes: len(csv), Rows: local.N(), Attrs: local.Schema.M(), Outliers: len(ref.Outliers)}
	saves := make([]data.Tuple, len(ref.Outliers))
	for k, i := range ref.Outliers {
		saves[k] = local.Tuples[i]
	}
	if len(saves) == 0 {
		return nil, fmt.Errorf("the generated input has no outliers to save")
	}

	srv := serve.New(serve.Config{})
	lb, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer func() {
		lb.close()
		_ = srv.Shutdown(context.Background()) // queues are idle by now
	}()
	cli := newHTTPClient()
	defer cli.CloseIdleConnections()

	q := url.Values{"eps": {"2"}, "eta": {"3"}, "kappa": {"2"}, "name": {name}}
	answers, setup, err := uploadTimed(cli, lb.url, name, csv, q, setupRepsServing)
	if err != nil {
		return nil, err
	}
	kept, err := keepLast(cli, lb.url, name, answers)
	if err != nil {
		return nil, err
	}
	id := kept.ID
	sess, ok := srv.Registry().Get(id)
	if !ok {
		return nil, fmt.Errorf("session %s vanished", id)
	}
	rep.e2e["setup_s"] = metricVal{setup.median(), "s"}
	rep.name("setup_s", setup.median(), "s", len(setup))

	st := &mixedState{sch: local.Schema, base: local, inserts: map[int]data.Tuple{}}
	api := lb.url + "/v1/datasets/" + id
	pick := func(rng *rand.Rand) string {
		switch x := rng.Float64(); {
		case x < 0.5:
			return "detect"
		case x < 0.8:
			return "save"
		default:
			return "mutate"
		}
	}
	exec := func(c int, rng *rand.Rand, kind, reqID string) outcome {
		switch kind {
		case "detect":
			tuples := make([][]any, 16)
			for i := range tuples {
				tuples[i] = tupleJSON(local.Schema, local.Tuples[rng.Intn(local.N())])
			}
			var resp struct {
				Results []struct {
					Neighbors int  `json:"neighbors"`
					Outlier   bool `json:"outlier"`
				} `json:"results"`
			}
			if _, err := postJSON(cli, api+"/detect", reqID, map[string]any{"tuples": tuples}, &resp); err != nil {
				return outcome{failed: true, problem: err.Error()}
			}
			if len(resp.Results) != len(tuples) {
				return outcome{problem: fmt.Sprintf("detect answered %d results for %d tuples", len(resp.Results), len(tuples))}
			}
		case "save":
			var adj struct {
				Saved, Natural bool
				Cost           float64
			}
			t := saves[rng.Intn(len(saves))]
			if _, err := postJSON(cli, api+"/save", reqID, map[string]any{"tuple": tupleJSON(local.Schema, t)}, &adj); err != nil {
				return outcome{failed: true, problem: err.Error()}
			}
			if adj.Saved == adj.Natural || adj.Cost < 0 {
				return outcome{problem: fmt.Sprintf("save answered saved=%t natural=%t cost=%g", adj.Saved, adj.Natural, adj.Cost)}
			}
		case "mutate":
			return mutate(cli, api, reqID, st, c, rng)
		}
		return outcome{}
	}

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	loop, heap := heapLoop(phase, mixedHeapAfter, cfg.seed, "serve", name, pick, exec)
	rep.absorb(loop)
	setServingE2E(rep, loop, "save", "detect", heap)
	rep.nameLatency("save", loop.lat["save"])
	rep.nameLatency("detect", loop.lat["detect"])
	rep.nameLatency("mutate", loop.lat["mutate"])

	var traced *loopResult
	var before, after serve.SessionInfo
	var tr *tracer
	var rejected int64
	if cfg.trace {
		tr = newTracer()
		before = sess.Info()
		r0, err := rejected429(cli, lb.url)
		if err != nil {
			return nil, err
		}
		traced = closedLoop(phase, 0, cfg.seed+2, tr, "serve", name+"-traced", pick, exec)
		rep.absorb(traced)
		after = sess.Info()
		r1, err := rejected429(cli, lb.url)
		if err != nil {
			return nil, err
		}
		rejected = r1 - r0
	}

	// Quiescent checks: the count invariant, the build accounting, and
	// the serving path against direct calls on the same state.
	info := sess.Info()
	final := st.live()
	det, err := core.DetectContext(ctx, final, cons, nil)
	if err != nil {
		return nil, err
	}
	if info.Outliers != len(det.Outliers) || info.Tuples != final.N() {
		rep.problemf("session holds %d tuples with %d outliers; detection from scratch on the %d live rows finds %d",
			info.Tuples, info.Outliers, final.N(), len(det.Outliers))
	}
	if info.IndexBuilds != 2+2*info.Compactions {
		rep.problemf("index_builds %d, want 2 + 2·compactions = %d", info.IndexBuilds, 2+2*info.Compactions)
	}
	hop, err := hopSave(ctx, cli, api, name, sess, local.Schema, saves, rep)
	if err != nil {
		return nil, err
	}
	hopD, err := hopDetect(cli, api, name, sess, local, cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	rep.name("serve_rps", float64(loop.completed())/loop.wall.Seconds(), "req/s", loop.completed())
	rep.name("live_heap_mb", heap, "MiB", 1)
	rep.name("fail_frac", ratio(float64(loop.failed), float64(loop.attempted)), "ratio", int(loop.attempted))

	if cfg.trace {
		if err := servingLayers(ctx, cfg, rep, tr, name, local, cons, 2, loop, traced, info.Timings.Total); err != nil {
			return nil, err
		}
		rep.setSaveLayers(&hop.direct)
		rep.setLayer("serve.hop_save_ms", (hop.http.median()-hop.direct.times.median())*1e3, "ms")
		rep.setLayer("serve.hop_detect_ms", (hopD.http.median()-hopD.direct.median())*1e3, "ms")
		d := after.Stats
		sub(&d, &before.Stats)
		rep.setKernelLayers(local, parse, d, cfg.seed)
		rep.setLayer("neighbors.range_queries", float64(d.RangeQueries), "count")
		rep.setLayer("neighbors.knn_queries", float64(d.KNNQueries), "count")
		rep.setLayer("neighbors.evals_per_range_query", ratio(float64(hopD.evals), float64(hopD.queries)), "count")
		rep.setLayer("neighbors.grid_fallbacks", float64(d.GridFallbacks), "count")
		setServeHists(rep, before, after, traced.wall)
		rep.setLayer("serve.rejected_429", float64(rejected), "count")
		rep.setLayer("serve.index_builds", float64(after.IndexBuilds), "count")
		muts := float64((after.Inserted + after.Deleted + after.Updated) - (before.Inserted + before.Deleted + before.Updated))
		rep.setLayer("serve.mutations", muts, "count")
		rep.setLayer("serve.mutate_redetect_touched_per_op", ratio(float64(after.Redetect-before.Redetect), muts), "count")
		rep.setLayer("serve.mutate_compactions", float64(after.Compactions-before.Compactions), "count")
		rep.offPath("coord.scatters", "coord.scatter_overhead_ms", "coord.detect_overhead_ms", "coord.chunks_per_request", "coord.failovers")
	}
	return rep, nil
}

// mutate inserts a perturbed, typo'd copy of a live row, or — once the
// client has 8 inserts outstanding — deletes its oldest insert, so the
// live size stays near N.
func mutate(cli *http.Client, api, reqID string, st *mixedState, c int, rng *rand.Rand) outcome {
	st.mu.Lock()
	var victim = -1
	if len(st.fifo[c]) >= 8 {
		victim = st.fifo[c][0]
		st.fifo[c] = st.fifo[c][1:]
	}
	src := st.base.Tuples[rng.Intn(st.base.N())]
	st.mu.Unlock()
	if victim >= 0 {
		if _, err := call(cli, http.MethodDelete, fmt.Sprintf("%s/tuples/%d", api, victim), reqID, "", nil, nil); err != nil {
			return outcome{failed: true, problem: err.Error()}
		}
		st.mu.Lock()
		delete(st.inserts, victim)
		st.mu.Unlock()
		return outcome{}
	}
	t := jitter(st.sch, src, rng, 0.1)
	for a, at := range st.sch.Attrs {
		if at.Kind == data.Text && rng.Intn(2) == 0 {
			t[a] = data.Str(typo(rng, t[a].Str))
			break
		}
	}
	var resp struct {
		Index int `json:"index"`
	}
	if _, err := postJSON(cli, api+"/tuples", reqID, map[string]any{"tuple": tupleJSON(st.sch, t)}, &resp); err != nil {
		return outcome{failed: true, problem: err.Error()}
	}
	st.mu.Lock()
	st.inserts[resp.Index] = t
	st.fifo[c] = append(st.fifo[c], resp.Index)
	st.mu.Unlock()
	return outcome{}
}

// setServingE2E reports a serving workload's end-to-end metrics: the
// median of its save-path and query-path requests, completed requests per
// second, and the heap.
func setServingE2E(rep *report, loop *loopResult, saveKind, queryKind string, heap float64) {
	rep.e2e["save_p50_ms"] = metricVal{loop.lat[saveKind].median() * 1e3, "ms"}
	rep.e2e["query_p50_ms"] = metricVal{loop.lat[queryKind].median() * 1e3, "ms"}
	rep.e2e["throughput"] = metricVal{float64(loop.completed()) / loop.wall.Seconds(), "1/s"}
	rep.e2e["live_heap_mb"] = metricVal{heap, "MiB"}
}

// hopResult pairs HTTP latencies with the direct calls on the same inputs.
type hopResult struct {
	http   samples
	direct saveAgg
}

// hopSave sends each outlier of the pool (up to 48) to /save and to the
// session's Saver.SaveOne directly, on the same quiescent state. The
// answers must agree; the latency difference is the HTTP and batcher hop.
func hopSave(ctx context.Context, cli *http.Client, api, prefix string, sess *serve.Session, sch *data.Schema, saves []data.Tuple, rep *report) (*hopResult, error) {
	var h hopResult
	for k, t := range saves[:min(len(saves), 48)] {
		var adj struct {
			Saved bool
			Cost  float64
		}
		t0 := time.Now()
		if _, err := postJSON(cli, api+"/save", fmt.Sprintf("%s-hop-save-%d", prefix, k), map[string]any{"tuple": tupleJSON(sch, t)}, &adj); err != nil {
			return nil, err
		}
		h.http.add(time.Since(t0))
		t0 = time.Now()
		want := sess.Saver.SaveOne(ctx, t)
		h.direct.add(want, time.Since(t0))
		if adj.Saved != want.Saved() || (want.Saved() && adj.Cost != want.Cost) {
			rep.problemf("/save of outlier %d answered saved=%t cost=%g; Saver.SaveOne on the same state gives saved=%t cost=%g",
				k, adj.Saved, adj.Cost, want.Saved(), want.Cost)
		}
	}
	return &h, nil
}

// hopDetectResult pairs /detect latencies with direct counting calls.
type hopDetectResult struct {
	http, direct   samples
	queries, evals int64
}

// hopDetect sends 32 batches of 16 sampled rows to /detect and counts the
// same tuples directly against the session's full-relation index; the
// answers must agree.
func hopDetect(cli *http.Client, api, prefix string, sess *serve.Session, local *data.Relation, seed int64, rep *report) (*hopDetectResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var h hopDetectResult
	var cnt neighbors.Counters
	view := neighbors.Counting(sess.RelIdx, &cnt)
	for b := 0; b < 32; b++ {
		batch := make([]data.Tuple, 16)
		wire := make([][]any, len(batch))
		for i := range batch {
			batch[i] = local.Tuples[rng.Intn(local.N())]
			wire[i] = tupleJSON(local.Schema, batch[i])
		}
		var resp struct {
			Results []struct {
				Neighbors int `json:"neighbors"`
			} `json:"results"`
		}
		t0 := time.Now()
		if _, err := postJSON(cli, api+"/detect", fmt.Sprintf("%s-hop-detect-%d", prefix, b), map[string]any{"tuples": wire}, &resp); err != nil {
			return nil, err
		}
		h.http.add(time.Since(t0))
		got := make([]int, len(batch))
		t0 = time.Now()
		for i, t := range batch {
			got[i] = view.CountWithin(t, sess.Cons.Eps, -1, sess.Cons.Eta)
		}
		h.direct.add(time.Since(t0))
		for i := range batch {
			if i >= len(resp.Results) || resp.Results[i].Neighbors != got[i] {
				rep.problemf("/detect batch %d tuple %d disagrees with a direct count of %d", b, i, got[i])
				break
			}
		}
	}
	h.queries, h.evals = cnt.RangeQueries, cnt.DistEvals
	return &h, nil
}

// rejected429 sums the admission refusals over every endpoint in /varz.
func rejected429(cli *http.Client, base string) (int64, error) {
	var v struct {
		Endpoints map[string]obs.EndpointSnapshot `json:"endpoints"`
	}
	if _, err := call(cli, http.MethodGet, base+"/varz", "varz", "", nil, &v); err != nil {
		return 0, err
	}
	var n int64
	for _, e := range v.Endpoints {
		n += e.Rejected
	}
	return n, nil
}

// sub subtracts the index traffic counters of o from s.
func sub(s, o *obs.SearchStats) {
	s.KNNQueries -= o.KNNQueries
	s.RangeQueries -= o.RangeQueries
	s.DistEvals -= o.DistEvals
	s.GridFallbacks -= o.GridFallbacks
	s.DistEarlyExits -= o.DistEarlyExits
	s.TextCacheHits -= o.TextCacheHits
	s.TextCacheMisses -= o.TextCacheMisses
}

// histDelta is the distribution of the observations between two snapshots.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

// setServeHists reports the batcher's queueing and batching over the
// traced phase, and the share of the dispatch workers' time spent saving.
func setServeHists(rep *report, before, after serve.SessionInfo, wall time.Duration) {
	qw := histDelta(before.Hists.QueueWait, after.Hists.QueueWait)
	bs := histDelta(before.Hists.BatchSize, after.Hists.BatchSize)
	sv := histDelta(before.Hists.Save, after.Hists.Save)
	rep.setLayer("serve.queue_wait_p50_ms", qw.Quantile(0.5)/1e6, "ms")
	rep.setLayer("serve.batches", float64(bs.Count), "count")
	rep.setLayer("serve.batch_size_mean", bs.Mean(), "count")
	// The batcher dispatches over GOMAXPROCS workers (serve.Config's
	// default).
	workers := float64(runtime.GOMAXPROCS(0))
	rep.setLayer("par.workers", workers, "count")
	rep.setLayer("par.save_busy_frac", ratio(float64(sv.Sum)/1e9, workers*wall.Seconds()), "ratio")
}

// servingLayers reports what a serving workload's traced run adds: the
// session build split into layers (replayed on the uploaded bytes with
// the serving indexes), the program's own build time, Mutable inserts,
// and the trace's overhead and coverage.
func servingLayers(ctx context.Context, cfg runConfig, rep *report, tr *tracer, name string, local *data.Relation,
	cons core.Constraints, kappa int, untraced, traced *loopResult, build time.Duration) error {
	root := tr.open("bench.build", name+"-build", -1)
	b, err := tracedBuild(ctx, tr, name+"-build", root, local, cons, kappa, true)
	tr.close(root)
	if err != nil {
		return err
	}
	rep.setBuildLayers(b, local.N())
	ins, err := mutableInsertNs(local, cons.Eps, cfg.seed)
	if err != nil {
		return err
	}
	rep.setLayer("neighbors.mutable_insert_ns", ins, "ns")
	rep.setLayer("serve.session_build_s", build.Seconds(), "s")
	spans := tr.finish()
	if err := writeTrace(outDir+"/traces", fmt.Sprintf("%s-seed%d.json", name, cfg.seed), spans); err != nil {
		return err
	}
	u := untraced.meanLatency()
	rep.setLayer("trace.overhead_frac", ratio(traced.meanLatency()-u, u), "ratio")
	rep.setLayer("trace.unattributed_frac", unattributed(spans), "ratio")
	rep.setLayer("trace.spans", float64(len(spans)), "count")
	rep.offPath(servingOffPath...)
	return nil
}
