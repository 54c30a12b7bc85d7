package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/serve/coord"
)

// coordWorkers and coordReplicas shape coord-scatter's fleet: three
// in-process workers, every session on two of them.
const coordWorkers, coordReplicas = 3, 2

// coordHeapAfter is how many coord-scatter requests run before the heap
// is taken: about 2 s of the loop on two cores.
const coordHeapAfter = 300

// coordRequest is one pooled request with the answer a single-node server
// holding the same data gives to it.
type coordRequest struct {
	kind string // "detect" or "repair"
	body []byte
	want map[string]any
}

func runCoordScatter(cfg runConfig) (*report, error) {
	ctx := context.Background()
	const name = "coord-scatter"
	ds, err := data.Table1("Letter", letterScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, ds.Rel); err != nil {
		return nil, err
	}
	csv := buf.Bytes()
	cons := core.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	local, parse, err := readCSVTimed(csv, setupReps)
	if err != nil {
		return nil, err
	}
	det, err := core.DetectContext(ctx, local, cons, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.input = inputInfo{SHA256: digestCSV(csv), Bytes: len(csv), Rows: local.N(), Attrs: local.Schema.M(), Outliers: len(det.Outliers)}

	// The fleet: workers, the coordinator over them, and a single-node
	// reference server holding the same data.
	var servers []*serve.Server
	var lbs []*loopback
	defer func() {
		for _, lb := range lbs {
			lb.close()
		}
		for _, s := range servers {
			_ = s.Shutdown(context.Background()) // queues are idle by now
		}
	}()
	start := func() (*serve.Server, *loopback, error) {
		s := serve.New(serve.Config{})
		lb, err := listen(s.Handler())
		if err != nil {
			return nil, nil, err
		}
		servers, lbs = append(servers, s), append(lbs, lb)
		return s, lb, nil
	}
	var urls []string
	workers := map[string]*serve.Server{}
	for i := 0; i < coordWorkers; i++ {
		s, lb, err := start()
		if err != nil {
			return nil, err
		}
		urls = append(urls, lb.url)
		workers[lb.url] = s
	}
	co, err := coord.New(coord.Config{Workers: urls, Replicas: coordReplicas})
	if err != nil {
		return nil, err
	}
	colb, err := listen(co.Handler())
	if err != nil {
		return nil, err
	}
	lbs = append(lbs, colb)
	_, reflb, err := start()
	if err != nil {
		return nil, err
	}
	cli := newHTTPClient()
	defer cli.CloseIdleConnections()

	q := url.Values{"eps": {strconv.FormatFloat(cons.Eps, 'g', -1, 64)}, "eta": {strconv.Itoa(cons.Eta)}, "kappa": {"2"}, "name": {name}}
	answers, setup, err := uploadTimed(cli, colb.url, name, csv, q, setupRepsServing)
	if err != nil {
		return nil, err
	}
	placement, err := keepLast(cli, colb.url, name, answers)
	if err != nil {
		return nil, err
	}
	if len(placement.Owners) != coordReplicas {
		return nil, fmt.Errorf("placement has %d owners, want %d", len(placement.Owners), coordReplicas)
	}
	rep.e2e["setup_s"] = metricVal{setup.median(), "s"}
	rep.name("setup_s", setup.median(), "s", len(setup))
	refAns, _, err := uploadTimed(cli, reflb.url, name+"-reference", csv, q, 1)
	if err != nil {
		return nil, err
	}

	pool, err := coordPool(cli, reflb.url+"/v1/datasets/"+refAns[0].ID, local, det.Outliers, cfg.seed)
	if err != nil {
		return nil, err
	}
	api := colb.url + "/v1/datasets/" + placement.ID
	byKind := map[string][]coordRequest{}
	for _, r := range pool {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	pick := func(rng *rand.Rand) string {
		if rng.Float64() < 0.6 {
			return "detect"
		}
		return "repair"
	}
	exec := func(_ int, rng *rand.Rand, kind, reqID string) outcome {
		reqs := byKind[kind]
		return sendPooled(cli, api, reqID, reqs[rng.Intn(len(reqs))])
	}
	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	loop, heap := heapLoop(phase, coordHeapAfter, cfg.seed, "coord", name, pick, exec)
	rep.absorb(loop)
	setServingE2E(rep, loop, "repair", "detect", heap)
	rep.nameLatency("repair", loop.lat["repair"])
	rep.nameLatency("detect", loop.lat["detect"])
	rep.name("serve_rps", float64(loop.completed())/loop.wall.Seconds(), "req/s", loop.completed())
	rep.name("live_heap_mb", heap, "MiB", 1)
	rep.name("fail_frac", ratio(float64(loop.failed), float64(loop.attempted)), "ratio", int(loop.attempted))
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	owner := placement.Owners[0]
	osess, ok := workers[owner.Worker].Registry().Get(owner.Session)
	if !ok {
		return nil, fmt.Errorf("owner session %s vanished", owner.Session)
	}
	before, cs0 := osess.Info(), co.Stats()
	traced := closedLoop(phase, 0, cfg.seed+2, tr, "coord", name+"-traced", pick, exec)
	rep.absorb(traced)
	after, cs1 := osess.Info(), co.Stats()

	// The coordinator's cost: the same pooled requests sent one at a time
	// through it and straight to one owner worker.
	direct := owner.Worker + "/v1/datasets/" + owner.Session
	over := map[string]*[2]samples{"detect": {}, "repair": {}}
	for i, r := range pool {
		for j, base := range []string{api, direct} {
			t0 := time.Now()
			if o := sendPooled(cli, base, fmt.Sprintf("%s-hop-%d-%d", name, i, j), r); o.failed || o.problem != "" {
				rep.problemf("sequential %s %d: failed=%t %s", r.kind, i, o.failed, o.problem)
			}
			over[r.kind][j].add(time.Since(t0))
		}
	}
	rep.setLayer("coord.scatter_overhead_ms", (over["repair"][0].median()-over["repair"][1].median())*1e3, "ms")
	rep.setLayer("coord.detect_overhead_ms", (over["detect"][0].median()-over["detect"][1].median())*1e3, "ms")
	scatters := cs1.Scatters - cs0.Scatters
	rep.setLayer("coord.scatters", float64(scatters), "count")
	rep.setLayer("coord.chunks_per_request", ratio(float64(cs1.ScatterChunks-cs0.ScatterChunks), float64(scatters)), "count")
	rep.setLayer("coord.failovers", float64(cs1.Failovers-cs0.Failovers), "count")

	// The owner worker's view of the traced phase: its share of the
	// traffic, its batcher, and its saves through the direct hop.
	d := after.Stats
	sub(&d, &before.Stats)
	rep.setKernelLayers(local, parse, d, cfg.seed)
	rep.setLayer("neighbors.range_queries", float64(d.RangeQueries), "count")
	rep.setLayer("neighbors.knn_queries", float64(d.KNNQueries), "count")
	rep.setLayer("neighbors.grid_fallbacks", float64(d.GridFallbacks), "count")
	setServeHists(rep, before, after, traced.wall)
	r, err := rejected429(cli, owner.Worker)
	if err != nil {
		return nil, err
	}
	rep.setLayer("serve.rejected_429", float64(r), "count")
	rep.setLayer("serve.index_builds", float64(after.IndexBuilds), "count")
	saves := make([]data.Tuple, len(det.Outliers))
	for k, i := range det.Outliers {
		saves[k] = local.Tuples[i]
	}
	hop, err := hopSave(ctx, cli, direct, name, osess, local.Schema, saves, rep)
	if err != nil {
		return nil, err
	}
	hopD, err := hopDetect(cli, direct, name, osess, local, cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	rep.setSaveLayers(&hop.direct)
	rep.setLayer("serve.hop_save_ms", (hop.http.median()-hop.direct.times.median())*1e3, "ms")
	rep.setLayer("serve.hop_detect_ms", (hopD.http.median()-hopD.direct.median())*1e3, "ms")
	rep.setLayer("neighbors.evals_per_range_query", ratio(float64(hopD.evals), float64(hopD.queries)), "count")
	rep.offPath("serve.mutations", "serve.mutate_redetect_touched_per_op", "serve.mutate_compactions")
	return rep, servingLayers(ctx, cfg, rep, tr, name, local, cons, 2, loop, traced, osess.Info().Timings.Total)
}

// coordPool draws the seeded request pool — 64 /detect batches of 64 rows
// and 32 /repair batches of 8 outliers — and records the single-node
// reference server's answer to each.
func coordPool(cli *http.Client, ref string, local *data.Relation, outliers []int, seed int64) ([]coordRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []coordRequest
	for i := 0; i < 96; i++ {
		r := coordRequest{kind: "detect"}
		size, from := 64, func() int { return rng.Intn(local.N()) }
		if i >= 64 {
			r.kind = "repair"
			size, from = 8, func() int { return outliers[rng.Intn(len(outliers))] }
		}
		tuples := make([][]any, size)
		for k := range tuples {
			tuples[k] = tupleJSON(local.Schema, local.Tuples[from()])
		}
		b, err := json.Marshal(map[string]any{"tuples": tuples})
		if err != nil {
			return nil, err
		}
		r.body = b
		if _, err := call(cli, http.MethodPost, ref+"/"+r.kind, fmt.Sprintf("reference-%d", i), "application/json", b, &r.want); err != nil {
			return nil, fmt.Errorf("reference answer: %w", err)
		}
		pool = append(pool, r)
	}
	return pool, nil
}

// sendPooled sends a pooled request and compares the answer, less the
// coordinator's partial markers, with the single-node reference's. A
// partial answer counts as failed.
func sendPooled(cli *http.Client, api, reqID string, r coordRequest) outcome {
	var got map[string]any
	if _, err := call(cli, http.MethodPost, api+"/"+r.kind, reqID, "application/json", r.body, &got); err != nil {
		return outcome{failed: true, problem: err.Error()}
	}
	if partial, _ := got["partial"].(bool); partial {
		return outcome{failed: true, problem: reqID + ": partial answer"}
	}
	delete(got, "partial")
	delete(got, "errors")
	if !reflect.DeepEqual(got, r.want) {
		return outcome{problem: fmt.Sprintf("%s: /%s answer differs from the single-node server's", reqID, r.kind)}
	}
	return outcome{}
}
