package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	disc "repro"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/promtest"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// testDataset builds a deterministic 2-attr relation: one dense 6x6 grid
// cluster (every point has well over eta neighbors at eps=1) plus six
// isolated outliers, returned as CSV plus the rows as request tuples.
func testDataset(t *testing.T) (csv string, tuples [][]any, outliers [][]any) {
	t.Helper()
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			rel.Append(data.Tuple{data.Num(float64(i) * 0.4), data.Num(float64(j) * 0.4)})
		}
	}
	iso := [][2]float64{{20, 20}, {30, -10}, {-25, 5}, {40, 40}, {-30, -30}, {15, -35}}
	for _, p := range iso {
		rel.Append(data.Tuple{data.Num(p[0]), data.Num(p[1])})
	}
	var buf bytes.Buffer
	if err := disc.WriteCSV(&buf, rel); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	tuples = make([][]any, rel.N())
	for i, tp := range rel.Tuples {
		tuples[i] = []any{tp[0].Num, tp[1].Num}
	}
	for _, p := range iso {
		outliers = append(outliers, []any{p[0], p[1]})
	}
	return buf.String(), tuples, outliers
}

// testMaxBody caps request bodies on the fleet's workers and on the
// coordinator alike, small enough for a test to overflow.
const testMaxBody = 1 << 16

// fleet is the single-process substrate: n real serve.Server registries
// behind httptest listeners.
type fleet struct {
	urls    []string
	servers []*httptest.Server
	workers []*serve.Server
}

func startFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{MaxSessions: 16, MaxBodyBytes: testMaxBody})
		ts := httptest.NewServer(srv.Handler())
		f.urls = append(f.urls, ts.URL)
		f.servers = append(f.servers, ts)
		f.workers = append(f.workers, srv)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.servers[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			f.workers[i].Shutdown(ctx)
			cancel()
		}
	})
	return f
}

// kill closes the worker at url so calls to it fail at the TCP layer.
func (f *fleet) kill(t *testing.T, url string) {
	t.Helper()
	for i, u := range f.urls {
		if u == url {
			f.servers[i].Close()
			return
		}
	}
	t.Fatalf("kill: unknown worker %q", url)
}

func startCoord(t *testing.T, f *fleet, replicas int) (*Coordinator, *httptest.Server, *client.Client) {
	t.Helper()
	co, err := New(Config{Workers: f.urls, Replicas: replicas, RequestTimeout: 5 * time.Second,
		MaxBodyBytes: testMaxBody})
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(client.Config{BaseURL: ts.URL, MaxRetries: -1, RequestTimeout: 10 * time.Second})
	return co, ts, cl
}

// rawPost posts a JSON body without the retrying client, for asserting
// exact status codes.
func rawPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

var testParams = serve.BuildParams{Eps: 1, Eta: 3, Kappa: 2}

// TestCoordinatorEndToEnd drives the whole proxied surface against a
// 3-worker fleet and checks every answer against a plain single worker
// serving the same dataset: scatter/gather over full replicas must be
// invisible to the caller.
func TestCoordinatorEndToEnd(t *testing.T) {
	ctx := context.Background()
	csv, tuples, outliers := testDataset(t)
	f := startFleet(t, 3)
	co, _, cl := startCoord(t, f, 2)

	// Baseline: the same dataset on a lone worker, called directly.
	base := client.New(client.Config{BaseURL: f.urls[0], MaxRetries: -1})
	baseInfo, err := base.CreateDatasetCSV(ctx, "baseline", csv, testParams)
	if err != nil {
		t.Fatalf("baseline create: %v", err)
	}

	info, err := cl.CreateDatasetCSV(ctx, "e2e", csv, testParams)
	if err != nil {
		t.Fatalf("coordinated create: %v", err)
	}
	if !strings.HasPrefix(info.ID, "g-") {
		t.Errorf("placement id = %q, want g- prefix", info.ID)
	}
	if info.Tuples != len(tuples) {
		t.Errorf("created session has %d tuples, want %d", info.Tuples, len(tuples))
	}
	p, ok := co.placementOf(info.ID)
	if !ok || len(p.Owners) != 2 {
		t.Fatalf("placement %q has owners %+v, want 2", info.ID, p)
	}
	if snap := co.Stats(); snap.PlacementsCreated != 1 || snap.PlacementsDegraded != 0 {
		t.Errorf("placement counters = %+v, want created=1 degraded=0", snap)
	}

	// Detect, member mode, over every row: chunked across two owners yet
	// bit-identical to the single-node answer.
	want, err := base.Detect(ctx, baseInfo.ID, tuples, true)
	if err != nil {
		t.Fatalf("baseline detect: %v", err)
	}
	got, err := cl.Detect(ctx, info.ID, tuples, true)
	if err != nil {
		t.Fatalf("coordinated detect: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinated detect diverged:\n got %+v\nwant %+v", got, want)
	}
	nOut := 0
	for _, res := range got.Results {
		if res.Outlier {
			nOut++
		}
	}
	if nOut != len(outliers) {
		t.Fatalf("detected %d outliers, want %d", nOut, len(outliers))
	}

	// Repair the outliers: merged adjustments equal the single-node run.
	wantRep, err := base.Repair(ctx, baseInfo.ID, outliers, 0)
	if err != nil {
		t.Fatalf("baseline repair: %v", err)
	}
	gotRep, err := cl.Repair(ctx, info.ID, outliers, 0)
	if err != nil {
		t.Fatalf("coordinated repair: %v", err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("coordinated repair diverged:\n got %+v\nwant %+v", gotRep, wantRep)
	}
	if snap := co.Stats(); snap.Scatters != 2 || snap.ScatterChunks != 4 {
		t.Errorf("scatter counters = %+v, want 2 scatters / 4 chunks", snap)
	}

	// Single-tuple save proxies with the same answer.
	wantAdj, err := base.SaveTuple(ctx, baseInfo.ID, outliers[0], 0)
	if err != nil {
		t.Fatalf("baseline save: %v", err)
	}
	gotAdj, err := cl.SaveTuple(ctx, info.ID, outliers[0], 0)
	if err != nil {
		t.Fatalf("coordinated save: %v", err)
	}
	if !reflect.DeepEqual(gotAdj, wantAdj) {
		t.Fatalf("coordinated save diverged: %+v vs %+v", gotAdj, wantAdj)
	}

	// The merged session view sums owner work: two owners each served a
	// detect chunk, so merged detects cover every tuple exactly once.
	merged, err := cl.Session(ctx, info.ID)
	if err != nil {
		t.Fatalf("coordinated session get: %v", err)
	}
	if merged.ID != info.ID {
		t.Errorf("merged info id = %q, want %q", merged.ID, info.ID)
	}
	if merged.Detects != int64(len(tuples)) {
		t.Errorf("merged detects = %d, want %d", merged.Detects, len(tuples))
	}
	if merged.Stats.Nodes == 0 {
		t.Error("merged SearchStats.Nodes = 0 after repairs")
	}

	// Delete removes the placement and every replica.
	if err := cl.Delete(ctx, info.ID); err != nil {
		t.Fatalf("coordinated delete: %v", err)
	}
	if _, err := cl.Session(ctx, info.ID); err == nil {
		t.Fatal("session still answers after delete")
	}
	// Only the directly-created baseline session (worker 0) survives.
	total := 0
	for _, w := range f.workers {
		total += len(w.Registry().List())
	}
	if total != 1 {
		t.Errorf("workers hold %d sessions after delete, want only the baseline", total)
	}
}

// TestCoordinatorFailoverAfterWorkerLoss kills one owner of a placement
// and asserts the coordinator keeps answering in full via the surviving
// replica, counts the failover, reports the degradation in /varz, and
// answers 503 only once the second (last) owner dies too.
func TestCoordinatorFailoverAfterWorkerLoss(t *testing.T) {
	ctx := context.Background()
	csv, tuples, outliers := testDataset(t)
	f := startFleet(t, 3)
	co, cts, cl := startCoord(t, f, 2)

	info, err := cl.CreateDatasetCSV(ctx, "failover", csv, testParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	clean, err := cl.Repair(ctx, info.ID, outliers, 0)
	if err != nil {
		t.Fatalf("repair before loss: %v", err)
	}

	p, _ := co.placementOf(info.ID)
	f.kill(t, p.Owners[0].URL)

	// Detect and repair still answer, in full, via the survivor.
	det, err := cl.Detect(ctx, info.ID, tuples, true)
	if err != nil {
		t.Fatalf("detect after killing owner: %v", err)
	}
	if len(det.Results) != len(tuples) {
		t.Fatalf("detect after loss returned %d results, want %d", len(det.Results), len(tuples))
	}
	rep, err := cl.Repair(ctx, info.ID, outliers, 0)
	if err != nil {
		t.Fatalf("repair after killing owner: %v", err)
	}
	if !reflect.DeepEqual(rep, clean) {
		t.Fatalf("repair after loss diverged:\n got %+v\nwant %+v", rep, clean)
	}
	snap := co.Stats()
	if snap.Failovers == 0 || snap.WorkerErrors == 0 {
		t.Errorf("loss left no trace: %+v, want failovers>0 worker_errors>0", snap)
	}
	if snap.ChunkFailures != 0 {
		t.Errorf("chunk failures = %d with a live replica, want 0", snap.ChunkFailures)
	}

	// /varz reports the placement degraded, with merged per-owner stats.
	var varz struct {
		Coord      obs.CoordSnapshot             `json:"coord"`
		Workers    map[string]obs.ClientSnapshot `json:"workers"`
		Placements []struct {
			ID     string `json:"id"`
			Owners []struct {
				Worker string           `json:"worker"`
				Live   bool             `json:"live"`
				Stats  *obs.SearchStats `json:"stats"`
			} `json:"owners"`
			Stats    obs.SearchStats `json:"stats"`
			Degraded bool            `json:"degraded"`
		} `json:"placements"`
	}
	status, body := rawGet(t, cts.URL+"/varz")
	if status != http.StatusOK {
		t.Fatalf("/varz status %d", status)
	}
	if err := json.Unmarshal(body, &varz); err != nil {
		t.Fatalf("/varz decode: %v", err)
	}
	if len(varz.Placements) != 1 || !varz.Placements[0].Degraded {
		t.Fatalf("/varz placements = %+v, want one degraded placement", varz.Placements)
	}
	if varz.Placements[0].Stats.Nodes == 0 {
		t.Error("/varz merged placement stats are empty after repairs")
	}
	live := 0
	for _, o := range varz.Placements[0].Owners {
		if o.Live {
			live++
			if o.Stats == nil {
				t.Error("/varz live owner carries no stats")
			}
		}
	}
	if live != 1 {
		t.Errorf("/varz live owners = %d, want 1", live)
	}
	if varz.Coord.Failovers == 0 {
		t.Error("/varz coord.failovers = 0 after a failover")
	}

	// /metrics is valid exposition text and carries the labeled families.
	status, body = rawGet(t, cts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if _, err := promtest.Parse(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v", err)
	}
	for _, want := range []string{
		"disc_coord_failovers_total",
		"disc_coord_worker_client_requests_total{worker=",
		"disc_coord_shard_search_nodes_total{session=",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Kill the last owner: now every answer is an honest 503.
	f.kill(t, p.Owners[1].URL)
	status, _ = rawPost(t, cts.URL+"/v1/datasets/"+info.ID+"/repair",
		map[string]any{"tuples": outliers})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("repair with all owners dead: status %d, want 503", status)
	}
	status, _ = rawPost(t, cts.URL+"/v1/datasets/"+info.ID+"/save",
		map[string]any{"tuple": outliers[0]})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("save with all owners dead: status %d, want 503", status)
	}
	status, _ = rawGet(t, cts.URL+"/v1/datasets/"+info.ID)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("get with all owners dead: status %d, want 503", status)
	}
	if snap := co.Stats(); snap.ChunkFailures == 0 || snap.PartialResponses != 0 {
		t.Errorf("all-owners-lost counters = %+v, want chunk_failures>0 partial_responses=0", snap)
	}
}

// TestCoordinatorChaosKilledChunk kills exactly one chunk dispatch
// mid-scatter via the shard.dispatch fault site and asserts the partial
// contract: a 200 with the surviving chunk's results intact, the lost
// range marked with sentinel entries and a chunk error, and no hang.
func TestCoordinatorChaosKilledChunk(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	csv, tuples, _ := testDataset(t)
	f := startFleet(t, 3)
	co, cts, cl := startCoord(t, f, 2)
	info, err := cl.CreateDatasetCSV(ctx, "chaos", csv, testParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want, err := cl.Detect(ctx, info.ID, tuples, true)
	if err != nil {
		t.Fatalf("clean detect: %v", err)
	}

	boom := errors.New("injected chunk loss")
	var n atomic.Int64
	fault.SetHook(fault.ShardDispatch, func() error {
		if n.Add(1) == 2 {
			return boom
		}
		return nil
	})
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		status, body = rawPost(t, cts.URL+"/v1/datasets/"+info.ID+"/detect",
			map[string]any{"tuples": tuples, "member": true})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scatter hung after a killed chunk")
	}
	fault.Reset()
	if status != http.StatusOK {
		t.Fatalf("partial detect status %d, want 200: %s", status, body)
	}
	var resp struct {
		Results []serve.DetectResult `json:"results"`
		Partial bool                 `json:"partial"`
		Errors  []struct {
			Chunk int    `json:"chunk"`
			From  int    `json:"from"`
			To    int    `json:"to"`
			Error string `json:"error"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding partial response: %v", err)
	}
	if !resp.Partial || len(resp.Errors) != 1 {
		t.Fatalf("partial=%v errors=%+v, want one lost chunk", resp.Partial, resp.Errors)
	}
	ce := resp.Errors[0]
	if !strings.Contains(ce.Error, boom.Error()) {
		t.Errorf("chunk error %q does not carry the injected fault", ce.Error)
	}
	for i, res := range resp.Results {
		if i >= ce.From && i < ce.To {
			if res.Neighbors != -1 {
				t.Fatalf("lost tuple %d has neighbors=%d, want sentinel -1", i, res.Neighbors)
			}
		} else if !reflect.DeepEqual(res, want.Results[i]) {
			t.Fatalf("surviving tuple %d diverged: %+v vs %+v", i, res, want.Results[i])
		}
	}
	snap := co.Stats()
	if snap.ChunkFailures != 1 || snap.PartialResponses != 1 {
		t.Errorf("chaos counters = %+v, want chunk_failures=1 partial_responses=1", snap)
	}
}

// TestCoordinatorChaosDelayedChunk delays one chunk dispatch and asserts
// the scatter still returns complete, partial-free results — slowness
// must cost latency, never answers.
func TestCoordinatorChaosDelayedChunk(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	csv, tuples, _ := testDataset(t)
	f := startFleet(t, 3)
	_, cts, cl := startCoord(t, f, 2)
	info, err := cl.CreateDatasetCSV(ctx, "chaos-delay", csv, testParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var delayed atomic.Bool
	fault.SetHook(fault.ShardDispatch, func() error {
		if delayed.CompareAndSwap(false, true) {
			time.Sleep(150 * time.Millisecond)
		}
		return nil
	})
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		status, body = rawPost(t, cts.URL+"/v1/datasets/"+info.ID+"/detect",
			map[string]any{"tuples": tuples, "member": true})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scatter hung behind a delayed chunk")
	}
	fault.Reset()
	if status != http.StatusOK {
		t.Fatalf("detect status %d: %s", status, body)
	}
	var resp struct {
		Partial bool `json:"partial"`
		Results []serve.DetectResult
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatal("a delayed chunk must not degrade the response")
	}
}

// TestCoordinatorChaosMergeFault kills the gather (shard.merge site) and
// asserts the request fails closed with a 500 instead of emitting a
// half-merged answer.
func TestCoordinatorChaosMergeFault(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	csv, tuples, _ := testDataset(t)
	f := startFleet(t, 3)
	_, cts, cl := startCoord(t, f, 2)
	info, err := cl.CreateDatasetCSV(ctx, "chaos-merge", csv, testParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fault.SetHook(fault.ShardMerge, func() error { return errors.New("injected merge loss") })
	status, body := rawPost(t, cts.URL+"/v1/datasets/"+info.ID+"/detect",
		map[string]any{"tuples": tuples, "member": true})
	fault.Reset()
	if status != http.StatusInternalServerError {
		t.Fatalf("merge-fault detect status %d, want 500: %s", status, body)
	}
	if !strings.Contains(string(body), "injected merge loss") {
		t.Errorf("merge-fault body %q does not carry the injected fault", body)
	}
}

// TestCoordinatorRejections pins the edge answers: unknown sessions are
// 404, malformed bodies 400, a uniform worker-side refusal (bad CSV)
// passes through as its own status, and a draining coordinator refuses
// mutating requests with 503 and reports itself unready but alive.
func TestCoordinatorRejections(t *testing.T) {
	ctx := context.Background()
	f := startFleet(t, 3)
	co, cts, cl := startCoord(t, f, 2)

	status, _ := rawPost(t, cts.URL+"/v1/datasets/nope/detect", map[string]any{"tuples": [][]any{{1.0, 2.0}}})
	if status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
	resp, err := http.Post(cts.URL+"/v1/datasets", "application/json", strings.NewReader(`{"csv": `))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A truncated body is refused by every owner with the same 400, which
	// passes through instead of masquerading as coordinator trouble.
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed create: status %d, want 400", resp.StatusCode)
	}
	if _, err := cl.CreateDatasetCSV(ctx, "bad", "x\n\"unterminated", testParams); err == nil {
		t.Error("bad CSV create succeeded")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("bad CSV create error = %v, want pass-through 400", err)
		}
	}

	if err := co.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, _ = rawPost(t, cts.URL+"/v1/datasets", map[string]any{"csv": "x\n1\n"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("create while draining: status %d, want 503", status)
	}
	for path, want := range map[string]int{
		"/livez":   http.StatusOK,
		"/readyz":  http.StatusServiceUnavailable,
		"/healthz": http.StatusServiceUnavailable,
	} {
		if status, _ := rawGet(t, cts.URL+path); status != want {
			t.Errorf("%s while draining: status %d, want %d", path, status, want)
		}
	}
}

// TestCoordinatorRefusesLikeWorker sends each malformed request to a
// worker and to a coordinator over it. The coordinator decodes with the
// worker's decoder under the same body cap, so both must answer alike.
func TestCoordinatorRefusesLikeWorker(t *testing.T) {
	csv, _, _ := testDataset(t)
	f := startFleet(t, 1)
	co, cts, cl := startCoord(t, f, 1)
	info, err := cl.CreateDatasetCSV(context.Background(), "refuse", csv, testParams)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	p, _ := co.placementOf(info.ID)
	bases := map[string]string{
		"worker":      p.Owners[0].URL + "/v1/datasets/" + p.Owners[0].LocalID,
		"coordinator": cts.URL + "/v1/datasets/" + info.ID,
	}
	cases := []struct {
		name, endpoint, body string
		want                 int
	}{
		{"trailing data", "/detect", `{"tuples":[[0,0]]} {"tuples":[]}`, http.StatusBadRequest},
		{"stray closing brace", "/detect", `{"tuples":[[0,0]]}}`, http.StatusBadRequest},
		{"stray closing bracket", "/detect", `{"tuples":[[0,0]]}]`, http.StatusBadRequest},
		{"trailing whitespace", "/detect", "{\"tuples\":[[0,0]]}\n\t ", http.StatusOK},
		{"unknown field", "/detect", `{"tuples":[[0,0]],"membr":true}`, http.StatusBadRequest},
		{"no tuples", "/detect", `{"tuples":[]}`, http.StatusBadRequest},
		{"body over the cap", "/detect",
			`{"tuples":[[0,0]` + strings.Repeat(`,[0,0]`, testMaxBody/6) + `]}`,
			http.StatusRequestEntityTooLarge},
		{"tuple of the wrong width", "/save", `{"tuple":[0]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		for side, base := range bases {
			resp, err := http.Post(base+tc.endpoint, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s to the %s: %v", tc.name, side, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s: the %s answered %d, want %d", tc.name, side, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestCoordinatorRequiresWorkers pins the constructor contract.
func TestCoordinatorRequiresWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers succeeded")
	}
	if _, err := New(Config{Workers: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("New with duplicate workers succeeded")
	}
}
