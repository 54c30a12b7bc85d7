package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disc "repro"
	"repro/internal/obs"
)

// testRelation is a tight 2D cluster: every tuple has plenty of ε-neighbors
// under (ε=1, η=3), so the whole relation is inliers and the saver has a
// full-strength inlier set to repair against.
func testRelation() *disc.Relation {
	r := disc.NewRelation(disc.NewNumericSchema("x", "y"))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			r.Append(disc.Tuple{disc.Num(float64(i) * 0.4), disc.Num(float64(j) * 0.4)})
		}
	}
	return r
}

func testCSV(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := disc.WriteCSV(&buf, testRelation()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.String()
}

var testParams = BuildParams{Eps: 1, Eta: 3, Kappa: 2}

// outlierTuple is far from the cluster: detection flags it, a save adjusts
// it back.
func outlierTuple() disc.Tuple {
	return disc.Tuple{disc.Num(25), disc.Num(25)}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// do routes one request through the full middleware + mux stack.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

func uploadSession(t *testing.T, s *Server) SessionInfo {
	t.Helper()
	w := do(t, s, "POST", "/v1/datasets", CreateRequest{
		Name: "test", CSV: testCSV(t), Eps: 1, Eta: 3, Kappa: 2,
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
	}
	return decode[SessionInfo](t, w)
}

// TestWarmSaveNoRebuild is the acceptance criterion of the serving layer:
// repeated saves against a warm session run queries against the cached
// indexes and never rebuild them.
func TestWarmSaveNoRebuild(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	info := uploadSession(t, s)
	if info.IndexBuilds != 2 {
		t.Fatalf("fresh session index builds = %d, want 2 (detect + saver)", info.IndexBuilds)
	}
	if info.Inliers == 0 {
		t.Fatalf("no inliers in test session: %+v", info)
	}

	prevEvals := info.Stats.DistEvals
	for i := 0; i < 5; i++ {
		w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{
			Tuple: []any{25.0, 25.0},
		})
		if w.Code != http.StatusOK {
			t.Fatalf("save %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		adj := decode[Adjustment](t, w)
		if !adj.Saved {
			t.Fatalf("save %d: outlier not saved: %+v", i, adj)
		}

		cur := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
		if cur.IndexBuilds != 2 {
			t.Fatalf("save %d rebuilt an index: index_builds = %d, want 2", i, cur.IndexBuilds)
		}
		if cur.Stats.DistEvals <= prevEvals {
			t.Fatalf("save %d: dist evals did not grow (%d -> %d); the cached index did not serve the request",
				i, prevEvals, cur.Stats.DistEvals)
		}
		prevEvals = cur.Stats.DistEvals
		if cur.Saves != int64(i+1) {
			t.Fatalf("save %d: session saves = %d, want %d", i, cur.Saves, i+1)
		}
	}
}

func TestDetectEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	info := uploadSession(t, s)

	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", DetectRequest{
		Tuples: [][]any{{0.4, 0.4}, {25.0, 25.0}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", w.Code, w.Body.String())
	}
	resp := decode[DetectResponse](t, w)
	if len(resp.Results) != 2 {
		t.Fatalf("detect results = %d, want 2", len(resp.Results))
	}
	if resp.Results[0].Outlier {
		t.Errorf("cluster-center tuple flagged outlier (neighbors=%d)", resp.Results[0].Neighbors)
	}
	if !resp.Results[1].Outlier {
		t.Errorf("far tuple not flagged outlier (neighbors=%d)", resp.Results[1].Neighbors)
	}

	cur := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	if cur.IndexBuilds != 2 {
		t.Errorf("detect rebuilt an index: index_builds = %d, want 2", cur.IndexBuilds)
	}
	if cur.Detects != 2 {
		t.Errorf("session detects = %d, want 2", cur.Detects)
	}
	if cur.Stats.RangeQueries <= info.Stats.RangeQueries {
		t.Errorf("detect ran no range queries against the cached index (%d -> %d)",
			info.Stats.RangeQueries, cur.Stats.RangeQueries)
	}
}

// TestDetectCountsTextCache re-screens a text session's own rows through
// /detect and checks that the session's text-cache counters move: the
// endpoint folds every index counter of its counting view into the
// session stats, the kernel-level ones included.
func TestDetectCountsTextCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ds, err := disc.GenMixed(disc.MixedSpec{
		Name: "mixed", N: 200, Entities: 160, DirtyFrac: 0.05, Eps: 2.0, Eta: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Registry().Upload(context.Background(), "mixed", ds.Rel,
		BuildParams{Eps: ds.Eps, Eta: ds.Eta, Kappa: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Info().Stats
	tuples := make([][]any, ds.Rel.N())
	for i, tp := range ds.Rel.Tuples {
		tuples[i] = TupleJSON(ds.Rel.Schema, tp)
	}
	w := do(t, s, "POST", "/v1/datasets/"+sess.ID+"/detect", DetectRequest{Tuples: tuples, Member: true})
	if w.Code != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", w.Code, w.Body.String())
	}
	after := sess.Info().Stats
	if after.TextCacheHits+after.TextCacheMisses <= before.TextCacheHits+before.TextCacheMisses {
		t.Errorf("detect left the text-cache counters at hits %d, misses %d",
			after.TextCacheHits, after.TextCacheMisses)
	}
}

// TestQueueOverflow429 fills a session's admission gate with requests
// that have not run yet and asserts the next request is refused with 429
// and a Retry-After hint, without splitting a repair.
func TestQueueOverflow429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxQueue: 2})
	info := uploadSession(t, s)
	sess, ok := s.reg.Get(info.ID)
	if !ok {
		t.Fatal("session vanished")
	}

	// Admitted requests hold their places until they run, so overflow is
	// deterministic.
	es := &obs.EndpointStats{}
	if err := sess.gate.admit(es, 2); err != nil {
		t.Fatalf("filling queue: %v", err)
	}

	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	retry, err := strconv.Atoi(w.Result().Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", w.Result().Header.Get("Retry-After"))
	}
	if got := s.endpoints["save"].Rejected.Load(); got != 1 {
		t.Errorf("save endpoint rejected = %d, want 1", got)
	}

	save := func(ctx context.Context) error {
		sess.save(ctx, outlierTuple())
		return nil
	}
	errs := make([]error, 2)
	errs[0] = sess.gate.run(context.Background(), es, "save", save)

	// One place is free now. A batch repair that does not fit is refused
	// whole: nothing admitted.
	if err := sess.gate.admit(es, 2); err == nil {
		t.Error("partial batch admission: want errQueueFull, got nil")
		sess.gate.release() // give the places back, so the drain below ends
		sess.gate.release()
	}
	if got := sess.gate.depth(); got != 1 {
		t.Errorf("queue length after refused batch = %d, want 1 (all-or-nothing)", got)
	}

	// Run the other admitted request and drain; close waits for it, and
	// each fill is answered.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = sess.gate.run(context.Background(), es, "save", save)
	}()
	sess.gate.close()
	if got := sess.gate.depth(); got != 0 {
		t.Errorf("queue length after drain = %d, want 0", got)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fill %d: drain answered error: %v", i, err)
		}
	}
}

// TestDeadlineExpiredInQueue: a request whose deadline passed before it got
// a worker slot is answered with the deadline error and never runs.
func TestDeadlineExpiredInQueue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	info := uploadSession(t, s)
	sess, _ := s.reg.Get(info.ID)
	es := &obs.EndpointStats{}
	save := func(ctx context.Context) error {
		sess.save(ctx, outlierTuple())
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before admission
	if err := sess.gate.admit(es, 1); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := sess.gate.run(ctx, es, "save", save); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("expired request answered %v, want queue-expiry error", err)
	}

	// The only slot is taken, so this deadline passes while the request
	// waits for it.
	sess.gate.slots <- struct{}{}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sess.gate.admit(es, 1); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := sess.gate.run(ctx, es, "save", save); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("request that waited past its deadline answered %v, want queue-expiry error", err)
	}
	<-sess.gate.slots

	if got := es.Expired.Load(); got != 2 {
		t.Errorf("expired counter = %d, want 2", got)
	}
	cur := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	if cur.Saves != 0 {
		t.Errorf("expired request ran a save: session saves = %d, want 0", cur.Saves)
	}
}

// TestDrainCompletesInFlight: shutdown finishes everything already admitted,
// then refuses new work with 503.
func TestDrainCompletesInFlight(t *testing.T) {
	s := New(Config{Workers: 2})
	info := uploadSession(t, s)
	sess, _ := s.reg.Get(info.ID)

	es := &obs.EndpointStats{}
	const n = 4
	if err := sess.gate.admit(es, n); err != nil {
		t.Fatalf("admit: %v", err)
	}
	adjs := make([]disc.Adjustment, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range adjs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sess.gate.run(context.Background(), es, "save", func(ctx context.Context) error {
				adjs[i] = sess.save(ctx, outlierTuple())
				return nil
			})
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown returns only once every admitted request has run.
	for i, adj := range adjs {
		if !adj.Saved() {
			t.Errorf("request %d admitted before drain was not saved when Shutdown returned", i)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: drained with error: %v", i, err)
		}
	}
	// A handler that looked the session up before the drain is refused too.
	if err := sess.gate.admit(es, 1); !errors.Is(err, errClosed) {
		t.Errorf("admission after the drain = %v, want errClosed", err)
	}

	if w := do(t, s, "GET", "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", w.Code)
	}
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("save while draining = %d, want 503; body %s", w.Code, w.Body.String())
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestRegistryLRU(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 2, Workers: 1})
	first := uploadSession(t, s)
	second := uploadSession(t, s)
	third := uploadSession(t, s)

	if _, ok := s.reg.Get(first.ID); ok {
		t.Errorf("LRU session %s still resident after bound exceeded", first.ID)
	}
	for _, id := range []string{second.ID, third.ID} {
		if _, ok := s.reg.Get(id); !ok {
			t.Errorf("recent session %s evicted", id)
		}
	}
	count, _, evicted, _ := s.reg.Stats()
	if count != 2 || evicted != 1 {
		t.Errorf("registry count=%d evicted=%d, want 2/1", count, evicted)
	}
}

func TestRegistryBytesBound(t *testing.T) {
	// MaxBytes below one session's footprint: each new session evicts the
	// previous, but the newest is always kept (no livelock).
	s := newTestServer(t, Config{MaxBytes: 1, Workers: 1})
	first := uploadSession(t, s)
	second := uploadSession(t, s)
	if _, ok := s.reg.Get(first.ID); ok {
		t.Errorf("session %s resident beyond byte bound", first.ID)
	}
	if _, ok := s.reg.Get(second.ID); !ok {
		t.Errorf("newest session %s evicted despite newest-kept rule", second.ID)
	}
}

func TestRegistryTTL(t *testing.T) {
	s := newTestServer(t, Config{TTL: time.Hour, Workers: 1})
	info := uploadSession(t, s)
	s.reg.Sweep(time.Now()) // nothing idle long enough
	if _, ok := s.reg.Get(info.ID); !ok {
		t.Fatal("session expired before TTL")
	}
	s.reg.Sweep(time.Now().Add(2 * time.Hour))
	if _, ok := s.reg.Get(info.ID); ok {
		t.Error("session resident past TTL sweep")
	}
	if _, _, _, expired := s.reg.Stats(); expired != 1 {
		t.Errorf("expired counter = %d, want 1", expired)
	}
}

// TestOpenPathSingleflight: concurrent loads of the same path share one
// build, and later loads with the same params — index "" or "auto" —
// hit the cached session.
func TestOpenPathSingleflight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(testCSV(t)), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int32
	release := make(chan struct{})
	testBuildHook = func() { calls.Add(1); <-release }
	defer func() { testBuildHook = nil }()

	s := New(Config{Workers: 1})
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	type result struct {
		sess *Session
		err  error
	}
	results := make(chan result, 2)
	open := func() {
		sess, err := s.reg.OpenPath(context.Background(), path, testParams)
		results <- result{sess, err}
	}
	go open()
	// Wait until the first build is inside the hook, so the second call
	// demonstrably finds the in-flight build rather than racing it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go open()
	time.Sleep(10 * time.Millisecond)
	close(release)

	var ids []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("OpenPath: %v", r.err)
		}
		ids = append(ids, r.sess.ID)
	}
	if ids[0] != ids[1] {
		t.Errorf("concurrent loads built separate sessions: %s vs %s", ids[0], ids[1])
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("build ran %d times, want 1 (singleflight)", got)
	}

	// Third load: cache hit, still one build.
	sess, err := s.reg.OpenPath(context.Background(), path, testParams)
	if err != nil {
		t.Fatalf("cached OpenPath: %v", err)
	}
	if sess.ID != ids[0] {
		t.Errorf("cached load returned session %s, want %s", sess.ID, ids[0])
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cached load rebuilt: %d builds", got)
	}

	// Index "auto" names the same kind as "": still the same session.
	auto := testParams
	auto.Index = "auto"
	sess, err = s.reg.OpenPath(context.Background(), path, auto)
	if err != nil {
		t.Fatalf("OpenPath index auto: %v", err)
	}
	if sess.ID != ids[0] || calls.Load() != 1 || sess.Info().IndexBuilds != 2 {
		t.Errorf("index auto: session %s after %d builds with index_builds %d, want %s after 1 build with 2",
			sess.ID, calls.Load(), sess.Info().IndexBuilds, ids[0])
	}

	// Different params on the same path: a distinct session.
	other := testParams
	other.Kappa = 1
	sess2, err := s.reg.OpenPath(context.Background(), path, other)
	if err != nil {
		t.Fatalf("OpenPath new params: %v", err)
	}
	if sess2.ID == ids[0] {
		t.Error("different params deduplicated onto the same session")
	}
}

func TestRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	info := uploadSession(t, s)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown session", "GET", "/v1/datasets/deadbeef", nil, http.StatusNotFound},
		{"delete unknown", "DELETE", "/v1/datasets/deadbeef", nil, http.StatusNotFound},
		{"save unknown session", "POST", "/v1/datasets/deadbeef/save",
			TupleRequest{Tuple: []any{1.0, 2.0}}, http.StatusNotFound},
		{"wrong arity", "POST", "/v1/datasets/" + info.ID + "/save",
			TupleRequest{Tuple: []any{1.0}}, http.StatusBadRequest},
		{"wrong type", "POST", "/v1/datasets/" + info.ID + "/save",
			TupleRequest{Tuple: []any{"abc", 2.0}}, http.StatusBadRequest},
		{"empty detect", "POST", "/v1/datasets/" + info.ID + "/detect",
			DetectRequest{}, http.StatusBadRequest},
		{"no source", "POST", "/v1/datasets", CreateRequest{Eps: 1, Eta: 3}, http.StatusBadRequest},
		{"two sources", "POST", "/v1/datasets",
			CreateRequest{CSV: "x:numeric\n1", Table1: "Letter"}, http.StatusBadRequest},
		{"bad csv", "POST", "/v1/datasets", CreateRequest{CSV: "x:numeric\n\"unterminated"},
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := do(t, s, tc.method, tc.path, tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d; body %s", tc.name, w.Code, tc.want, w.Body.String())
		}
		if tc.want >= 400 {
			e := decode[ErrorResponse](t, w)
			if e.Error == "" {
				t.Errorf("%s: error body missing message: %s", tc.name, w.Body.String())
			}
		}
	}
}

func TestRepairBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	info := uploadSession(t, s)

	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/repair", RepairRequest{
		Tuples: [][]any{{25.0, 25.0}, {0.4, 0.4}, {-30.0, 12.0}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("repair: status %d, body %s", w.Code, w.Body.String())
	}
	resp := decode[RepairResponse](t, w)
	if len(resp.Adjustments) != 3 {
		t.Fatalf("adjustments = %d, want 3", len(resp.Adjustments))
	}
	// Tuple 1 already satisfies the constraints: saved at zero cost, no
	// attribute touched.
	if a := resp.Adjustments[1]; !a.Saved || a.Cost != 0 || len(a.Adjusted) != 0 {
		t.Errorf("inlier tuple not a zero-cost save: %+v", a)
	}
	if a := resp.Adjustments[0]; !a.Saved || a.Cost <= 0 || len(a.Adjusted) == 0 {
		t.Errorf("outlier tuple not saved by adjustment: %+v", a)
	}
	if !resp.Adjustments[2].Saved {
		t.Errorf("outlier tuple not saved: %+v", resp.Adjustments[2])
	}
	if resp.Saved != 3 || resp.Natural != 0 {
		t.Errorf("summary saved=%d natural=%d, want 3/0", resp.Saved, resp.Natural)
	}
	for i, adj := range resp.Adjustments {
		if adj.Saved && len(adj.Tuple) != 2 {
			t.Errorf("adjustment %d: saved without repaired tuple: %+v", i, adj)
		}
	}
}

func TestVarz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	info := uploadSession(t, s)
	do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})

	w := do(t, s, "GET", "/varz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("varz: status %d", w.Code)
	}
	var varz struct {
		Draining  bool `json:"draining"`
		Endpoints map[string]obs.EndpointSnapshot
		Registry  struct {
			Sessions int `json:"sessions"`
		} `json:"registry"`
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &varz); err != nil {
		t.Fatalf("decode varz: %v\n%s", err, w.Body.String())
	}
	if varz.Registry.Sessions != 1 || len(varz.Sessions) != 1 {
		t.Errorf("varz sessions registry=%d list=%d, want 1/1", varz.Registry.Sessions, len(varz.Sessions))
	}
	if got := varz.Endpoints["save"]; got.Requests != 1 || got.Admitted != 1 {
		t.Errorf("varz save endpoint = %+v, want 1 request 1 admitted", got)
	}
	if got := varz.Endpoints["datasets"]; got.Requests != 1 {
		t.Errorf("varz datasets endpoint = %+v, want 1 request", got)
	}
	if varz.Sessions[0].IndexBuilds != 2 {
		t.Errorf("varz session index_builds = %d, want 2", varz.Sessions[0].IndexBuilds)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Force a panic through the middleware stack with a handler the mux
	// reaches: a nil-session map access is not reachable from outside, so
	// register a panicking route on a fresh mux wrapped the same way.
	h := s.wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/panic", nil))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("panic status = %d, want 500", w.Code)
	}
	e := decode[ErrorResponse](t, w)
	if e.Error == "" || e.RequestID == "" {
		t.Errorf("panic body = %s, want error + request_id", w.Body.String())
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "client-supplied-7")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if got := w.Result().Header.Get("X-Request-ID"); got != "client-supplied-7" {
		t.Errorf("request id echoed = %q, want client-supplied-7", got)
	}
	// Minted when absent.
	w2 := do(t, s, "GET", "/healthz", nil)
	if w2.Result().Header.Get("X-Request-ID") == "" {
		t.Error("no request id minted")
	}
}

// TestLoneSaveNotHeld: a save arriving at an idle session starts at once;
// nothing holds it back for other requests to join it.
func TestLoneSaveNotHeld(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	const n = 20
	for i := 0; i < n; i++ {
		w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
		if w.Code != http.StatusOK {
			t.Fatalf("save %d: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	sess, _ := s.reg.Get(info.ID)
	qw := sess.Info().Hists.QueueWait
	if qw.Count != n {
		t.Fatalf("queue-wait samples = %d, want %d", qw.Count, n)
	}
	if p50 := time.Duration(qw.Quantile(0.5)); p50 >= time.Millisecond {
		t.Errorf("queue wait p50 of %d sequential saves = %v, want under 1ms", n, p50)
	}
}

// TestConcurrentSaves hammers one warm session from many goroutines; under
// -race this doubles as the data-race check on the whole serving path.
func TestConcurrentSaves(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	info := uploadSession(t, s)

	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{
				Tuple: []any{25.0 + float64(i), 25.0},
			})
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("concurrent save %d: status %d", i, c)
		}
	}
	cur := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	if cur.IndexBuilds != 2 {
		t.Errorf("concurrent saves rebuilt an index: %d", cur.IndexBuilds)
	}
	if cur.Saves != n {
		t.Errorf("session saves = %d, want %d", cur.Saves, n)
	}
}

func TestTable1Source(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := do(t, s, "POST", "/v1/datasets", CreateRequest{Table1: "Letter", Scale: 0.05, Seed: 1, Kappa: 2})
	if w.Code != http.StatusCreated {
		t.Fatalf("table1 upload: status %d, body %s", w.Code, w.Body.String())
	}
	info := decode[SessionInfo](t, w)
	if info.Tuples == 0 || info.Eps <= 0 || info.Eta < 1 {
		t.Errorf("table1 session = %+v, want tuples and constraints filled", info)
	}
	// The dataset's own (ε, η) defaults were adopted.
	w2 := do(t, s, "POST", fmt.Sprintf("/v1/datasets/%s/detect", info.ID), DetectRequest{
		Tuples: [][]any{make([]any, 0)},
	})
	if w2.Code != http.StatusBadRequest {
		t.Errorf("empty tuple detect = %d, want 400", w2.Code)
	}
}

func TestDeleteSession(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	info := uploadSession(t, s)
	if w := do(t, s, "DELETE", "/v1/datasets/"+info.ID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/datasets/"+info.ID, nil); w.Code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", w.Code)
	}
	count, bytes, _, _ := s.reg.Stats()
	if count != 0 || bytes != 0 {
		t.Errorf("registry after delete: count=%d bytes=%d, want 0/0", count, bytes)
	}
}
