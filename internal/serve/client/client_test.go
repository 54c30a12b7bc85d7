package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fastCfg keeps retry delays test-sized.
func fastCfg(url string, stats *obs.ClientStats) Config {
	return Config{
		BaseURL:        url,
		RequestTimeout: 5 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		Stats:          stats,
	}
}

func TestRetryThenSuccess(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	}))
	defer ts.Close()

	stats := &obs.ClientStats{}
	cl := New(fastCfg(ts.URL, stats))
	if err := cl.Ready(context.Background()); err != nil {
		t.Fatalf("Ready after transient failures: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server hits = %d, want 3 (two failures + success)", got)
	}
	if snap := stats.Snapshot(); snap.Retries != 2 || snap.Requests != 1 {
		t.Errorf("stats = %+v, want 2 retries on 1 request", snap)
	}
}

func TestRetriesExhaustedIsUnavailable(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	cfg := fastCfg(ts.URL, nil)
	cfg.MaxRetries = 2
	cl := New(cfg)
	err := cl.Ready(context.Background())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exhausted retries returned %v, want ErrUnavailable", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server hits = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestRetryAfterHonored: a 429's Retry-After (in whole seconds) overrides
// the computed backoff, capped at MaxBackoff. With a 1ms base backoff, a
// visibly longer wait proves the header drove the delay.
func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	cfg := fastCfg(ts.URL, nil)
	cfg.MaxBackoff = 50 * time.Millisecond // caps the 1s Retry-After
	cl := New(cfg)
	start := time.Now()
	if err := cl.Ready(context.Background()); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Errorf("retried after %v; Retry-After (capped to 50ms) was not honored", elapsed)
	}
}

// TestAPIErrorNotRetried: a 4xx is a definitive answer — one attempt, typed
// error, and it counts as breaker success (the server is alive).
func TestAPIErrorNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no session \"x\""}`))
	}))
	defer ts.Close()

	stats := &obs.ClientStats{}
	cl := New(fastCfg(ts.URL, stats))
	_, err := cl.Detect(context.Background(), "x", [][]any{{1.0}}, false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("got %v, want *APIError with status 404", err)
	}
	if !strings.Contains(apiErr.Message, "no session") {
		t.Errorf("error body not decoded: %q", apiErr.Message)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hits = %d, want 1 (4xx must not be retried)", got)
	}
	if snap := stats.Snapshot(); snap.Retries != 0 {
		t.Errorf("retries = %d, want 0", snap.Retries)
	}
}

// TestBreakerOpensAndRecovers: consecutive failed requests trip the breaker
// (immediate ErrUnavailable, no network traffic), and after the cooldown a
// half-open probe against a healed server closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var hits atomic.Int64
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	stats := &obs.ClientStats{}
	cfg := fastCfg(ts.URL, stats)
	cfg.MaxRetries = -1 // one attempt per request
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 100 * time.Millisecond
	cl := New(cfg)

	for i := 0; i < 2; i++ {
		if err := cl.Ready(context.Background()); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("request %d: %v, want ErrUnavailable", i, err)
		}
	}
	if snap := stats.Snapshot(); snap.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1 after %d consecutive failures", snap.BreakerTrips, 2)
	}
	before := hits.Load()
	if err := cl.Ready(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-breaker request: %v, want ErrUnavailable", err)
	}
	if got := hits.Load(); got != before {
		t.Errorf("open breaker let a request through (%d -> %d hits)", before, got)
	}
	if snap := stats.Snapshot(); snap.BreakerOpen != 1 {
		t.Errorf("breaker-open refusals = %d, want 1", snap.BreakerOpen)
	}

	healthy.Store(true)
	time.Sleep(150 * time.Millisecond) // past the cooldown
	if err := cl.Ready(context.Background()); err != nil {
		t.Fatalf("half-open probe against healed server: %v", err)
	}
	if err := cl.Ready(context.Background()); err != nil {
		t.Fatalf("breaker did not close after successful probe: %v", err)
	}
}

// TestRequestIDAcrossRetries: the client mints one X-Request-ID per
// logical call before the first attempt and reuses it verbatim on every
// retry, reporting it through OnRequest — so client output, server logs
// and retry attempts all join on one id.
func TestRequestIDAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Request-ID"))
		mu.Unlock()
		if hits.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	}))
	defer ts.Close()

	var minted []string
	cfg := fastCfg(ts.URL, nil)
	cfg.OnRequest = func(id, method, path string) {
		minted = append(minted, id)
		if method != "GET" || path != "/readyz" {
			t.Errorf("OnRequest(%q, %q, %q): wrong method/path", id, method, path)
		}
	}
	cl := New(cfg)
	if err := cl.Ready(context.Background()); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(seen))
	}
	if seen[0] == "" || len(seen[0]) != 16 {
		t.Fatalf("first attempt carried no minted request id: %q", seen[0])
	}
	if seen[1] != seen[0] || seen[2] != seen[0] {
		t.Errorf("retries changed the request id: %v (want one id across all attempts)", seen)
	}
	if len(minted) != 1 || minted[0] != seen[0] {
		t.Errorf("OnRequest reported %v, want exactly the id the server saw (%q)", minted, seen[0])
	}
}

// TestRequestIDUniquePerCall: two logical calls mint two distinct ids.
func TestRequestIDUniquePerCall(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Request-ID"))
		mu.Unlock()
		w.Write([]byte(`{"status":"ready"}`))
	}))
	defer ts.Close()

	cl := New(fastCfg(ts.URL, nil))
	for i := 0; i < 2; i++ {
		if err := cl.Ready(context.Background()); err != nil {
			t.Fatalf("Ready %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] == seen[1] {
		t.Errorf("two calls carried ids %v, want two distinct ids", seen)
	}
}

func TestUnreachableServer(t *testing.T) {
	cfg := fastCfg("http://127.0.0.1:1", nil)
	cfg.MaxRetries = -1
	cl := New(cfg)
	if err := cl.Ready(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unreachable server returned %v, want ErrUnavailable", err)
	}
}

// TestEndToEnd runs the typed client against the real serving stack:
// create, member-mode detect, repair, delete.
func TestEndToEnd(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := New(fastCfg(ts.URL, nil))
	ctx := context.Background()

	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	// A tight cluster plus one far outlier.
	var sb strings.Builder
	sb.WriteString("x:numeric,y:numeric\n")
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			sb.WriteString(num(float64(i)*0.4) + "," + num(float64(j)*0.4) + "\n")
		}
	}
	sb.WriteString("25,25\n")

	info, err := cl.CreateDatasetCSV(ctx, "e2e", sb.String(), serve.BuildParams{Eps: 1, Eta: 3, Kappa: 2})
	if err != nil {
		t.Fatalf("CreateDatasetCSV: %v", err)
	}
	if info.Outliers != 1 {
		t.Fatalf("session outliers = %d, want 1: %+v", info.Outliers, info)
	}
	det, err := cl.Detect(ctx, info.ID, [][]any{{25.0, 25.0}, {0.4, 0.4}}, true)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	if !det.Results[0].Outlier || det.Results[1].Outlier {
		t.Fatalf("member detect = %+v, want [outlier, inlier]", det.Results)
	}
	rep, err := cl.Repair(ctx, info.ID, [][]any{{25.0, 25.0}}, 0)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rep.Saved != 1 || !rep.Adjustments[0].Saved {
		t.Fatalf("repair = %+v, want the outlier saved", rep)
	}
	if err := cl.Delete(ctx, info.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	_, err = cl.Detect(ctx, info.ID, [][]any{{0.4, 0.4}}, false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("detect after delete: %v, want 404 APIError", err)
	}
}
