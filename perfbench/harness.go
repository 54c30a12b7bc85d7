package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
)

// clients is the closed-loop client count of the serving workloads: the
// number of cores here, and the shape of discserve's real callers
// (disccli -remote, coordinator chunks), which each wait for a reply.
const clients = 2

// loopback serves a handler on a real 127.0.0.1 listener.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the listener and waits for the serve goroutine to exit.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // a drain cut short still closes the listener
	<-l.done
}

// newHTTPClient keeps one keep-alive connection per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients + 1,
			DisableCompression:  true,
		},
	}
}

// call sends one request with the benchmark's X-Request-ID and decodes a
// JSON answer into out (nil: discard). It returns the HTTP status.
func call(cli *http.Client, method, url, reqID, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := cli.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// postJSON marshals in and posts it.
func postJSON(cli *http.Client, url, reqID string, in, out any) (int, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return call(cli, http.MethodPost, url, reqID, "application/json", b, out)
}

// tupleJSON is the wire form of a tuple: numbers and strings by kind.
func tupleJSON(sch *data.Schema, t data.Tuple) []any {
	out := make([]any, len(t))
	for a := range t {
		if sch.Attrs[a].Kind == data.Text {
			out[a] = t[a].Str
		} else {
			out[a] = t[a].Num
		}
	}
	return out
}

// loopResult is what a closed loop measured: latency per request kind,
// requests attempted and failed, and problems found in the answers.
type loopResult struct {
	lat               map[string]samples
	attempted, failed int64
	problems          []string
	wall              time.Duration
}

// outcome is one request's result as the loop sees it: failed counts it
// against fail_frac (non-2xx, 429, partial answers); problem marks a
// wrong answer.
type outcome struct {
	failed  bool
	problem string
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one answered, until d has passed or, with limit > 0,
// limit requests have been sent. pick draws the next request kind from
// the client's seeded generator and exec sends it. With a tracer, every
// request is a span named layer+"."+kind under one root span per client,
// carrying the request's X-Request-ID.
func closedLoop(d time.Duration, limit int64, seed int64, tr *tracer, layer, prefix string,
	pick func(rng *rand.Rand) string, exec func(c int, rng *rand.Rand, kind, reqID string) outcome) *loopResult {
	res := &loopResult{lat: map[string]samples{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var sent atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			lat := map[string]samples{}
			var attempted, failed int64
			var problems []string
			root := tr.open("bench.client", fmt.Sprintf("%s-c%d", prefix, c), -1)
			for n := 0; time.Now().Before(deadline) && (limit <= 0 || sent.Add(1) <= limit); n++ {
				kind := pick(rng)
				reqID := fmt.Sprintf("%s-c%d-%d", prefix, c, n)
				sp := tr.open(layer+"."+kind, reqID, root)
				t0 := time.Now()
				o := exec(c, rng, kind, reqID)
				el := time.Since(t0)
				tr.close(sp)
				attempted++
				if o.failed {
					failed++
				} else {
					s := lat[kind]
					s.add(el)
					lat[kind] = s
				}
				if o.problem != "" && len(problems) < 10 {
					problems = append(problems, o.problem)
				}
			}
			tr.close(root)
			mu.Lock()
			defer mu.Unlock()
			for k, s := range lat {
				res.lat[k] = append(res.lat[k], s...)
			}
			res.attempted += attempted
			res.failed += failed
			res.problems = append(res.problems, problems...)
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// merge appends o's measurements to l.
func (l *loopResult) merge(o *loopResult) {
	for k, s := range o.lat {
		l.lat[k] = append(l.lat[k], s...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.problems = append(l.problems, o.problems...)
	l.wall += o.wall
}

// heapLoop runs the untraced closed loop for d but pauses once, after the
// first heapAfter requests, to take live_heap_mb. The serving heap grows
// with the traffic served (tombstoned rows, text pair caches), so taking
// it after a fixed number of requests keeps it from tracking how many
// requests a run's speed let through.
func heapLoop(d time.Duration, heapAfter int64, seed int64, layer, prefix string,
	pick func(rng *rand.Rand) string, exec func(c int, rng *rand.Rand, kind, reqID string) outcome) (*loopResult, float64) {
	start := time.Now()
	loop := closedLoop(d, heapAfter, seed, nil, layer, prefix, pick, exec)
	heap := liveHeapMB()
	if rest := d - time.Since(start); rest > 0 {
		loop.merge(closedLoop(rest, 0, seed+1, nil, layer, prefix+"-b", pick, exec))
	}
	return loop, heap
}

// completed counts the requests that succeeded.
func (l *loopResult) completed() int {
	n := 0
	for _, s := range l.lat {
		n += len(s)
	}
	return n
}

// meanLatency is the mean over every completed request, the closed
// loop's per-request cost.
func (l *loopResult) meanLatency() float64 {
	var all samples
	for _, s := range l.lat {
		all = append(all, s...)
	}
	return all.mean()
}

// nameLatency reports a kind's p50 and, with at least 1,000 samples, p99.
func (r *report) nameLatency(name string, s samples) {
	r.name(name+"_p50_ms", s.median()*1e3, "ms", len(s))
	if len(s) >= 1000 {
		r.name(name+"_p99_ms", s.quantile(0.99)*1e3, "ms", len(s))
	}
}

// absorb folds a loop's counts and problems into the report.
func (r *report) absorb(l *loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed
	r.problems = append(r.problems, l.problems...)
}
