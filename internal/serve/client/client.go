// Package client is a robust HTTP client for the discserve API, built for
// callers that outlive individual failures: every request gets a
// per-attempt timeout, retryable failures (network errors, 429, 5xx) are
// re-attempted under capped exponential backoff with jitter — honoring
// Retry-After when the server sends one — and a consecutive-failure circuit
// breaker stops hammering a dead server, failing fast with ErrUnavailable
// so the caller can degrade to local execution (disccli -remote does
// exactly that).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// ErrUnavailable means the server could not be reached: the circuit breaker
// is open, or every retry attempt failed with a retryable error. It is the
// signal to degrade — run locally, queue for later — rather than a comment
// on the request itself.
var ErrUnavailable = errors.New("client: server unavailable")

// APIError is a definitive (non-retryable) answer from the server: a 4xx
// with the decoded error body. The request reached the server and was
// refused, so it counts as breaker success — the server is alive.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Config tunes the client. The zero value plus a BaseURL is usable.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient with
	// RequestTimeout applied per attempt).
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (default 30s).
	RequestTimeout time.Duration
	// MaxRetries is how many re-attempts follow a retryable failure
	// (default 3; a request makes at most 1+MaxRetries attempts).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts (defaults 100ms and 5s); the actual sleep is equal-jittered
	// in [d/2, d). A Retry-After header overrides the computed delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold consecutive failed requests open the breaker for
	// BreakerCooldown (defaults 5 and 10s); while open, calls fail
	// immediately with ErrUnavailable. After the cooldown one probe goes
	// through; success closes the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Stats receives the retry/breaker counters (nil = private instance).
	Stats *obs.ClientStats
	// Logger receives retry and breaker transitions (nil = silent).
	Logger *slog.Logger
	// OnRequest, when set, is called once per logical call with the
	// X-Request-ID the client minted for it, before the first attempt.
	// Every retry of the call reuses the same id, so the callback's output
	// greps directly against server request logs across attempts
	// (disccli -remote prints these).
	OnRequest func(id, method, path string)
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.Stats == nil {
		c.Stats = &obs.ClientStats{}
	}
	return c
}

// Client talks to one discserve instance. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client
	log  *slog.Logger

	mu          sync.Mutex
	consecFails int
	openUntil   time.Time
}

// New builds a client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{cfg: cfg, http: hc, log: obs.Logger(cfg.Logger)}
}

// Stats snapshots the retry/breaker counters.
func (c *Client) Stats() obs.ClientSnapshot { return c.cfg.Stats.Snapshot() }

// --- circuit breaker ---

// breakerAllow reports whether a request may proceed. While the breaker is
// open it refuses immediately; once the cooldown elapses the next request
// becomes the half-open probe.
func (c *Client) breakerAllow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openUntil.IsZero() || time.Now().After(c.openUntil) {
		return true
	}
	return false
}

// breakerResult folds one finished request into the breaker state.
func (c *Client) breakerResult(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.consecFails = 0
		c.openUntil = time.Time{}
		return
	}
	c.consecFails++
	if c.consecFails >= c.cfg.BreakerThreshold {
		c.openUntil = time.Now().Add(c.cfg.BreakerCooldown)
		c.consecFails = 0
		c.cfg.Stats.BreakerTrips.Add(1)
		c.log.Warn("client: circuit breaker opened",
			"cooldown", c.cfg.BreakerCooldown, "threshold", c.cfg.BreakerThreshold)
	}
}

// --- request plumbing ---

// retryAfter parses a Retry-After seconds header (the only form discserve
// sends), capped at MaxBackoff; 0 means absent or unusable.
func (c *Client) retryAfter(resp *http.Response) time.Duration {
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec < 0 {
		return 0
	}
	d := time.Duration(sec) * time.Second
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	return d
}

// backoff computes the equal-jittered exponential delay for attempt (0-based
// retry count): half the capped exponential step guaranteed, the other half
// random, so synchronized clients spread out.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleep waits for d or the context, whichever first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one logical JSON request: marshal in, then hand the bytes to
// doBytes.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.doBytes(ctx, method, path, "application/json", body, out)
}

// doBytes runs one logical request from an already-encoded body: attempt
// with per-attempt timeout, retry retryable failures with backoff, decode
// the response into out (unless nil). It is the raw-body surface a
// coordinator forwards uploads through without re-encoding them.
func (c *Client) doBytes(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	c.cfg.Stats.Requests.Add(1)
	if !c.breakerAllow() {
		c.cfg.Stats.BreakerOpen.Add(1)
		return fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
	}
	// One request id per logical call, reused across every retry attempt:
	// the server logs each attempt under the same id, so its request log
	// joins against ClientStats.Retries instead of showing unrelated
	// requests.
	reqID := obs.NewRequestID()
	if c.cfg.OnRequest != nil {
		c.cfg.OnRequest(reqID, method, path)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err, retryable, wait := c.attempt(ctx, method, path, reqID, contentType, body, out)
		if err == nil {
			c.breakerResult(true)
			return nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			// A definitive refusal: the server is alive and has answered.
			c.breakerResult(true)
			return err
		}
		lastErr = err
		if !retryable || attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		if wait <= 0 {
			wait = c.backoff(attempt)
		}
		c.cfg.Stats.Retries.Add(1)
		c.log.Debug("client: retrying", "request_id", reqID,
			"method", method, "path", path,
			"attempt", attempt+1, "wait", wait, "err", err)
		if serr := sleep(ctx, wait); serr != nil {
			break
		}
	}
	c.breakerResult(false)
	return fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

// attempt runs one HTTP exchange. It returns the failure's retryability and
// the server-requested wait (from Retry-After), when any.
func (c *Client) attempt(ctx context.Context, method, path, reqID, contentType string, body []byte, out any) (err error, retryable bool, wait time.Duration) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err), false, 0
	}
	req.Header.Set("X-Request-ID", reqID)
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Network-level failure (refused, reset, timeout): retryable unless
		// the caller's own context is gone.
		return fmt.Errorf("client: %s %s: %w", method, path, err), ctx.Err() == nil, 0
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return nil, false, 0
		}
		if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
			return fmt.Errorf("client: decoding response: %w", derr), false, 0
		}
		return nil, false, 0
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		// Backpressure or server trouble: retry, honoring Retry-After.
		return fmt.Errorf("client: %s %s: server answered %d", method, path, resp.StatusCode),
			true, c.retryAfter(resp)
	default:
		var ej serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&ej)
		if ej.Error == "" {
			ej.Error = http.StatusText(resp.StatusCode)
		}
		return &APIError{Status: resp.StatusCode, Message: ej.Error}, false, 0
	}
}
