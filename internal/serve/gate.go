package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
)

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull means the session already holds MaxQueue admitted,
	// unanswered requests — the client should back off (429 + Retry-After).
	errQueueFull = errors.New("serve: admission queue full")
	// errClosed means the session (or server) is draining — requests
	// already admitted will finish, new ones are refused (503).
	errClosed = errors.New("serve: draining, not accepting new work")
)

// gate is a session's admission control for saves and mutations. Each
// request runs on its own handler goroutine: DISC saves every outlier on
// its own against the inlier set (§2.2), so requests share no work and
// none is held back for others to join it. The gate bounds how many
// requests a session holds and how many of them run at once, and lets
// close wait for all of them.
type gate struct {
	session *Session
	// slots is the Workers-slot semaphore: a request runs while it holds
	// one.
	slots chan struct{}
	max   int // MaxQueue, the bound on pending

	// mu orders admission against close: no request is admitted once
	// close has begun waiting on wg.
	mu sync.Mutex
	// pending counts admitted requests not yet answered, waiting for a
	// slot or running. The registry's sweep and LRU eviction skip
	// sessions with pending work: the server has already accepted it.
	pending int
	closed  atomic.Bool
	// wg counts the same requests as pending, for close to wait on.
	wg sync.WaitGroup
	// dispatches counts requests that started (SessionInfo.Batches).
	dispatches atomic.Int64
}

func newGate(s *Session, cfg Config) *gate {
	return &gate{session: s, slots: make(chan struct{}, cfg.Workers), max: cfg.MaxQueue}
}

// admit reserves room for n requests, all or none: a /repair refused in
// part would leave the client with half an answer. Each admitted request
// must then pass through run exactly once.
func (g *gate) admit(es *obs.EndpointStats, n int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed.Load() {
		es.Rejected.Add(int64(n))
		return errClosed
	}
	if g.pending+n > g.max {
		es.Rejected.Add(int64(n))
		return fmt.Errorf("%w (%d pending, capacity %d, %d arriving)",
			errQueueFull, g.pending, g.max, n)
	}
	g.pending += n
	g.wg.Add(n)
	es.Admitted.Add(int64(n))
	return nil
}

// depth is the number of admitted, unanswered requests.
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}

// busy reports whether the session holds admitted, unanswered requests.
func (g *gate) busy() bool { return g.depth() > 0 }

// close stops admission and waits until every admitted request has been
// answered. Idempotent.
func (g *gate) close() {
	g.mu.Lock()
	g.closed.Store(true)
	g.mu.Unlock()
	g.wg.Wait()
}

// run executes one admitted request on the caller's goroutine: it waits
// for a slot, runs fn under the (session, endpoint) pprof labels, and
// releases the admission. A request whose ctx ends before it gets a slot
// never starts and is answered with the expiry error. Once started, fn
// runs to its end, so the answer is what happened: a save cut short by
// its deadline returns its best-so-far adjustment, and an applied
// mutation is reported as applied. A panic in fn is answered as an error
// that keeps the panic's stack (a *par.PanicError) for the server's log.
func (g *gate) run(ctx context.Context, es *obs.EndpointStats, ep string, fn func(context.Context) error) (err error) {
	defer g.release()
	tr := obs.TraceFrom(ctx)
	enq := time.Now()
	select {
	case g.slots <- struct{}{}:
		defer func() { <-g.slots }()
	case <-ctx.Done():
	}
	start := time.Now()
	tr.Span("queue", enq)
	g.session.observeQueueWait(start.Sub(enq))
	if err := ctx.Err(); err != nil {
		es.Expired.Add(1)
		return fmt.Errorf("serve: request expired after %s in queue: %w",
			start.Sub(enq).Round(time.Millisecond), err)
	}
	g.dispatches.Add(1)
	g.session.observeBatchSize()
	if g.closed.Load() {
		es.Drained.Add(1)
	}
	// Deferred calls run in reverse: the recover first, then the dispatch
	// span, all before the handler writes its answer.
	defer tr.Span("dispatch", start)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("serve: %s request failed: %w", ep, par.Recovered(rec))
		}
	}()
	pprof.Do(ctx, pprof.Labels("session", g.session.ID, "endpoint", ep), func(ctx context.Context) {
		// Inside the labeled region, so an injected panic takes the same
		// recover path as a real one.
		if err = fault.Inject(fault.BatchDispatch); err != nil {
			err = fmt.Errorf("serve: %s request failed: %w", ep, err)
			return
		}
		err = fn(ctx)
	})
	return err
}

// release answers one admission: the request has run or expired.
func (g *gate) release() {
	g.mu.Lock()
	g.pending--
	g.mu.Unlock()
	g.wg.Done()
}
