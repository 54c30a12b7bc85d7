// Package par is the shared worker pool of the pipeline: a context-aware,
// panic-recovering parallel for-loop. Saving one outlier is NP-hard, so any
// fan-out over outliers (or tuples, or restarts) must survive a panic in one
// item and stop dispatching promptly once the caller's context is cancelled —
// otherwise a single poisoned tuple or a missed deadline takes the whole
// batch down with it.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// ItemError records one item of a ForEach that did not complete: its index
// and what happened (a recovered panic as a *PanicError, fn's error, or the
// context's error for items skipped after cancellation).
type ItemError struct {
	Index int
	Err   error
}

// Error implements error.
func (e ItemError) Error() string { return fmt.Sprintf("item %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e ItemError) Unwrap() error { return e.Err }

// PanicError is a recovered panic: the value passed to panic and the stack
// of the goroutine that panicked, taken inside the deferred recover, so it
// still names the faulting frame. Its message is the value's alone, as
// "panic: <value>"; a caller that logs the failure reaches the stack with
// errors.As through ItemError and any wraps above it.
type PanicError struct {
	Value any
	Stack []byte
}

// Recovered returns the PanicError of r, a value recover just returned;
// call it in the deferred function that recovered, so the stack is the
// panicking one.
func Recovered(r any) *PanicError { return &PanicError{Value: r, Stack: debug.Stack()} }

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// FirstErr returns the error of the lowest-indexed failed item, or nil.
func FirstErr(errs []ItemError) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}

// ForEach runs fn(i) for every i in [0, n) across up to workers goroutines
// (≤ 0 means GOMAXPROCS). It differs from a plain WaitGroup fan-out in two
// ways that matter for long-running saves:
//
//   - A panic inside fn is recovered and recorded as that item's error;
//     every other item still runs. The pool never crashes the process.
//   - Once ctx is cancelled no new item is started: items already running
//     finish (fn is expected to honor ctx itself for intra-item promptness)
//     and every undispatched index is recorded with the context's error.
//
// The returned slice is sorted by index and nil when every item completed
// without error — so the zero-cost happy path stays allocation-free.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) []ItemError {
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with worker identity: fn receives the id of the
// goroutine running it, in [0, min(workers, n)). Ids are stable for the
// whole call, so callers can hand each worker private scratch memory — a
// save arena, a reusable buffer — indexed by id with no synchronization
// (core.SaveAllContext does exactly this).
func ForEachWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) []ItemError {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next atomic.Int64
		mu   sync.Mutex
		errs []ItemError
	)
	record := func(i int, err error) {
		mu.Lock()
		errs = append(errs, ItemError{Index: i, Err: err})
		mu.Unlock()
	}
	runOne := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				record(i, Recovered(r))
			}
		}()
		if err := fn(w, i); err != nil {
			record(i, err)
		}
	}
	done := ctx.Done()
	worker := func(w int) {
		for {
			if done != nil {
				select {
				case <-done:
					// Drain: claim the remaining indexes so they are
					// accounted for, but do not run them.
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						record(i, ctx.Err())
					}
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runOne(w, i)
		}
	}

	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}
