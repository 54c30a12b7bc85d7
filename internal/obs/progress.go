package obs

import (
	"sync"
	"time"
)

// Progress is one batch-progress snapshot: how far a SaveAllContext run has
// come and how its outcomes split so far.
type Progress struct {
	// Done and Total count outliers whose save has finished vs. all
	// outliers of the batch.
	Done, Total int
	// Saved, Natural, Exhausted and Failed split the finished saves (a
	// save can be both Saved and Exhausted: best-so-far answer kept).
	Saved, Natural, Exhausted, Failed int
	// Elapsed is the time since the reporter was created.
	Elapsed time.Duration
	// ETA linearly extrapolates the remaining time from Done/Elapsed;
	// zero until at least one item finished.
	ETA time.Duration
}

// DefaultProgressInterval spaces progress callbacks when the caller does
// not pick a rate: frequent enough for a terminal ticker, far too slow to
// ever show up next to NP-hard per-outlier searches.
const DefaultProgressInterval = 200 * time.Millisecond

// Reporter delivers Progress snapshots to a callback at a bounded rate:
// the first report, at most one per interval after that, and always the
// final one. All methods are safe for concurrent use — the callback runs
// under the reporter's mutex, so it never executes concurrently with
// itself and needs no locking of its own. A nil *Reporter is a valid no-op
// receiver, so call sites need no nil checks.
type Reporter struct {
	fn       func(Progress)
	interval time.Duration

	mu    sync.Mutex
	start time.Time
	last  time.Time
}

// NewReporter wraps fn; a nil fn yields a nil (no-op) reporter. interval
// ≤ 0 selects DefaultProgressInterval.
func NewReporter(fn func(Progress), interval time.Duration) *Reporter {
	if fn == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return &Reporter{fn: fn, interval: interval, start: time.Now()}
}

// Report offers a snapshot; it is dropped when the previous delivery was
// less than the interval ago. Elapsed and ETA are filled in.
func (r *Reporter) Report(p Progress) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if !r.last.IsZero() && now.Sub(r.last) < r.interval {
		return
	}
	r.last = now
	r.deliver(p, now)
}

// Final delivers a snapshot unconditionally — the closing report of a
// batch must not be rate-limited away.
func (r *Reporter) Final(p Progress) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	r.last = now
	r.deliver(p, now)
}

// deliver fills the derived fields and invokes the callback; the caller
// holds r.mu.
func (r *Reporter) deliver(p Progress, now time.Time) {
	p.Elapsed = now.Sub(r.start)
	if p.Done > 0 && p.Done < p.Total {
		p.ETA = time.Duration(float64(p.Elapsed) / float64(p.Done) * float64(p.Total-p.Done))
	}
	r.fn(p)
}
