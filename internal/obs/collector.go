package obs

import "sync"

// Collector accumulates SearchStats from many runs under a mutex. It sits
// strictly at aggregation points — an experiment harness summing the
// batches it ran, a server summing requests — never inside a search, so
// the lock is uncontended per-batch, not per-node. A nil *Collector is a
// valid no-op receiver.
type Collector struct {
	mu    sync.Mutex
	stats SearchStats
	runs  int64
}

// Add folds one run's stats into the collector.
func (c *Collector) Add(s *SearchStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Add(s)
	c.runs++
	c.mu.Unlock()
}

// Snapshot returns the accumulated stats and the number of runs folded in.
func (c *Collector) Snapshot() (SearchStats, int64) {
	if c == nil {
		return SearchStats{}, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.runs
}
