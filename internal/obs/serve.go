package obs

import "sync/atomic"

// EndpointStats counts what the serving layer's admission control does to
// one endpoint's requests. Unlike SearchStats — whose shards are owned
// by one goroutine at a time — these counters sit on the concurrent request
// path, so they are atomics: every handler goroutine increments the same
// instance.
//
// The lifecycle of a request under admission control is
// admitted | rejected, then for admitted requests optionally expired (its
// deadline passed while it waited for a worker slot, so it was answered
// without running) or drained (started after shutdown began, as part of
// the graceful drain).
type EndpointStats struct {
	// Requests counts every request routed to the endpoint, before
	// admission control.
	Requests atomic.Int64
	// Admitted and Rejected split the requests that reached admission
	// control: Rejected counts queue-overflow (HTTP 429) and shutting-down
	// (HTTP 503) refusals.
	Admitted atomic.Int64
	Rejected atomic.Int64
	// Expired counts admitted requests whose deadline passed while they
	// waited for a worker slot; they are answered with the deadline error
	// without spending any search work.
	Expired atomic.Int64
	// Drained counts admitted requests started after shutdown began — the
	// graceful drain finishing what was already accepted.
	Drained atomic.Int64
	// Latency distributes end-to-end request wall time (nanoseconds,
	// middleware-measured: from route match to the last response byte).
	Latency Histogram
}

// EndpointSnapshot is a point-in-time copy of EndpointStats, shaped for
// JSON export (the /varz endpoint).
type EndpointSnapshot struct {
	Requests int64             `json:"requests"`
	Admitted int64             `json:"admitted"`
	Rejected int64             `json:"rejected"`
	Expired  int64             `json:"expired"`
	Drained  int64             `json:"drained"`
	Latency  HistogramSnapshot `json:"latency_ns"`
}

// Snapshot copies the counters. Reads are individually atomic, not mutually
// consistent — fine for monitoring, where the counters only ever grow.
func (e *EndpointStats) Snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests: e.Requests.Load(),
		Admitted: e.Admitted.Load(),
		Rejected: e.Rejected.Load(),
		Expired:  e.Expired.Load(),
		Drained:  e.Drained.Load(),
		Latency:  e.Latency.Snapshot(),
	}
}
