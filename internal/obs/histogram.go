package obs

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the constant bucket count of every Histogram: bucket 0
// holds non-positive values, bucket k (1..63) holds values in
// [2^(k-1), 2^k). Power-of-two bounds make bucket selection one bits.Len64
// — no search, no float math — and keep every histogram the same fixed
// size, so merging is field-wise addition exactly like SearchStats.
const HistBuckets = 64

// Histogram is a constant-size, log-bucketed, lock-free histogram. Unlike
// SearchStats — whose shards are goroutine-owned — histograms sit on the
// concurrent request path (every handler and batch worker records into the
// same instance), so the buckets are atomics. Observe performs three
// atomic adds and zero allocations, cheap enough to sit next to the
// 1-alloc/op save path without moving it.
//
// The zero value is ready to use. A Histogram must not be copied after
// first use; Snapshot returns a plain value for reading and merging.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// HistBucketUpper returns the exclusive upper bound of bucket k (2^k);
// the top bucket's bound saturates at MaxInt64.
func HistBucketUpper(k int) int64 {
	if k >= 63 {
		return math.MaxInt64
	}
	return int64(1) << k
}

// histBucketLower is the inclusive lower bound of bucket k.
func histBucketLower(k int) int64 {
	if k == 0 {
		return 0
	}
	return int64(1) << (k - 1)
}

// Observe records one value. Nil-safe and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Snapshot copies the histogram. Reads are individually atomic, not
// mutually consistent — fine for monitoring, where buckets only grow.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the value the
// exporters and quantile estimation work from.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket where the target rank falls. The estimate is exact to
// within the bucket's width — a factor of 2 — which is what log-bucketed
// latency percentiles promise.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for k, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lo, hi := histBucketLower(k), HistBucketUpper(k)
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*(float64(hi)-float64(lo))
		}
		cum += c
	}
	return float64(s.max())
}

// max is the upper bound of the highest occupied bucket (0 when empty).
func (s HistogramSnapshot) max() int64 {
	for k := len(s.Buckets) - 1; k >= 0; k-- {
		if s.Buckets[k] != 0 {
			return HistBucketUpper(k)
		}
	}
	return 0
}

// Mean is the exact average of the observed values (sum is tracked
// outside the buckets).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// MarshalJSON emits the summary a /varz reader wants — count, sum and the
// p50/p95/p99 estimates — rather than 64 raw buckets; the full bucket
// vector is exported through /metrics.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"count": s.Count,
		"sum":   s.Sum,
		"p50":   s.Quantile(0.50),
		"p95":   s.Quantile(0.95),
		"p99":   s.Quantile(0.99),
		"max":   s.max(),
	})
}

// ServeHists bundles the serving layer's latency and size distributions.
// The server keeps one global instance and one per session, and each
// request records into both — two Observe calls per request, far off the
// per-node hot path. Durations are nanoseconds; Nodes, BatchSize and
// Redetect are dimensionless counts.
type ServeHists struct {
	// Save distributes per-save wall time (SaveOne, end to end, once the
	// request holds its worker slot); SaveNodes distributes the search
	// nodes each save expanded — together they answer whether slow saves
	// are big searches or scheduling artifacts.
	Save      Histogram
	SaveNodes Histogram
	// QueueWait distributes how long admitted requests waited for a
	// worker slot.
	QueueWait Histogram
	// BatchSize distributes requests per dispatch. Every request runs on
	// its own, so each observation is 1; the histogram stays because the
	// repo benchmark reads it.
	BatchSize Histogram
	// Redetect distributes redetect_touched per mutation: the ε-ball
	// re-detection footprint the incremental maintenance paid.
	Redetect Histogram
}

// ServeHistsSnapshot is the JSON view of a ServeHists (the /varz shape).
type ServeHistsSnapshot struct {
	Save      HistogramSnapshot `json:"save_ns"`
	SaveNodes HistogramSnapshot `json:"save_nodes"`
	QueueWait HistogramSnapshot `json:"queue_wait_ns"`
	BatchSize HistogramSnapshot `json:"batch_size"`
	Redetect  HistogramSnapshot `json:"redetect_touched"`
}

// Snapshot copies all five histograms.
func (h *ServeHists) Snapshot() ServeHistsSnapshot {
	return ServeHistsSnapshot{
		Save:      h.Save.Snapshot(),
		SaveNodes: h.SaveNodes.Snapshot(),
		QueueWait: h.QueueWait.Snapshot(),
		BatchSize: h.BatchSize.Snapshot(),
		Redetect:  h.Redetect.Snapshot(),
	}
}
