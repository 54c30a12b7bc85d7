package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in the bucket whose [lower, upper) range holds
	// it — the invariant Quantile's interpolation leans on.
	for i := 0; i < 1000; i++ {
		v := rand.Int63()
		k := histBucket(v)
		if lo, hi := histBucketLower(k), HistBucketUpper(k); v < lo || (v > hi) {
			t.Fatalf("v=%d fell in bucket %d with range [%d, %d)", v, k, lo, hi)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 101 { // negative observations subtract from the sum as-is
		t.Errorf("Sum = %d, want 101", s.Sum)
	}
	if s.Buckets[0] != 1 {
		t.Errorf("bucket 0 (v<=0) = %d, want 1", s.Buckets[0])
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestNilHistogramIsSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram snapshot = %+v, want zero", s)
	}
}

// TestHistogramQuantile checks the estimation error stays within the
// log-bucket resolution: the estimate for q must sit within a factor of 2
// of the true order statistic (one bucket's width).
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		exact := q * 1000
		if got < exact/2 || got > exact*2 {
			t.Errorf("Quantile(%.2f) = %.1f, want within 2x of %.1f", q, got, exact)
		}
	}
	if s.Quantile(1) > float64(HistBucketUpper(histBucket(1000))) {
		t.Errorf("Quantile(1) = %.1f beyond the max bucket upper bound", s.Quantile(1))
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this doubles as the lock-freedom proof, and the
// final snapshot must account for every observation.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(42) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramSnapshotJSON(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]float64
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "sum", "p50", "p95", "p99", "max"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("marshaled snapshot missing %q: %s", k, b)
		}
	}
	if doc["count"] != 100 {
		t.Errorf("count = %v, want 100", doc["count"])
	}
	if doc["p50"] > doc["p99"] || doc["p99"] > doc["max"] {
		t.Errorf("percentiles not ordered: %s", b)
	}
}

func TestServeHistsSnapshot(t *testing.T) {
	var sh ServeHists
	sh.Save.Observe(10)
	sh.QueueWait.Observe(20)
	sh.BatchSize.Observe(3)
	s := sh.Snapshot()
	if s.Save.Count != 1 || s.QueueWait.Count != 1 || s.BatchSize.Count != 1 || s.Redetect.Count != 0 {
		t.Errorf("ServeHists snapshot wrong: %+v", s)
	}
	// The bundle's json tags are the contract /varz and the docs tables
	// share; pin them.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"save_ns", "save_nodes", "queue_wait_ns", "batch_size", "redetect_touched"} {
		if !json.Valid(b) || !containsKey(b, tag) {
			t.Errorf("ServeHistsSnapshot JSON missing %q: %s", tag, b)
		}
	}
}

func containsKey(b []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
