package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around a call into the program. Name is
// "<layer>.<operation>"; Run is the pass id of a batch workload or the
// X-Request-ID of a serving request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by finish
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps every span in memory; finish computes self times and
// writes them out once the measurement is over. A nil *tracer records
// nothing, so the untraced code path shares the traced one.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span now and returns its id (-1 on a nil tracer).
func (t *tracer) open(name, run string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: run, Start: now, End: now})
	return len(t.spans) - 1
}

// close ends span id now.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setTimes overrides a span's interval, for spans whose bounds are only
// known afterwards (a pool worker's first and last item).
func (t *tracer) setTimes(id int, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start = int64(start.Sub(t.t0))
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the union of
// the intervals its children cover inside it. Parallel children overlap,
// so the union, not the sum, is subtracted.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, k := range kids[i] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.Self = s.dur() - unionLen(iv)
	}
	return append([]span(nil), t.spans...)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// selfByLayer sums self time per layer, in seconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i := range spans {
		out[spans[i].layer()] += float64(spans[i].Self) / 1e9
	}
	return out
}

// unattributed is the share of the root spans' time that no child span
// covers: end-to-end time spent outside every layer boundary the
// benchmark wraps. A large value means a boundary is missing.
func unattributed(spans []span) float64 {
	var self, total int64
	for i := range spans {
		if spans[i].Parent < 0 {
			self += spans[i].Self
			total += spans[i].dur()
		}
	}
	return ratio(float64(self), float64(total))
}

// writeTrace stores the spans, and the self time they add up to per
// layer, as JSON under dir.
func writeTrace(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"self_s_by_layer": selfByLayer(spans), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
