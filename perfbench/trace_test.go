package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 20, End: 25},
	}}
	spans := tr.finish()
	want := []int64{40, 25, 30, 30, 5}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("span %d self = %d, want %d", i, spans[i].Self, w)
		}
	}
	if got := unattributed(spans); got != 0.4 {
		t.Errorf("unattributed = %g, want 0.4", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.open("core.detect", "run", -1); id != -1 {
		t.Fatalf("nil tracer open = %d, want -1", id)
	}
	tr.close(-1)
}

func TestQuantile(t *testing.T) {
	s := samples{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := (samples{}).median(); got != 0 {
		t.Errorf("median of no samples = %g, want 0", got)
	}
}
