package disc_test

import (
	"context"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	disc "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestSaveSingleAllocsWithHistograms is the telemetry layer's alloc guard:
// the BenchmarkSaveSingle workload, a κ = 2 save of a natural outlier, must
// stay at 0 allocations per save with the serving histograms recording
// around it — proof that Observe's three atomic adds never touch the heap,
// that the κ path's scratch all lives in the pooled arena, and that the hot
// path survived the instrumentation.
func TestSaveSingleAllocsWithHistograms(t *testing.T) {
	ds, err := disc.Table1("Letter", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	cons := disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		t.Skip("no outliers in the workload")
	}
	saver, err := disc.NewSaverContext(context.Background(), ds.Rel.Subset(det.Inliers), cons, disc.Options{Kappa: 2})
	if err != nil {
		t.Fatal(err)
	}
	to := ds.Rel.Tuples[det.Outliers[0]]
	var hists obs.ServeHists
	if adj := saver.SaveOne(context.Background(), to); !adj.Natural { // also warms the arena pool
		t.Fatalf("workload outlier is no longer natural (%+v); a saved answer allocates its tuple", adj)
	}

	allocs := testing.AllocsPerRun(20, func() {
		start := time.Now()
		adj := saver.SaveOne(context.Background(), to)
		hists.Save.ObserveSince(start)
		hists.SaveNodes.Observe(adj.Stats.Nodes)
	})
	// Outside race mode the pooled arena survives the loop: the saves
	// allocate nothing, so no GC runs to clear the pool.
	budget := 0.0
	if raceDetector {
		// The race detector's sync.Pool drops items, re-admitting the
		// arena allocations the pool normally absorbs.
		budget = 24
	}
	if allocs > budget {
		t.Errorf("save+observe allocates %.1f per op, want <= %.0f (histograms or the save scratch reached the heap?)", allocs, budget)
	}
	if s := hists.Save.Snapshot(); s.Count < 20 {
		t.Errorf("histogram recorded %d observations, want >= 20", s.Count)
	}
}

// TestObservabilityDocsDrift keeps docs/OBSERVABILITY.md and the obs
// counter structs from drifting apart: every json counter tag in obs must
// appear backticked in the doc, and every backticked token in the first
// column of a doc table must be a real counter tag. Wired into `make
// check` so a counter added without docs (or docs describing a removed
// counter) fails CI.
func TestObservabilityDocsDrift(t *testing.T) {
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	var tags []string
	for _, v := range []any{
		obs.SearchStats{}, obs.EndpointSnapshot{},
		obs.StoreSnapshot{}, obs.ClientSnapshot{}, obs.CoordSnapshot{},
	} {
		tags = append(tags, obs.CounterNames(v)...)
	}
	for _, tag := range tags {
		if !strings.Contains(text, "`"+tag+"`") {
			t.Errorf("counter tag %q is not documented in docs/OBSERVABILITY.md", tag)
		}
	}

	known := map[string]bool{}
	for _, tag := range tags {
		known[tag] = true
	}
	// Per-session counters exported through SessionInfo belong to the same
	// documented universe; `index` is its string-typed info field.
	for _, tag := range obs.CounterNames(serve.SessionInfo{}) {
		known[tag] = true
	}
	known["index"] = true
	// Histogram fields are not int64 counters, so CounterNames skips them;
	// their json tags are documented in the tables all the same.
	for _, v := range []any{obs.ServeHistsSnapshot{}, obs.EndpointSnapshot{}, obs.StoreSnapshot{}} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
				known[name] = true
			}
		}
	}

	token := regexp.MustCompile("`([a-z0-9_]+)`")
	for i, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") ||
			strings.Contains(line, "(`json` key)") || // table header
			strings.HasPrefix(line, "|---") { // separator
			continue
		}
		cells := strings.SplitN(line, "|", 3)
		if len(cells) < 3 {
			continue
		}
		for _, m := range token.FindAllStringSubmatch(cells[1], -1) {
			if !known[m[1]] {
				t.Errorf("docs/OBSERVABILITY.md line %d documents %q, which is not a counter tag in obs/serve", i+1, m[1])
			}
		}
	}
}
