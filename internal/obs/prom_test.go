package obs

import (
	"strings"
	"testing"

	"repro/internal/obs/promtest"
)

func TestCountersReflectsJSONTags(t *testing.T) {
	got := CounterNames(SearchStats{})
	want := []string{"nodes", "lb_prunes", "cand_prunes", "memo_hits"}
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			t.Fatalf("CounterNames(SearchStats) = %v, want prefix %v", got, want)
		}
	}
	// Pointers deref; values match the fields.
	cs := Counters(&SearchStats{Nodes: 7, DistEvals: 3})
	byName := map[string]int64{}
	for _, c := range cs {
		byName[c.Name] = c.Value
	}
	if byName["nodes"] != 7 || byName["dist_evals"] != 3 {
		t.Errorf("Counters values wrong: %v", byName)
	}
	// Non-int64 fields (the Latency histogram) are skipped.
	for _, n := range CounterNames(EndpointSnapshot{}) {
		if n == "latency_ns" {
			t.Errorf("CounterNames included the non-int64 histogram field: %v", n)
		}
	}
}

// TestPromWriterGolden pins the exposition basics: HELP/TYPE once per
// family even across interleaved label sets, escaped help, samples in
// emission order.
func TestPromWriterGolden(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("disc_requests_total", "Requests.", 3, "endpoint", "save")
	p.Counter("disc_requests_total", "Requests.", 5, "endpoint", "detect")
	p.Gauge("disc_up", `Help with \ and
newline.`, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP disc_requests_total Requests.
# TYPE disc_requests_total counter
disc_requests_total{endpoint="save"} 3
disc_requests_total{endpoint="detect"} 5
# HELP disc_up Help with \\ and\nnewline.
# TYPE disc_up gauge
disc_up 1
`
	if got != want {
		t.Errorf("output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromWriterTypeConflict(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("disc_x", "h", 1)
	p.Gauge("disc_x", "h", 2)
	if err := p.Flush(); err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Errorf("redeclaring a family's type returned %v, want an error", err)
	}
}

// TestPromLabelEscapingRoundTrip writes label values containing every
// escapable character and reads them back through the validating parser.
func TestPromLabelEscapingRoundTrip(t *testing.T) {
	gnarly := "a\\b\"c\nd,e{f}"
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("disc_x_total", "h", 1, "session", gnarly, "name", `q"`)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse on escaped output: %v\n%s", err, sb.String())
	}
	f := fams["disc_x_total"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("family not parsed: %+v", fams)
	}
	if got := f.Samples[0].Labels["session"]; got != gnarly {
		t.Errorf("label round trip = %q, want %q", got, gnarly)
	}
	if got := f.Samples[0].Labels["name"]; got != `q"` {
		t.Errorf("second label = %q, want %q", got, `q"`)
	}
}

// TestPromHistogramTriples: the emitted histogram must parse and satisfy
// the cumulative _bucket/_sum/_count contract, per label set.
func TestPromHistogramTriples(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 3, 3, 100, 5000} {
		h.Observe(v)
	}
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Histogram("disc_lat_seconds", "Latency.", h.Snapshot(), 1e-9, "endpoint", "save")
	p.Histogram("disc_lat_seconds", "Latency.", h.Snapshot(), 1e-9, "endpoint", "detect")
	p.Histogram("disc_batch_size", "Sizes.", h.Snapshot(), 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	fams, err := promtest.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("histogram output failed validation: %v\n%s", err, out)
	}
	f := fams["disc_lat_seconds"]
	if f == nil || f.Type != "histogram" {
		t.Fatalf("family missing or mistyped: %+v", f)
	}
	// One +Inf bucket per label set, each equal to the count (5).
	inf := 0
	for _, s := range f.Samples {
		if s.Name == "disc_lat_seconds_bucket" && s.Labels["le"] == "+Inf" {
			inf++
			if s.Value != 5 {
				t.Errorf("+Inf bucket = %v, want 5", s.Value)
			}
		}
	}
	if inf != 2 {
		t.Errorf("got %d +Inf buckets, want 2 (one per endpoint)", inf)
	}
	if strings.Count(out, "# TYPE disc_lat_seconds histogram") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "disc_x 1\n",
		"bad name":           "# TYPE 9bad counter\n9bad 1\n",
		"bad label":          "# TYPE disc_x counter\ndisc_x{9l=\"v\"} 1\n",
		"unterminated label": "# TYPE disc_x counter\ndisc_x{l=\"v\n",
		"bad value":          "# TYPE disc_x counter\ndisc_x pots\n",
		"duplicate TYPE":     "# TYPE disc_x counter\n# TYPE disc_x counter\ndisc_x 1\n",
		"missing +Inf": "# TYPE disc_h histogram\n" +
			"disc_h_bucket{le=\"1\"} 1\ndisc_h_sum 1\ndisc_h_count 1\n",
		"non-cumulative buckets": "# TYPE disc_h histogram\n" +
			"disc_h_bucket{le=\"1\"} 5\ndisc_h_bucket{le=\"2\"} 3\n" +
			"disc_h_bucket{le=\"+Inf\"} 5\ndisc_h_sum 1\ndisc_h_count 5\n",
		"inf bucket != count": "# TYPE disc_h histogram\n" +
			"disc_h_bucket{le=\"+Inf\"} 4\ndisc_h_sum 1\ndisc_h_count 5\n",
	}
	for name, in := range cases {
		if _, err := promtest.Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

// TestClientStatsPromCoverage: every ClientSnapshot counter tag survives
// the reflection the exporters use, so a client-side /metrics emitter (or
// the docs drift check) sees all of them.
func TestClientStatsPromCoverage(t *testing.T) {
	got := CounterNames(ClientSnapshot{})
	want := []string{"requests", "retries", "breaker_trips", "breaker_open", "fallbacks"}
	if len(got) != len(want) {
		t.Fatalf("ClientSnapshot counters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counter[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
