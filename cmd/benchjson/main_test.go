package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// fixture is `go test -bench -benchmem -count 3` output: three repeats of
// one benchmark with a custom metric, plus a single-run benchmark in a
// second package and one without a GOMAXPROCS suffix.
const fixture = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkSaveSingle-2        	    1314	    929056 ns/op	       120.0 prunes	     359 B/op	       1 allocs/op
BenchmarkSaveSingle-2        	    1254	    881605 ns/op	       118.0 prunes	     375 B/op	       1 allocs/op
BenchmarkSaveSingle-2        	    1651	    858372 ns/op	       122.0 prunes	     289 B/op	       0 allocs/op
PASS
ok  	repro	15.433s
pkg: repro/internal/neighbors
BenchmarkGridWithin-8   	   50000	     23000 ns/op
BenchmarkBruteWithin   	     100	   1000000 ns/op
PASS
`

func TestParseFoldsRepeats(t *testing.T) {
	var tee bytes.Buffer
	run, err := parse(strings.NewReader(fixture), &tee)
	if err != nil {
		t.Fatal(err)
	}
	if tee.String() != fixture {
		t.Error("stdin was not echoed verbatim")
	}
	if run.Goos != "linux" || run.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("header not parsed: %+v", run)
	}
	if len(run.Benchmarks) != 3 {
		t.Fatalf("got %d entries, want 3 (repeats folded): %+v", len(run.Benchmarks), run.Benchmarks)
	}

	b := run.Benchmarks[0]
	if b.Name != "BenchmarkSaveSingle" || b.Pkg != "repro" || b.Procs != 2 || b.Count != 3 {
		t.Errorf("identity = %s %s procs=%d count=%d", b.Name, b.Pkg, b.Procs, b.Count)
	}
	if b.Iters != 1314+1254+1651 {
		t.Errorf("iters = %d, want the total over repeats", b.Iters)
	}
	if b.NsPerOp != 881605 || b.NsPerOpMin != 858372 || b.NsPerOpMax != 929056 {
		t.Errorf("ns/op median/min/max = %v/%v/%v", b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax)
	}
	// Quartiles interpolate between the nearest ranks: halfway between the
	// first and second repeat, and between the second and third.
	if b.NsPerOpQ1 != 869988.5 || b.NsPerOpQ3 != 905330.5 {
		t.Errorf("ns/op quartiles = %v/%v, want 869988.5/905330.5", b.NsPerOpQ1, b.NsPerOpQ3)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 359 || b.AllocsPerOp == nil || *b.AllocsPerOp != 1 {
		t.Errorf("B/op, allocs/op medians = %v, %v", b.BytesPerOp, b.AllocsPerOp)
	}
	if b.Metrics["prunes"] != 120 {
		t.Errorf("prunes median = %v, want 120", b.Metrics["prunes"])
	}

	g := run.Benchmarks[1]
	if g.Name != "BenchmarkGridWithin" || g.Pkg != "repro/internal/neighbors" || g.Procs != 8 || g.Count != 1 {
		t.Errorf("second entry = %+v", g)
	}
	if g.NsPerOp != 23000 || g.NsPerOpMin != 23000 || g.NsPerOpQ1 != 23000 || g.NsPerOpQ3 != 23000 ||
		g.NsPerOpMax != 23000 || g.BytesPerOp != nil {
		t.Errorf("single run = %+v", g)
	}
	if w := run.Benchmarks[2]; w.Name != "BenchmarkBruteWithin" || w.Procs != 1 {
		t.Errorf("suffix-less entry = %+v", w)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOldSnapshotKeepsShape round-trips an entry written before repeats were
// folded: a merge rewrites every run in the file, and it must not give the
// old entry a count, procs or ns/op spread of zero.
func TestOldSnapshotKeepsShape(t *testing.T) {
	const old = `{"name":"BenchmarkDetect","pkg":"repro","iters":12,"ns_per_op":93000000}`
	var b Bench
	if err := json.Unmarshal([]byte(old), &b); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != old {
		t.Errorf("rewritten as %s, want %s", out, old)
	}
}

// TestDiff covers -diff's verdicts. Without quartiles, a median above the
// old max is a regression and fails the gate; one below the old min is
// reported as faster; a move inside the old spread is neither. With
// quartiles on both sides, overlapping middle halves get no verdict even
// when the new median passes the old max; separated ones are SLOWER or
// faster; and one slow repeat that stretches the old max no longer hides
// a shift of the whole new run. Entries on one side only, and entries
// whose GOMAXPROCS differ, are listed but never compared.
func TestDiff(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	before := &Run{Benchmarks: []Bench{
		{Pkg: "repro", Name: "BenchmarkSlower", Procs: 2, NsPerOp: 100, NsPerOpMin: 90, NsPerOpMax: 110, AllocsPerOp: allocs(3)},
		{Pkg: "repro", Name: "BenchmarkFaster", Procs: 2, NsPerOp: 100, NsPerOpMin: 95, NsPerOpMax: 105},
		{Pkg: "repro", Name: "BenchmarkSteady", Procs: 2, NsPerOp: 100, NsPerOpMin: 95, NsPerOpMax: 105},
		{Pkg: "repro", Name: "BenchmarkGone", Procs: 2, NsPerOp: 100, NsPerOpMin: 95, NsPerOpMax: 105},
		{Pkg: "repro/internal/neighbors", Name: "BenchmarkProcs", Procs: 1, NsPerOp: 100, NsPerOpMin: 95, NsPerOpMax: 105},
		{Pkg: "repro", Name: "BenchmarkQOverlap", Procs: 2, NsPerOp: 100, NsPerOpMin: 96, NsPerOpQ1: 98, NsPerOpQ3: 104, NsPerOpMax: 106},
		{Pkg: "repro", Name: "BenchmarkQSlower", Procs: 2, NsPerOp: 100, NsPerOpMin: 96, NsPerOpQ1: 98, NsPerOpQ3: 102, NsPerOpMax: 106},
		{Pkg: "repro", Name: "BenchmarkQFaster", Procs: 2, NsPerOp: 100, NsPerOpMin: 96, NsPerOpQ1: 98, NsPerOpQ3: 102, NsPerOpMax: 106},
		{Pkg: "repro", Name: "BenchmarkQOldOutlier", Procs: 2, NsPerOp: 100, NsPerOpMin: 96, NsPerOpQ1: 98, NsPerOpQ3: 102, NsPerOpMax: 300},
	}}
	after := &Run{Benchmarks: []Bench{
		{Pkg: "repro", Name: "BenchmarkSlower", Procs: 2, NsPerOp: 130, AllocsPerOp: allocs(0)},
		{Pkg: "repro", Name: "BenchmarkFaster", Procs: 2, NsPerOp: 80},
		{Pkg: "repro", Name: "BenchmarkSteady", Procs: 2, NsPerOp: 104},
		{Pkg: "repro", Name: "BenchmarkNew", Procs: 2, NsPerOp: 100},
		{Pkg: "repro/internal/neighbors", Name: "BenchmarkProcs", Procs: 2, NsPerOp: 900},
		{Pkg: "repro", Name: "BenchmarkQOverlap", Procs: 2, NsPerOp: 108, NsPerOpMin: 97, NsPerOpQ1: 103, NsPerOpQ3: 110, NsPerOpMax: 112},
		{Pkg: "repro", Name: "BenchmarkQSlower", Procs: 2, NsPerOp: 105, NsPerOpMin: 97, NsPerOpQ1: 103, NsPerOpQ3: 107, NsPerOpMax: 112},
		{Pkg: "repro", Name: "BenchmarkQFaster", Procs: 2, NsPerOp: 93, NsPerOpMin: 90, NsPerOpQ1: 92, NsPerOpQ3: 97, NsPerOpMax: 99},
		{Pkg: "repro", Name: "BenchmarkQOldOutlier", Procs: 2, NsPerOp: 125, NsPerOpMin: 118, NsPerOpQ1: 120, NsPerOpQ3: 130, NsPerOpMax: 140},
	}}
	var out bytes.Buffer
	if n := diff(before, after, &out); n != 3 {
		t.Fatalf("diff counted %d regressions, want 3 (BenchmarkSlower, BenchmarkQSlower, BenchmarkQOldOutlier):\n%s", n, out.String())
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]+"/"+f[1]] = line
	}
	for name, want := range map[string]string{
		"BenchmarkSlower/2":                   "SLOWER",
		"BenchmarkFaster/2":                   "faster",
		"BenchmarkGone/2":                     "gone",
		"BenchmarkNew/2":                      "new",
		"internal/neighbors.BenchmarkProcs/1": "gone",
		"internal/neighbors.BenchmarkProcs/2": "new",
		"BenchmarkQSlower/2":                  "SLOWER",
		"BenchmarkQFaster/2":                  "faster",
		"BenchmarkQOldOutlier/2":              "SLOWER",
	} {
		if !strings.HasSuffix(strings.TrimSpace(rows[name]), want) {
			t.Errorf("row %s = %q, want verdict %q", name, rows[name], want)
		}
	}
	for _, name := range []string{"BenchmarkSteady/2", "BenchmarkQOverlap/2"} {
		if f := strings.Fields(rows[name]); f[len(f)-1] != "0" && f[len(f)-1] != "-" {
			t.Errorf("row %q carries a verdict", rows[name])
		}
	}
	if f := strings.Fields(rows["BenchmarkSlower/2"]); f[2] != "100" || f[3] != "130" || f[5] != "3" || f[6] != "0" {
		t.Errorf("slower row %q: want old/new ns/op 100/130 and allocs 3/0", rows["BenchmarkSlower/2"])
	}
}

// TestDiffMain drives -diff through files and snapshot keys: a
// regression exits 1, a clean comparison 0, bad arguments 2.
func TestDiffMain(t *testing.T) {
	f := File{Schema: "disc-bench/v1", Runs: map[string]*Run{
		"before": {Benchmarks: []Bench{{Pkg: "repro", Name: "BenchmarkX", Procs: 2, NsPerOp: 100, NsPerOpMin: 90, NsPerOpMax: 110}}},
		"after":  {Benchmarks: []Bench{{Pkg: "repro", Name: "BenchmarkX", Procs: 2, NsPerOp: 120, NsPerOpMin: 115, NsPerOpMax: 125}}},
	}}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_X.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := diffMain([]string{path + ":before", path}, &out); code != 1 {
		t.Errorf("before→after exit %d, want 1 (120 > max 110)", code)
	}
	if code := diffMain([]string{path + ":after", path + ":before"}, &out); code != 0 {
		t.Errorf("after→before exit %d, want 0", code)
	}
	if code := diffMain([]string{path}, &out); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := diffMain([]string{path + ":missing", path}, &out); code != 1 {
		t.Errorf("unknown snapshot key: exit %d, want 1", code)
	}
}
