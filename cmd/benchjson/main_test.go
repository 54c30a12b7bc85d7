package main

import (
	"bytes"
	"encoding/json"
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
	if g.NsPerOp != 23000 || g.NsPerOpMin != 23000 || g.NsPerOpMax != 23000 || g.BytesPerOp != nil {
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
