// Command benchjson converts `go test -bench` output on stdin into a
// versioned JSON snapshot, so the repository can commit a perf trajectory
// (BENCH_<pr>.json) alongside the code it measures.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./... | benchjson -out BENCH_2.json -key after
//
// The file holds one snapshot per key (conventionally "before" and
// "after"); an existing file is merged, not overwritten, so the before
// numbers captured at the start of a change survive the final run. Repeats
// of one benchmark (go test -count N) fold into one entry: the median of
// every column, the min, quartiles and max of ns/op, and the repeat count.
// Stdin is echoed to stdout, keeping the human-readable table visible when
// the command is used in a pipe.
//
// With -diff it compares two committed snapshots instead, each named
// FILE or FILE:KEY (KEY defaults to "after"):
//
//	benchjson -diff BENCH_14.json BENCH_17.json:after
//
// Entries match by (package, name, GOMAXPROCS). The table shows the old
// and new median ns/op and allocs/op. When both entries carry ns/op
// quartiles, a benchmark is SLOWER when the new lower quartile lies above
// the old upper quartile, and faster in the mirror case, so overlapping
// middle halves give no verdict and one slow repeat cannot hide a shift of
// the whole run. Entries without quartiles, as in snapshots written before
// they were recorded, keep the older rule: SLOWER when the new median lies
// above the old max, faster when it lies below the old min. The command
// exits 1 when any benchmark is SLOWER.
//
// With -perf it folds paired runs of the repository benchmark instead (see
// perf.go and `make perfbench-ab`):
//
//	benchjson -perf BENCHMARK.json PARENT.jsonl CHANGE.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Bench is one benchmark's result, folded over its repeats.
type Bench struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (from the pkg: header).
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran under (the stripped
	// suffix; 1 when the name carries none). Procs, Count and the ns/op
	// spread are omitted when zero: snapshots written before repeats were
	// folded lack them, and a merge must not rewrite them as measured zeros.
	Procs int `json:"procs,omitempty"`
	// Count is the number of repeats folded into this entry.
	Count int `json:"count,omitempty"`
	// Iters is the total b.N over the repeats.
	Iters int64 `json:"iters"`
	// NsPerOp is the median ns/op over the repeats; NsPerOpMin,
	// NsPerOpQ1, NsPerOpQ3 and NsPerOpMax are its spread.
	NsPerOp    float64 `json:"ns_per_op"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpQ1  float64 `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3  float64 `json:"ns_per_op_q3,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
	// BytesPerOp and AllocsPerOp are the medians of the standard columns;
	// present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the medians of custom b.ReportMetric units (nodes,
	// saved, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one snapshot of the whole suite.
type Run struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// File is the committed artifact: snapshots keyed by label.
type File struct {
	Schema string          `json:"schema"`
	Note   string          `json:"note,omitempty"`
	Runs   map[string]*Run `json:"runs"`
}

var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	var (
		out   = flag.String("out", "", "JSON file to merge the snapshot into (required)")
		key   = flag.String("key", "after", "snapshot label inside the file (e.g. before, after)")
		note  = flag.String("note", "", "optional note stored at the top level of the file")
		isDif = flag.Bool("diff", false, "compare two snapshots given as arguments (OLD NEW, each FILE or FILE:KEY)")
		isPrf = flag.Bool("perf", false, "fold paired perfbench runs given as arguments (BENCHMARK.json PARENT.jsonl CHANGE.jsonl)")
	)
	flag.Parse()
	if *isDif {
		os.Exit(diffMain(flag.Args(), os.Stdout))
	}
	if *isPrf {
		os.Exit(perfMain(flag.Args(), os.Stdout))
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	run, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(run.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin; file left untouched")
		os.Exit(1)
	}

	f := &File{Schema: "disc-bench/v1", Runs: map[string]*Run{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not a bench file: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if f.Runs == nil {
		f.Runs = map[string]*Run{}
	}
	if *note != "" {
		f.Note = *note
	}
	f.Runs[*key] = run

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s under %q\n", len(run.Benchmarks), *out, *key)
}

// sample is one parsed benchmark result line: a single repeat.
type sample struct {
	iters         int64
	ns            float64
	bytes, allocs *float64
	metrics       map[string]float64
}

// parse reads `go test -bench` output, echoing every line to tee, and
// folds the repeats of each (package, benchmark, GOMAXPROCS) into one
// Bench, in order of first appearance.
func parse(r io.Reader, tee io.Writer) (*Run, error) {
	run := &Run{}
	type key struct {
		pkg, name string
		procs     int
	}
	var order []key
	samples := map[key][]sample{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(tee, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			smp, err := parseSample(m[3], m[4])
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
				continue
			}
			k := key{pkg: pkg, name: m[1], procs: 1}
			if m[2] != "" {
				k.procs, _ = strconv.Atoi(m[2]) // the pattern admits digits only
			}
			if _, seen := samples[k]; !seen {
				order = append(order, k)
			}
			samples[k] = append(samples[k], smp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range order {
		b := fold(samples[k])
		b.Name, b.Pkg, b.Procs = k.name, k.pkg, k.procs
		run.Benchmarks = append(run.Benchmarks, b)
	}
	return run, nil
}

// parseSample parses the iteration count and the tail of a result line, a
// sequence of "<value> <unit>" pairs.
func parseSample(iters, tail string) (sample, error) {
	n, err := strconv.ParseInt(iters, 10, 64)
	if err != nil {
		return sample{}, err
	}
	smp := sample{iters: n}
	fields := strings.Fields(tail)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, fmt.Errorf("bad value %q", fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			smp.ns = v
		case "B/op":
			smp.bytes = &v
		case "allocs/op":
			smp.allocs = &v
		default:
			if smp.metrics == nil {
				smp.metrics = map[string]float64{}
			}
			smp.metrics[unit] = v
		}
	}
	return smp, nil
}

// fold reduces the repeats of one benchmark to medians, with the min,
// quartiles and max of ns/op.
func fold(ss []sample) Bench {
	b := Bench{Count: len(ss)}
	var ns, bytes, allocs []float64
	metrics := map[string][]float64{}
	for _, s := range ss {
		b.Iters += s.iters
		ns = append(ns, s.ns)
		if s.bytes != nil {
			bytes = append(bytes, *s.bytes)
		}
		if s.allocs != nil {
			allocs = append(allocs, *s.allocs)
		}
		for unit, v := range s.metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax = median(ns), slices.Min(ns), slices.Max(ns)
	b.NsPerOpQ1, b.NsPerOpQ3 = quantile(ns, 0.25), quantile(ns, 0.75)
	if len(bytes) > 0 {
		v := median(bytes)
		b.BytesPerOp = &v
	}
	if len(allocs) > 0 {
		v := median(allocs)
		b.AllocsPerOp = &v
	}
	for unit, vs := range metrics {
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = median(vs)
	}
	return b
}

// median returns the median of vs (the mean of the middle two for an even
// count), sorting vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quantile returns the p-quantile of vs, interpolating linearly between
// the two nearest ranks, sorting vs in place.
func quantile(vs []float64, p float64) float64 {
	slices.Sort(vs)
	pos := p * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}

// diffMain runs -diff over its two FILE[:KEY] arguments and returns the
// exit status: 0 clean, 1 regression or unreadable input, 2 usage.
func diffMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff OLD NEW (each FILE or FILE:KEY, KEY defaults to after)")
		return 2
	}
	var runs [2]*Run
	for i, arg := range args {
		run, err := loadRun(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		runs[i] = run
	}
	if n := diff(runs[0], runs[1], w); n > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) slower than the old snapshot\n", n)
		return 1
	}
	return 0
}

// loadRun reads the snapshot named by FILE or FILE:KEY.
func loadRun(arg string) (*Run, error) {
	file, key := arg, "after"
	if i := strings.LastIndex(arg, ":"); i >= 0 {
		file, key = arg[:i], arg[i+1:]
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s is not a bench file: %v", file, err)
	}
	run, ok := f.Runs[key]
	if !ok {
		return nil, fmt.Errorf("%s has no snapshot %q", file, key)
	}
	return run, nil
}

// benchKey identifies one benchmark across snapshots. Snapshots written
// before GOMAXPROCS was recorded carry procs 0 and match only each other.
type benchKey struct {
	pkg, name string
	procs     int
}

// diff writes the comparison table of the before snapshot against the
// after one and returns the number of regressions: matched entries that
// verdict marks SLOWER. Entries present on one side only are listed and
// never counted.
func diff(before, after *Run, w io.Writer) int {
	olds := map[benchKey]Bench{}
	for _, b := range before.Benchmarks {
		olds[benchKey{b.Pkg, b.Name, b.Procs}] = b
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tprocs\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\t\t")
	regressions := 0
	seen := map[benchKey]bool{}
	for _, b := range after.Benchmarks {
		k := benchKey{b.Pkg, b.Name, b.Procs}
		seen[k] = true
		o, ok := olds[k]
		if !ok {
			fmt.Fprintf(tw, "%s\t%d\t-\t%.0f\t\t-\t%s\tnew\t\n", label(b), b.Procs, b.NsPerOp, allocs(b))
			continue
		}
		v := verdict(o, b)
		if v == "SLOWER" {
			regressions++
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%+.1f%%\t%s\t%s\t%s\t\n", label(b), b.Procs, o.NsPerOp, b.NsPerOp,
			100*(b.NsPerOp-o.NsPerOp)/o.NsPerOp, allocs(o), allocs(b), v)
	}
	for _, o := range before.Benchmarks {
		if !seen[benchKey{o.Pkg, o.Name, o.Procs}] {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t-\t\t%s\t-\tgone\t\n", label(o), o.Procs, o.NsPerOp, allocs(o))
		}
	}
	tw.Flush()
	return regressions
}

// verdict compares one benchmark's old and new entries: "SLOWER",
// "faster" or "". With quartiles on both sides the middle halves must not
// overlap; otherwise the new median is held against the old min and max.
func verdict(o, b Bench) string {
	if o.NsPerOpQ3 > 0 && b.NsPerOpQ1 > 0 {
		switch {
		case b.NsPerOpQ1 > o.NsPerOpQ3:
			return "SLOWER"
		case b.NsPerOpQ3 < o.NsPerOpQ1:
			return "faster"
		}
		return ""
	}
	switch {
	case o.NsPerOpMax > 0 && b.NsPerOp > o.NsPerOpMax:
		return "SLOWER"
	case o.NsPerOpMin > 0 && b.NsPerOp < o.NsPerOpMin:
		return "faster"
	}
	return ""
}

// label names a benchmark by package-relative path and name.
func label(b Bench) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(b.Pkg, "repro"), "/")
	if pkg == "" {
		return b.Name
	}
	return pkg + "." + b.Name
}

// allocs formats the median allocs/op, or "-" when -benchmem was off.
func allocs(b Bench) string {
	if b.AllocsPerOp == nil {
		return "-"
	}
	return strconv.FormatFloat(*b.AllocsPerOp, 'f', -1, 64)
}
