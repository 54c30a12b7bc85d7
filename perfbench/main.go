// Command perfbench is the repository's benchmark for the DISC pipeline:
// four seeded workloads driven through the program's public entry points,
// with every output checked. An untraced run (-trace 0) reports the
// end-to-end metrics; a traced run (-trace 1) wraps each call into the
// data, neighbors, core, par, cluster, serve and serve/coord packages in
// a span and reports the per-layer split. README.md says why each
// workload exists and what each metric should move.
//
//	bash perfbench/run.sh --workload lattice-detect --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare OLD.json NEW.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full record (environment,
// input digest, per-metric sample counts, the workload-specific metrics)
// is printed above it and kept under .bench_build/results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed no change may be tuned on: a claimed gain must
// also hold when the workloads are generated from it.
const heldOutSeed = 20210620

// outDir holds result records and traces, relative to the checkout root.
const outDir = ".bench_build"

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one of a workload's own end-to-end metrics (save_all_s,
// detect_p99_ms, ...) with the number of samples behind it.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// inputInfo describes the generated input the program received.
type inputInfo struct {
	SHA256   string `json:"sha256"`
	Bytes    int    `json:"bytes"`
	Rows     int    `json:"rows"`
	Attrs    int    `json:"m"`
	Outliers int    `json:"outliers"`
}

// report is what one workload run produces.
type report struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]metricVal
	layer             map[string]metricVal
	named             []namedMetric
	input             inputInfo
	// digest fingerprints the workload's output where it must repeat
	// exactly across runs of one seed (the repaired relation).
	digest string
}

func newReport() *report {
	return &report{e2e: map[string]metricVal{}, layer: map[string]metricVal{}}
}

func (r *report) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) name(name string, v float64, unit string, n int) {
	r.named = append(r.named, namedMetric{Name: name, Value: v, Unit: unit, Samples: n})
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metricVal{Value: v, Unit: unit}
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"lattice-detect", runLattice},
	{"letter-repair", runLetter},
	{"serve-mixed-rw", runServeMixed},
	{"coord-scatter", runCoordScatter},
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// order; every run reports all of one set.
var endToEnd = []string{"setup_s", "save_p50_ms", "query_p50_ms", "throughput", "live_heap_mb"}

// envRecord pins the conditions a result was taken under.
type envRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func environment() envRecord {
	return envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports ("" when unknown).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// record is the full result of one run, kept on disk and printed above
// the summary line.
type record struct {
	Workload    string        `json:"workload"`
	Seed        int64         `json:"seed"`
	HeldOutSeed int64         `json:"held_out_seed"`
	Trace       bool          `json:"trace"`
	Seconds     float64       `json:"seconds"`
	Env         envRecord     `json:"env"`
	Input       inputInfo     `json:"input"`
	Digest      string        `json:"output_digest,omitempty"`
	Named       []namedMetric `json:"workload_metrics"`
	Problems    []string      `json:"problems,omitempty"`
	Summary     summary       `json:"summary"`
}

// summary is the driver-facing last line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: lattice-detect, letter-repair, serve-mixed-rw or coord-scatter")
	seed := flag.Int64("seed", 1, "input seed; the same seed generates byte-identical inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 reports the traced per-layer split instead of the end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two result records given as arguments (OLD NEW)")
	flag.Parse()
	if *compare {
		os.Exit(compareRecords(flag.Args()))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, HeldOutSeed: heldOutSeed, Trace: cfg.trace,
		Seconds: *seconds, Env: environment(), Input: rep.input, Digest: rep.digest,
		Named: rep.named, Problems: rep.problems,
	}
	want, metrics := endToEnd, rep.e2e
	if cfg.trace {
		want, metrics = perLayer, rep.layer
	}
	for _, m := range want {
		if _, ok := metrics[m]; !ok {
			rep.problemf("metric %s was not measured", m)
		}
	}
	checkRepeat(&rec, rep)
	rec.Problems = rep.problems
	rec.Summary = summary{
		Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: pick(metrics, want),
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	if err := saveRecord(&rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: keeping the result record: %v\n", err)
	}
	printHuman(&rec)
	line, err := json.Marshal(rec.Summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func pick(m map[string]metricVal, names []string) map[string]metricVal {
	out := make(map[string]metricVal, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		}
	}
	return out
}

func recordPath(workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

// checkRepeat compares the output digest with the last run on the same
// input, traced or not: a repaired relation must not depend on the run,
// the tracing, or the machine's timing.
func checkRepeat(rec *record, rep *report) {
	if rep.digest == "" {
		return
	}
	for _, trace := range []bool{false, true} {
		old, err := loadRecord(recordPath(rec.Workload, rec.Seed, trace))
		if err != nil || old.Digest == "" || old.Input.SHA256 != rep.input.SHA256 {
			continue
		}
		if old.Digest != rep.digest {
			rep.problemf("output digest %s differs from an earlier run of seed %d (trace=%t): %s",
				rep.digest, rec.Seed, trace, old.Digest)
		}
	}
}

func saveRecord(rec *record) error {
	p := recordPath(rec.Workload, rec.Seed, rec.Trace)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(p, b, 0o644)
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// printHuman prints the record for a reader: environment, input, the
// workload's own metrics with sample counts, then the driver metrics.
func printHuman(rec *record) {
	e := rec.Env
	fmt.Printf("# %s seed=%d (held-out seed %d) trace=%t seconds=%g\n", rec.Workload, rec.Seed, rec.HeldOutSeed, rec.Trace, rec.Seconds)
	fmt.Printf("# env GOMAXPROCS=%d nproc=%d cpu=%q %s %s/%s\n", e.GOMAXPROCS, e.NProc, e.CPU, e.GoVersion, e.OS, e.Arch)
	in := rec.Input
	fmt.Printf("# input sha256=%s bytes=%d rows=%d m=%d outliers=%d\n", in.SHA256, in.Bytes, in.Rows, in.Attrs, in.Outliers)
	if rec.Digest != "" {
		fmt.Printf("# output digest %s\n", rec.Digest)
	}
	for _, m := range rec.Named {
		fmt.Printf("%s %s %.6g %s (n=%d)\n", rec.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	names := make([]string, 0, len(rec.Summary.Metrics))
	for n := range rec.Summary.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Summary.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", rec.Workload, n, v.Value, v.Unit)
	}
}

// compareRecords prints the relative change of every metric between two
// result records of the same workload. Records taken under different
// GOMAXPROCS (or for different workloads) are not comparable and are
// refused with exit status 2.
func compareRecords(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result records: OLD NEW")
		return 2
	}
	old, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cur, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if old.Env.GOMAXPROCS != cur.Env.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: GOMAXPROCS %d vs %d\n", old.Env.GOMAXPROCS, cur.Env.GOMAXPROCS)
		return 2
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s (trace=%t) with %s (trace=%t)\n",
			old.Workload, old.Trace, cur.Workload, cur.Trace)
		return 2
	}
	names := make([]string, 0, len(cur.Summary.Metrics))
	for n := range cur.Summary.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := old.Summary.Metrics[n]
		c := cur.Summary.Metrics[n]
		if !ok || o.Value == 0 {
			fmt.Printf("%s %s: %.6g %s (no base)\n", cur.Workload, n, c.Value, c.Unit)
			continue
		}
		fmt.Printf("%s %s: %.6g -> %.6g %s (%+.1f%%)\n", cur.Workload, n, o.Value, c.Value, c.Unit, 100*(c.Value-o.Value)/o.Value)
	}
	return 0
}
