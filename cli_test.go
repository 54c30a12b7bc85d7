package disc_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	disc "repro"
)

// buildTool compiles one of the cmd binaries into a temp dir once per
// test run.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI build")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIDatagenAndDisccliPipeline(t *testing.T) {
	datagen := buildTool(t, "datagen")
	disccli := buildTool(t, "disccli")

	dir := t.TempDir()
	raw := filepath.Join(dir, "iris.csv")
	fixed := filepath.Join(dir, "iris_fixed.csv")

	// Generate a dataset.
	var stdout, stderr bytes.Buffer
	gen := exec.Command(datagen, "-dataset", "Iris", "-seed", "3")
	gen.Stdout = &stdout
	gen.Stderr = &stderr
	if err := gen.Run(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, stderr.String())
	}
	if err := os.WriteFile(raw, stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "Iris") {
		t.Errorf("datagen banner missing: %s", stderr.String())
	}

	// Repair it with auto-determined parameters.
	stderr.Reset()
	fix := exec.Command(disccli, "-in", raw, "-out", fixed, "-report")
	fix.Stderr = &stderr
	if err := fix.Run(); err != nil {
		t.Fatalf("disccli: %v\n%s", err, stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"determined ε=", "outliers", "saved"} {
		if !strings.Contains(log, want) {
			t.Errorf("disccli log missing %q:\n%s", want, log)
		}
	}

	// The output parses and has the same shape.
	in, err := os.Open(fixed)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	rawBytes, _ := os.ReadFile(raw)
	fixedBytes, _ := os.ReadFile(fixed)
	if lines := bytes.Count(rawBytes, []byte("\n")); lines != bytes.Count(fixedBytes, []byte("\n")) {
		t.Error("repair changed the row count")
	}
	if bytes.Equal(rawBytes, fixedBytes) {
		t.Error("repair changed nothing (no outliers saved?)")
	}
}

func TestCLIDatagenStatsAndTruth(t *testing.T) {
	datagen := buildTool(t, "datagen")

	var stderr bytes.Buffer
	stats := exec.Command(datagen, "-dataset", "GPS", "-scale", "0.05", "-stats")
	stats.Stderr = &stderr
	if err := stats.Run(); err != nil {
		t.Fatalf("datagen -stats: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "pairwise distance quantiles") {
		t.Errorf("stats output missing quantiles:\n%s", stderr.String())
	}

	var stdout bytes.Buffer
	truth := exec.Command(datagen, "-dataset", "Seeds", "-truth")
	truth.Stdout = &stdout
	if err := truth.Run(); err != nil {
		t.Fatalf("datagen -truth: %v", err)
	}
	header := strings.SplitN(stdout.String(), "\n", 2)[0]
	for _, col := range []string{"_class", "_dirty", "_natural"} {
		if !strings.Contains(header, col) {
			t.Errorf("truth header missing %s: %s", col, header)
		}
	}
}

// TestCLIDisccliObservability drives the PR's acceptance path: a repair run
// with -progress, -deadline and -stats-json must emit progress lines, finish
// inside the deadline, and write a stats record with live search counters.
func TestCLIDisccliObservability(t *testing.T) {
	datagen := buildTool(t, "datagen")
	disccli := buildTool(t, "disccli")

	dir := t.TempDir()
	raw := filepath.Join(dir, "iris.csv")
	statsPath := filepath.Join(dir, "stats.json")

	out, err := exec.Command(datagen, "-dataset", "Iris", "-seed", "5", "-scale", "0.3").Output()
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if err := os.WriteFile(raw, out, 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	fix := exec.Command(disccli, "-in", raw, "-out", filepath.Join(dir, "fixed.csv"),
		"-progress", "-deadline", "2m", "-stats-json", statsPath, "-report")
	fix.Stderr = &stderr
	if err := fix.Run(); err != nil {
		t.Fatalf("disccli: %v\n%s", err, stderr.String())
	}
	log := stderr.String()
	if !strings.Contains(log, "saving") {
		t.Errorf("-progress emitted no progress lines:\n%s", log)
	}
	if !strings.Contains(log, "not processed") {
		t.Errorf("-report trailer missing the failure split:\n%s", log)
	}

	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("-stats-json wrote nothing: %v", err)
	}
	var rec struct {
		Tuples   int `json:"tuples"`
		Outliers int `json:"outliers"`
		Saved    int `json:"saved"`
		Stats    struct {
			Nodes        int64 `json:"nodes"`
			LBPrunes     int64 `json:"lb_prunes"`
			MemoHits     int64 `json:"memo_hits"`
			RangeQueries int64 `json:"range_queries"`
			DistEvals    int64 `json:"dist_evals"`
		} `json:"stats"`
		Timings struct {
			TotalS float64 `json:"total_s"`
			SaveS  float64 `json:"save_s"`
		} `json:"timings"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, b)
	}
	if rec.Tuples == 0 || rec.Outliers == 0 {
		t.Fatalf("stats record empty: %s", b)
	}
	if rec.Stats.Nodes == 0 || rec.Stats.LBPrunes == 0 || rec.Stats.MemoHits == 0 {
		t.Errorf("live search counters missing (want nodes, lb_prunes, memo_hits all > 0): %s", b)
	}
	if rec.Stats.RangeQueries < int64(rec.Tuples) {
		t.Errorf("range_queries %d < tuples %d — detection pass not counted", rec.Stats.RangeQueries, rec.Tuples)
	}
	if rec.Stats.DistEvals == 0 {
		t.Errorf("no distance evaluations counted: %s", b)
	}
	if rec.Timings.TotalS <= 0 || rec.Timings.TotalS < rec.Timings.SaveS {
		t.Errorf("phase timings inconsistent: %s", b)
	}
}

// TestCLIDatagenLatticeDisccli streams the jittered-lattice workload from
// datagen into disccli: 10³ cells × 48 = 48k lattice rows (η = 20 well under
// the ≈ 201 interior density) plus 8 isolated outliers. The run must see
// every row, flag at least the 8 noise rows, and write a repaired CSV with
// the input's row count.
func TestCLIDatagenLatticeDisccli(t *testing.T) {
	datagen := buildTool(t, "datagen")
	disccli := buildTool(t, "disccli")

	dir := t.TempDir()
	in := filepath.Join(dir, "lattice.csv")
	out := filepath.Join(dir, "fixed.csv")
	statsPath := filepath.Join(dir, "stats.json")

	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	gen := exec.Command(datagen, "-lattice", "-side", "10", "-per-cell", "48", "-noise", "8", "-seed", "5")
	gen.Stdout = f
	var genErr bytes.Buffer
	gen.Stderr = &genErr
	if err := gen.Run(); err != nil {
		t.Fatalf("datagen -lattice: %v\n%s", err, genErr.String())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	run := exec.Command(disccli, "-in", in, "-out", out, "-eps", "1", "-eta", "20",
		"-max-nodes", "2000", "-stats-json", statsPath)
	var runErr bytes.Buffer
	run.Stderr = &runErr
	if err := run.Run(); err != nil {
		t.Fatalf("disccli: %v\n%s", err, runErr.String())
	}

	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tuples   int `json:"tuples"`
		Outliers int `json:"outliers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing %s: %v", statsPath, err)
	}
	if doc.Tuples != 48008 {
		t.Fatalf("run saw %d tuples, want 48008", doc.Tuples)
	}
	if doc.Outliers < 8 {
		t.Fatalf("run found %d outliers, want at least the 8 isolated noise rows", doc.Outliers)
	}

	fixedRaw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := disc.ReadCSV(bytes.NewReader(fixedRaw))
	if err != nil {
		t.Fatal(err)
	}
	if rel.N() != doc.Tuples {
		t.Fatalf("repaired CSV has %d rows, want %d", rel.N(), doc.Tuples)
	}
}

func TestCLIDiscbenchListAndRun(t *testing.T) {
	discbench := buildTool(t, "discbench")

	out, err := exec.Command(discbench, "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "fig4", "fig10", "ablation"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("-list missing %s", id)
		}
	}

	var runOut, runErr bytes.Buffer
	bench := exec.Command(discbench, "-exp", "fig9", "-scale", "0.15", "-format", "csv", "-v", "-stats-json", "-")
	bench.Stdout = &runOut
	bench.Stderr = &runErr
	if err := bench.Run(); err != nil {
		t.Fatalf("fig9: %v\n%s", err, runErr.String())
	}
	if !strings.Contains(runOut.String(), "# Fig 9(a)") || !strings.Contains(runOut.String(), "dirty") {
		t.Errorf("fig9 csv output wrong:\n%s", runOut.String())
	}
	if !strings.Contains(runErr.String(), "DISC runs") {
		t.Errorf("-v did not print per-experiment search counters:\n%s", runErr.String())
	}
	// -stats-json - appends a JSON map keyed by experiment id to stderr.
	if i := strings.Index(runErr.String(), "{"); i < 0 {
		t.Errorf("-stats-json - wrote no JSON:\n%s", runErr.String())
	} else {
		var m map[string]struct {
			Runs  int64 `json:"runs"`
			Stats struct {
				Nodes int64 `json:"nodes"`
			} `json:"stats"`
		}
		if err := json.Unmarshal([]byte(runErr.String()[i:]), &m); err != nil {
			t.Errorf("-stats-json output does not parse: %v", err)
		} else if e := m["fig9"]; e.Runs == 0 || e.Stats.Nodes == 0 {
			t.Errorf("fig9 stats entry empty: %+v", m)
		}
	}

	// Unknown experiment fails cleanly.
	if err := exec.Command(discbench, "-exp", "nope").Run(); err == nil {
		t.Error("unknown experiment accepted")
	}
}
