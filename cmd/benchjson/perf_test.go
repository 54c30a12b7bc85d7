package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFoldPerf: wins follow each metric's direction, and they are counted
// out of every pair run. A tie wins for neither side, and so does a pair in
// which either side printed no result: that pair is left out of the
// quartiles, not out of the count, and its runs are listed with their
// status.
func TestFoldPerf(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [
		{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
		{"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25}]}`)
	run := func(correct bool, failed int, q, tp string) string {
		if q == "" {
			return `{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}` + "\n"
		}
		return fmt.Sprintf(`{"correct": %t, "attempted": 100, "failed": %d, "metrics": `+
			`{"query_p50_ms": {"value": %s, "unit": "ms"}, "throughput": {"value": %s, "unit": "1/s"}}}`+"\n", correct, failed, q, tp)
	}
	// Pair 1: the change is faster and has more throughput (a win on
	// both). Pair 2: a tie on the query, a loss on throughput. Pair 3: the
	// change printed nothing. Pair 4: the change is slower and its
	// throughput higher; its run failed one operation.
	parent := write("parent.jsonl", run(true, 0, "50", "100")+run(true, 0, "40", "110")+run(true, 0, "45", "100")+run(true, 0, "30", "90"))
	change := write("change.jsonl", run(true, 0, "20", "200")+run(true, 0, "40", "105")+run(false, 0, "", "")+run(true, 1, "35", "95"))

	var out bytes.Buffer
	if code := perfMain([]string{bench, parent, change}, &out); code != 1 {
		t.Errorf("exit status %d with an incorrect run, want 1", code)
	}
	sides := [2][]perfSummary{}
	for s, path := range []string{parent, change} {
		var err error
		if sides[s], err = readSummaries(path); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := foldPerf([]e2eMetric{{"query_p50_ms", "ms", "lower"}, {"throughput", "1/s", "higher"}}, sides[0], sides[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	q, tp := rows[0], rows[1]
	if q.Pairs != 4 || q.Measured != 3 || q.Wins != 1 {
		t.Errorf("query: %d of %d pairs won, %d measured, want 1 of 4, 3 measured (a tie and a crash win nothing)", q.Wins, q.Pairs, q.Measured)
	}
	if tp.Pairs != 4 || tp.Measured != 3 || tp.Wins != 2 {
		t.Errorf("throughput: %d of %d pairs won, %d measured, want 2 of 4, 3 measured (higher is better)", tp.Wins, tp.Pairs, tp.Measured)
	}
	// Parent queries 30, 40, 50; change 20, 35, 40.
	if q.Parent != [3]float64{35, 40, 45} || q.Change != [3]float64{27.5, 35, 37.5} || q.Ratio != 35.0/40 {
		t.Errorf("query quartiles %v and %v, ratio %v", q.Parent, q.Change, q.Ratio)
	}
	text := out.String()
	for _, want := range []string{
		"| query_p50_ms (ms, lower is better) | 40 [35, 45] | 35 [27.5, 37.5] | 0.875 | 1/4 (3 measured on both sides) |",
		"| throughput (1/s, higher is better) | 100 [95, 105] | 105 [100, 152.5] | 1.050 | 2/4 (3 measured on both sides) |",
		"pair 3: parent correct true, failed 0 of 100; change correct false, failed 0 of 0",
		"pair 4: parent correct true, failed 0 of 100; change correct true, failed 1 of 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if got := num(72719.6); got != "72720" {
		t.Errorf("num(72719.6) = %q, want a whole number", got)
	}
	if code := perfMain([]string{bench, parent, write("short.jsonl", run(true, 0, "1", "1"))}, &out); code != 1 {
		t.Errorf("exit status %d for unpaired runs, want 1", code)
	}

	fold := func(parentRuns, changeRuns string) perfRow {
		t.Helper()
		var sides [2][]perfSummary
		for s, body := range []string{parentRuns, changeRuns} {
			var err error
			if sides[s], err = readSummaries(write(fmt.Sprintf("side%d.jsonl", s), body)); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := foldPerf([]e2eMetric{{"query_p50_ms", "ms", "lower"}}, sides[0], sides[1])
		if err != nil || len(rows) != 1 {
			t.Fatalf("%d rows, error %v", len(rows), err)
		}
		return rows[0]
	}
	// Ten pairs: the change wins nine and its tenth run crashes. That is 9
	// of 10 won, not 9 of 9.
	crash := run(false, 0, "", "")
	tenP, tenC := strings.Repeat(run(true, 0, "50", "1"), 10), strings.Repeat(run(true, 0, "40", "1"), 9)+crash
	if r := fold(tenP, tenC); r.Wins != 9 || r.Pairs != 10 || r.Measured != 9 {
		t.Errorf("a crashed change run: %d of %d won, %d measured, want 9 of 10, 9 measured", r.Wins, r.Pairs, r.Measured)
	}
	// Only the parent printed nothing in pair 1: the pair is neither won
	// nor dropped.
	if r := fold(crash+run(true, 0, "50", "1"), run(true, 0, "40", "1")+run(true, 0, "40", "1")); r.Wins != 1 || r.Pairs != 2 || r.Measured != 1 {
		t.Errorf("a crashed parent run: %d of %d won, %d measured, want 1 of 2, 1 measured", r.Wins, r.Pairs, r.Measured)
	}
	// Every change run crashed: the metric keeps its row, with no values.
	r := fold(strings.Repeat(run(true, 0, "50", "1"), 2), crash+crash)
	out.Reset()
	writePerf(&out, []perfRow{r}, nil, nil)
	if want := "| query_p50_ms (ms, lower is better) | - | - | - | 0/2 (0 measured on both sides) |"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}
