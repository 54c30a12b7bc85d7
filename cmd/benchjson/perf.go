package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// This file is the -perf mode: it folds alternating parent/change runs of
// the repository benchmark (perfbench, one JSON summary line per run) into
// one row per end-to-end metric of BENCHMARK.json:
//
//	benchjson -perf BENCHMARK.json PARENT.jsonl CHANGE.jsonl
//
// Line i of each file is pair i. `make perfbench-ab` writes both files.

// perfSummary is perfbench's last output line.
type perfSummary struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// e2eMetric is one end_to_end entry of BENCHMARK.json.
type e2eMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perfRow is one metric folded over the pairs: each side's quartiles and
// median and the ratio of the medians, over the Measured pairs that have
// the metric on both sides, and the pairs the change won by the metric's
// direction out of every pair run. A tie wins for neither side, and so
// does a pair in which either side printed no result: a crashed change run
// is a pair the change did not win.
type perfRow struct {
	Metric         e2eMetric
	Parent, Change [3]float64 // q1, median, q3
	Ratio          float64
	Wins, Pairs    int
	Measured       int
}

// foldPerf folds the runs, pair by pair. A run without a metric (one that
// failed before printing a result) leaves its pair out of that metric's
// quartiles but not out of the pairs it is won over.
func foldPerf(metrics []e2eMetric, parent, change []perfSummary) ([]perfRow, error) {
	if len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent runs but %d change runs", len(parent), len(change))
	}
	var rows []perfRow
	for _, m := range metrics {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
		}
		row := perfRow{Metric: m, Pairs: len(parent)}
		var ps, cs []float64
		for i := range parent {
			p, okP := parent[i].Metrics[m.Name]
			c, okC := change[i].Metrics[m.Name]
			if !okP || !okC {
				continue
			}
			ps, cs = append(ps, p.Value), append(cs, c.Value)
			row.Measured++
			if m.Better == "lower" && c.Value < p.Value || m.Better == "higher" && c.Value > p.Value {
				row.Wins++
			}
		}
		if row.Measured == 0 {
			rows = append(rows, row)
			continue
		}
		row.Parent = [3]float64{quantile(ps, 0.25), median(ps), quantile(ps, 0.75)}
		row.Change = [3]float64{quantile(cs, 0.25), median(cs), quantile(cs, 0.75)}
		if row.Parent[1] != 0 {
			row.Ratio = row.Change[1] / row.Parent[1]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// perfMain runs -perf over BENCHMARK.json and the two run files, and
// returns the exit status: 0 when every run was correct, 1 when one was not
// or an input is unreadable, 2 on usage.
func perfMain(args []string, w io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -perf BENCHMARK.json PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var bench struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	raw, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", args[0], err)
		return 1
	}
	var sides [2][]perfSummary
	for s, path := range args[1:] {
		if sides[s], err = readSummaries(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
	}
	rows, err := foldPerf(bench.EndToEnd, sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	writePerf(w, rows, sides[0], sides[1])
	for _, side := range sides {
		for _, s := range side {
			if !s.Correct {
				return 1
			}
		}
	}
	return 0
}

// readSummaries reads one perfbench summary per line.
func readSummaries(path string) ([]perfSummary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []perfSummary
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		var s perfSummary
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// writePerf prints the rows as a markdown table, then every run's status.
func writePerf(w io.Writer, rows []perfRow, parent, change []perfSummary) {
	fmt.Fprintln(w, "| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change better |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		pq, cq, ratio := "-", "-", "-"
		if r.Measured > 0 {
			pq, cq, ratio = quartiles(r.Parent), quartiles(r.Change), fmt.Sprintf("%.3f", r.Ratio)
		}
		won := fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
		if r.Measured < r.Pairs {
			won += fmt.Sprintf(" (%d measured on both sides)", r.Measured)
		}
		fmt.Fprintf(w, "| %s (%s, %s is better) | %s | %s | %s | %s |\n", r.Metric.Name, r.Metric.Unit, r.Metric.Better,
			pq, cq, ratio, won)
	}
	fmt.Fprintln(w)
	for i := range parent {
		fmt.Fprintf(w, "pair %d: parent %s; change %s\n", i+1, runStatus(parent[i]), runStatus(change[i]))
	}
}

func quartiles(q [3]float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(q[1]), num(q[0]), num(q[2]))
}

// num prints v to four significant digits, and from 10,000 up as a whole
// number rather than in exponent form.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func runStatus(s perfSummary) string {
	return fmt.Sprintf("correct %t, failed %d of %d", s.Correct, s.Failed, s.Attempted)
}
