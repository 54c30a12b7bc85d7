package exp

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// update rewrites the golden files from this run instead of comparing:
//
//	go test ./internal/exp -update
var update = flag.Bool("update", false, "rewrite internal/exp/testdata/<id>.golden from this run")

// masked stands in a golden file for a cell the comparison skips.
const masked = "~"

// checkGolden compares every cell of res with testdata/<id>.golden, except
// time cells and the cells named in skip (as "table title/row key"). A
// time cell is one whose column header, row key or table title names
// seconds: wall times differ on every run. The comparison names the table,
// row and column of each cell that moved.
//
// The golden values are those a linux/amd64 build computes (a 2-vCPU Xeon
// VM, where they were generated). The experiments are seeded and sum their
// floats in a fixed order, so one build gives the same cells on every run;
// another architecture may round a float op differently (arm64 fuses
// multiply-adds), and a last-digit mismatch there is not by itself a defect.
func checkGolden(t *testing.T, id string, res *Result, skip ...string) {
	t.Helper()
	got := goldenText(id, res, skip)
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./internal/exp -update)", err)
	}
	diffs := goldenDiff(parseGolden(want), parseGolden(got))
	for _, d := range diffs {
		t.Errorf("%s: %s", path, d)
	}
	if len(diffs) > 0 && runtime.GOARCH != "amd64" {
		t.Logf("the golden values are amd64's; this is %s", runtime.GOARCH)
	}
}

// namesSeconds reports whether a title, header or row key marks its cells
// as wall times.
func namesSeconds(s string) bool {
	s = strings.ToLower(s)
	return strings.Contains(s, "(s)") || strings.Contains(s, "seconds")
}

// goldenText renders res as a golden file: per table a "== title" line,
// then the header and the rows, tab-separated, with skipped cells masked.
func goldenText(id string, res *Result, skip []string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Cells of experiment %s at its Test*Shape configuration; %s marks a skipped cell.\n", id, masked)
	fmt.Fprintf(&b, "# Rewrite with: go test ./internal/exp -update\n")
	for _, tb := range res.Tables {
		fmt.Fprintf(&b, "== %s\n%s\n", tb.Title, strings.Join(tb.Header, "\t"))
		timeTable := namesSeconds(tb.Title)
		for _, row := range tb.Rows {
			cells := make([]string, len(row))
			for c, v := range row {
				switch {
				case c == 0:
				case timeTable || namesSeconds(row[0]) || c < len(tb.Header) && namesSeconds(tb.Header[c]):
					v = masked
				case slices.Contains(skip, tb.Title+"/"+row[0]):
					v = masked
				}
				cells[c] = v
			}
			fmt.Fprintln(&b, strings.Join(cells, "\t"))
		}
	}
	return b.Bytes()
}

// parseGolden reads a golden file back into tables.
func parseGolden(raw []byte) []Table {
	var tables []Table
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			tables = append(tables, Table{Title: strings.TrimPrefix(line, "== ")})
		case len(tables) == 0:
		case tables[len(tables)-1].Header == nil:
			tables[len(tables)-1].Header = strings.Split(line, "\t")
		default:
			tb := &tables[len(tables)-1]
			tb.Rows = append(tb.Rows, strings.Split(line, "\t"))
		}
	}
	return tables
}

// goldenDiff lists every difference between the golden tables and this
// run's, one cell per entry.
func goldenDiff(want, got []Table) []string {
	var diffs []string
	if len(got) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%d tables, golden %d", len(got), len(want)))
	}
	for i := range min(len(got), len(want)) {
		w, g := want[i], got[i]
		if g.Title != w.Title {
			diffs = append(diffs, fmt.Sprintf("table %d is %q, golden %q", i, g.Title, w.Title))
			continue
		}
		if strings.Join(g.Header, "\t") != strings.Join(w.Header, "\t") {
			diffs = append(diffs, fmt.Sprintf("table %q: header %q, golden %q", g.Title, g.Header, w.Header))
			continue
		}
		if len(g.Rows) != len(w.Rows) {
			diffs = append(diffs, fmt.Sprintf("table %q: %d rows, golden %d", g.Title, len(g.Rows), len(w.Rows)))
		}
		for r := range min(len(g.Rows), len(w.Rows)) {
			for c := range max(len(g.Rows[r]), len(w.Rows[r])) {
				gv, wv := at(g.Rows[r], c), at(w.Rows[r], c)
				if gv == wv {
					continue
				}
				col := fmt.Sprint(c)
				if c < len(w.Header) {
					col = w.Header[c]
				}
				diffs = append(diffs, fmt.Sprintf("table %q, row %d (%s), column %q: got %q, golden %q",
					g.Title, r, at(w.Rows[r], 0), col, gv, wv))
			}
		}
	}
	return diffs
}

// at returns row[c], or "" past its end.
func at(row []string, c int) string {
	if c < len(row) {
		return row[c]
	}
	return ""
}
