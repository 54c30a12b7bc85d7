package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// Table returns the result table with the given title, or nil.
func (r *Result) Table(title string) *Table {
	for i := range r.Tables {
		if r.Tables[i].Title == title {
			return &r.Tables[i]
		}
	}
	return nil
}

// Cell returns the cell at (row, named column), or "" when absent.
func (t *Table) Cell(row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			if row < len(t.Rows) && i < len(t.Rows[row]) {
				return t.Rows[row][i]
			}
		}
	}
	return ""
}

// FindRow returns the index of the first row whose first column equals
// key, or -1.
func (t *Table) FindRow(key string) int {
	for i, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return i
		}
	}
	return -1
}

// cfgFast is the shared quick configuration: smaller datasets, fixed seed.
func cfgFast() Config { return Config{Seed: 1, SizeScale: 0.4} }

func cell(t *testing.T, tb *Table, rowKey, col string) float64 {
	t.Helper()
	ri := tb.FindRow(rowKey)
	if ri < 0 {
		t.Fatalf("row %q not found in %q", rowKey, tb.Title)
	}
	s := tb.Cell(ri, col)
	if s == "-" || s == "" {
		t.Fatalf("cell (%s, %s) empty in %q", rowKey, col, tb.Title)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%s, %s) = %q not a number", rowKey, col, s)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "fig10", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"mixed", "table2", "table3", "table4", "table5"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, ok := Find("table2"); !ok {
		t.Error("Find(table2) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"Data", "X"}, Rows: [][]string{{"a", "1"}, {"b", "2"}}}
	if tb.FindRow("b") != 1 || tb.FindRow("z") != -1 {
		t.Error("FindRow broken")
	}
	if tb.Cell(0, "X") != "1" || tb.Cell(0, "nope") != "" {
		t.Error("Cell broken")
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), "Data") {
		t.Error("Fprint missing header")
	}
	res := Result{Tables: []Table{tb}}
	if res.Table("T") == nil || res.Table("U") != nil {
		t.Error("Result.Table broken")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table2")
	}
	e, _ := Find("table2")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.Table("F1-score (DBSCAN)")
	if f1 == nil {
		t.Fatal("missing F1 table")
	}
	if len(f1.Rows) != 8 {
		t.Fatalf("F1 table has %d rows", len(f1.Rows))
	}
	// Core claims: DISC improves on Raw for every dataset, and on average
	// beats every competitor.
	sums := map[string]float64{}
	for _, row := range f1.Rows {
		name := row[0]
		disc := cell(t, f1, name, "DISC")
		raw := cell(t, f1, name, "Raw")
		if disc < raw {
			t.Errorf("%s: DISC F1 %v < Raw %v", name, disc, raw)
		}
		for _, m := range methodNames {
			v := f1.Cell(f1.FindRow(name), m)
			if v == "-" || v == "" {
				continue
			}
			fv, _ := strconv.ParseFloat(v, 64)
			sums[m] += fv
		}
	}
	for _, m := range methodNames {
		if m == "DISC" {
			continue
		}
		if sums[m] > sums["DISC"] {
			t.Errorf("method %s mean F1 %v beats DISC %v", m, sums[m]/8, sums["DISC"]/8)
		}
	}
	// NMI and ARI tables exist and agree on the headline claim.
	for _, title := range []string{"NMI (DBSCAN)", "ARI (DBSCAN)"} {
		tb := res.Table(title)
		if tb == nil {
			t.Fatalf("missing %s", title)
		}
		for _, row := range tb.Rows {
			disc := cell(t, tb, row[0], "DISC")
			raw := cell(t, tb, row[0], "Raw")
			if disc < raw-1e-9 {
				t.Errorf("%s %s: DISC %v < Raw %v", title, row[0], disc, raw)
			}
		}
	}
	// Time table has positive DISC entries.
	tc := res.Table("Time cost (s) (DBSCAN)")
	if tc == nil {
		t.Fatal("missing time table")
	}
	if v := cell(t, tc, "Letter", "DISC"); v <= 0 {
		t.Errorf("Letter DISC time %v", v)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table3")
	}
	e, _ := Find("table3")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Table("F1-score by clustering algorithm (Raw vs DISC)")
	if tb == nil {
		t.Fatal("missing table")
	}
	// DBSCAN strictly improves everywhere; on average across all six
	// algorithms saving outliers helps.
	var rawSum, discSum float64
	for _, row := range tb.Rows {
		name := row[0]
		if cell(t, tb, name, "DBSCAN/DISC") < cell(t, tb, name, "DBSCAN/Raw")-1e-9 {
			t.Errorf("%s: DBSCAN with DISC regressed", name)
		}
		for _, algo := range clusterAlgos {
			rawSum += cell(t, tb, name, algo+"/Raw")
			discSum += cell(t, tb, name, algo+"/DISC")
		}
	}
	if discSum <= rawSum {
		t.Errorf("mean F1 with DISC %v not above raw %v", discSum, rawSum)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table4")
	}
	e, _ := Find("table4")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("table4 rows = %d", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		get := func(col string) float64 {
			s := tb.Cell(i, col)
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("row %d col %s = %q", i, col, s)
			}
			return v
		}
		disc, db, opt := get("F1 DISC"), get("F1 DB"), get("F1 Opt")
		// The Table 4 claims: Poisson determination is at least on par
		// with the Normal-based DB at every sampling rate (clearly ahead
		// at full rate, see below) and optimal dominates everything.
		if disc < db-0.05 {
			t.Errorf("row %v: DISC F1 %v below DB %v", row[0:2], disc, db)
		}
		if opt < disc-1e-9 || opt < db-1e-9 {
			t.Errorf("row %v: optimal F1 %v below DISC %v / DB %v", row[0:2], opt, disc, db)
		}
		if disc < opt-0.25 {
			t.Errorf("row %v: DISC F1 %v far from optimal %v", row[0:2], disc, opt)
		}
		if strings.HasSuffix(tb.Cell(i, "Rate"), "100%") && disc < db {
			t.Errorf("row %v: full-rate DISC %v below DB %v", row[0:2], disc, db)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full table5")
	}
	e, _ := Find("table5")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("table5 rows = %d", len(tb.Rows))
	}
	var rawSum, discSum float64
	for _, row := range tb.Rows {
		rawSum += cell(t, &tb, row[0], "Raw")
		discSum += cell(t, &tb, row[0], "DISC")
	}
	if discSum < rawSum {
		t.Errorf("classification: DISC mean %v below raw %v", discSum/7, rawSum/7)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig4")
	}
	e, _ := Find("fig4")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Table("Fig 4(a): sweep of distance threshold ε (η=4)")
	if a == nil {
		t.Fatal("missing fig4a")
	}
	// Inverted-U: the reference ε=3 beats both extremes for DISC.
	peak := cell(t, a, "ε=3", "DISC F1")
	lo := cell(t, a, "ε=1", "DISC F1")
	hi := cell(t, a, "ε=8", "DISC F1")
	if !(peak >= lo && peak >= hi) {
		t.Errorf("fig4a not peaked: lo=%v peak=%v hi=%v", lo, peak, hi)
	}
	if peak <= cell(t, a, "ε=3", "Raw F1") {
		t.Error("fig4a: DISC at the peak does not beat raw")
	}
	if peak < cell(t, a, "ε=3", "DORC F1")-1e-9 {
		t.Error("fig4a: DORC beats DISC at the reference setting")
	}
	b := res.Table("Fig 4(b): sweep of neighbor threshold η (ε=3)")
	if b == nil {
		t.Fatal("missing fig4b")
	}
	if cell(t, b, "η=4", "DISC F1") < cell(t, b, "η=32", "DISC F1")-1e-9 {
		t.Error("fig4b: over-large η should not beat the reference")
	}
}

func TestFig5Shape(t *testing.T) {
	e, _ := Find("fig5")
	res, err := e.Run(Config{Seed: 1, SizeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("fig5 tables = %d", len(res.Tables))
	}
	for _, tb := range res.Tables {
		// λ grows with ε within each sampling rate.
		var prev float64 = -1
		for i, row := range tb.Rows {
			if row[1] != "100%" {
				continue
			}
			lam, _ := strconv.ParseFloat(tb.Cell(i, "λ (mean)"), 64)
			if lam < prev-1e-9 {
				t.Errorf("%s: λ not nondecreasing in ε (%v after %v)", tb.Title, lam, prev)
			}
			prev = lam
		}
		// Sampled λ stays within 40% of the full λ for the larger radii.
		for i := 0; i+1 < len(tb.Rows); i += 2 {
			full, _ := strconv.ParseFloat(tb.Cell(i, "λ (mean)"), 64)
			sampled, _ := strconv.ParseFloat(tb.Cell(i+1, "λ (mean)"), 64)
			if full < 5 {
				continue // tiny-λ rows are noise-dominated
			}
			if sampled < full*0.6 || sampled > full*1.4 {
				t.Errorf("%s: sampled λ %v far from full %v", tb.Title, sampled, full)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig6")
	}
	e, _ := Find("fig6")
	res, err := e.Run(Config{Seed: 1, SizeScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.Tables[0]
	tc := res.Tables[1]
	for i := range f1.Rows {
		key := f1.Rows[i][0]
		if cell(t, &f1, key, "DISC") < cell(t, &f1, key, "Raw")-1e-9 {
			t.Errorf("fig6 n=%s: DISC below raw", key)
		}
	}
	// DISC time grows with n but stays finite on the largest point, where
	// DORC/Exact may be capped out.
	last := len(tc.Rows) - 1
	if v := cell(t, &tc, tc.Rows[last][0], "DISC"); v <= 0 {
		t.Error("fig6: missing DISC time at max n")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig7")
	}
	e, _ := Find("fig7")
	res, err := e.Run(Config{Seed: 1, SizeScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.Tables[0]
	tc := res.Tables[1]
	// DISC runs at every m including 57; Exact is capped beyond small m.
	if v := cell(t, &f1, "57", "DISC"); v <= 0 {
		t.Error("fig7: DISC missing at m=57")
	}
	if got := tc.Cell(tc.FindRow("57"), "Exact"); got != "-" {
		t.Errorf("fig7: Exact should be capped at m=57, got %q", got)
	}
	// Where Exact runs it is at least as accurate as DISC (small slack for
	// domain thinning).
	if ex, di := cell(t, &f1, "5", "Exact"), cell(t, &f1, "5", "DISC"); ex < di-0.05 {
		t.Errorf("fig7 m=5: exact %v well below DISC %v", ex, di)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig8")
	}
	e, _ := Find("fig8")
	res, err := e.Run(Config{Seed: 1, SizeScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Table("Fig 8(a): record-matching F1 vs ε (η=3)")
	if a == nil {
		t.Fatal("missing fig8a")
	}
	// At the reference ε the saving improves matching over raw, and DORC
	// stays below DISC.
	disc := cell(t, a, "ε=4.6", "DISC")
	raw := cell(t, a, "ε=4.6", "Raw")
	dorc := cell(t, a, "ε=4.6", "DORC")
	if disc <= raw {
		t.Errorf("fig8: DISC %v does not beat raw %v", disc, raw)
	}
	if dorc >= disc {
		t.Errorf("fig8: DORC %v above DISC %v", dorc, disc)
	}
}

func TestFig9Shape(t *testing.T) {
	e, _ := Find("fig9")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Table("Fig 9(a): dirty / natural outlier rates (GPS)")
	if a == nil {
		t.Fatal("missing fig9a")
	}
	dr := cell(t, a, "dirty", "Detected rate")
	nr := cell(t, a, "natural", "Detected rate")
	if dr < 0.05 || nr < 0.05 {
		t.Errorf("fig9a: detected rates too low: dirty=%v natural=%v", dr, nr)
	}
	b := res.Tables[1]
	disc := cell(t, &b, "DISC", "Jaccard")
	sse := cell(t, &b, "SSE", "Jaccard")
	dorc := cell(t, &b, "DORC", "Jaccard")
	if disc < sse {
		t.Errorf("fig9b: DISC Jaccard %v below SSE %v", disc, sse)
	}
	if disc < dorc {
		t.Errorf("fig9b: DISC Jaccard %v below DORC %v", disc, dorc)
	}
	// GPS errors touch one attribute; DISC adjusts about that many.
	if attrs := cell(t, &b, "DISC", "AvgAdjustedAttrs"); attrs > 1.6 {
		t.Errorf("fig9b: DISC adjusts %v attrs on average, want ≈ 1", attrs)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig10")
	}
	e, _ := Find("fig10")
	res, err := e.Run(cfgFast())
	if err != nil {
		t.Fatal(err)
	}
	jac := res.Table("Fig 10(a): Jaccard vs η (ε=3)")
	att := res.Table("Fig 10(c): #modified attributes vs η (ε=3)")
	if jac == nil || att == nil {
		t.Fatal("missing fig10 tables")
	}
	row := jac.FindRow("η=4")
	get := func(tb *Table, col string) float64 {
		v, _ := strconv.ParseFloat(tb.Cell(row, col), 64)
		return v
	}
	if get(jac, "DISC") < get(jac, "DORC") || get(jac, "DISC") < get(jac, "HoloClean") {
		t.Error("fig10a: DISC Jaccard not above the cleaners")
	}
	if get(jac, "DISC") < get(jac, "SSE")-0.1 {
		t.Error("fig10a: DISC Jaccard well below SSE")
	}
	// Letter-style data: DISC adjusts ≈ 2 of 10 attributes; DORC all 10.
	if v := get(att, "DISC"); v > 3 {
		t.Errorf("fig10c: DISC adjusts %v attrs, want ≈ 2", v)
	}
	if v := get(att, "DORC"); v < 9 {
		t.Errorf("fig10c: DORC adjusts %v attrs, want ≈ 10", v)
	}
}

func TestTableExportFormats(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"Data", "X"}, Rows: [][]string{{"a", "1"}}}
	var buf bytes.Buffer
	if err := tb.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvOut := buf.String()
	if !strings.Contains(csvOut, "# T") || !strings.Contains(csvOut, "Data,X") || !strings.Contains(csvOut, "a,1") {
		t.Errorf("csv output wrong:\n%s", csvOut)
	}
	buf.Reset()
	tb.FprintMarkdown(&buf)
	md := buf.String()
	if !strings.Contains(md, "### T") || !strings.Contains(md, "| Data | X |") || !strings.Contains(md, "| a | 1 |") {
		t.Errorf("markdown output wrong:\n%s", md)
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation")
	}
	e, _ := Find("ablation")
	cfg := Config{Seed: 1, SizeScale: 0.3}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	algo := res.Tables[0]
	get := func(row, col string) float64 {
		return cell(t, &algo, row, col)
	}
	// Memoization never expands more nodes than its ablation.
	if get("kappa=2 (default)", "Nodes") > get("kappa=2, no memo", "Nodes") {
		t.Error("memoization expanded more nodes than no-memo")
	}
	// The κ budget drives the node count: κ=1 < κ=2 < κ=3 < unrestricted.
	n1, n2, n3 := get("kappa=1", "Nodes"), get("kappa=2 (default)", "Nodes"), get("kappa=3", "Nodes")
	nu := get("unrestricted", "Nodes")
	if !(n1 < n2 && n2 < n3 && n3 < nu) {
		t.Errorf("node counts not ordered by κ: %v %v %v %v", n1, n2, n3, nu)
	}
	// Parallel and sequential saving agree on the outcome.
	if get("kappa=2 (default)", "Saved") != get("sequential (workers=1)", "Saved") {
		t.Error("parallel changed the saved count")
	}
	// Every index query time is positive. Which index wins is not read
	// off these times: each column is a few milliseconds, so one
	// scheduler pause reorders them.
	idx := res.Tables[1]
	for _, col := range []string{"Count(s)", "KNN(s)"} {
		for _, name := range []string{"brute", "grid", "vptree"} {
			if v := cell(t, &idx, name, col); v <= 0 {
				t.Errorf("%s %s %v", name, col, v)
			}
		}
	}
	// Instead, over the ablation's own Flight relation, grid and VP-tree
	// must each evaluate fewer tuple pairs than the brute scan, on both
	// the capped ε-count and KNN(η).
	fds, err := data.Table1("Flight", cfg.scale(0.02), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	evals := func(idx neighbors.Index) (count, knn int64) {
		var c neighbors.Counters
		view := neighbors.Counting(idx, &c)
		for i, tp := range fds.Rel.Tuples {
			view.CountWithin(tp, fds.Eps, i, fds.Eta)
		}
		count = c.DistEvals
		for i, tp := range fds.Rel.Tuples {
			view.KNN(tp, fds.Eta, i)
		}
		return count, c.DistEvals - count
	}
	bruteCount, bruteKNN := evals(neighbors.NewBrute(fds.Rel))
	for name, idx := range map[string]neighbors.Index{
		"grid":   neighbors.NewGrid(fds.Rel, fds.Eps),
		"vptree": neighbors.NewVPTree(fds.Rel, 1),
	} {
		if count, knn := evals(idx); count >= bruteCount || knn >= bruteKNN {
			t.Errorf("%s evaluated %d pairs on the ε-count and %d on KNN(η), brute %d and %d",
				name, count, knn, bruteCount, bruteKNN)
		}
	}
}

func TestMixedShape(t *testing.T) {
	e, ok := Find("mixed")
	if !ok {
		t.Fatal("mixed experiment not registered")
	}
	res, err := e.Run(Config{Seed: 1, SizeScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 3 {
		t.Fatalf("mixed produced %d tables, want 3", len(res.Tables))
	}
	pipe := res.Tables[0]
	if cell(t, &pipe, "outliers detected", "Value") <= 0 {
		t.Error("dirty fixture detected no outliers")
	}
	if cell(t, &pipe, "saved", "Value") <= 0 {
		t.Error("no outlier was saved")
	}
	// The kernel counters must show the caches engaging: a text-heavy
	// pipeline with far fewer distinct values than pairs should answer
	// most text distances from cache.
	kern := res.Tables[1]
	hits := cell(t, &kern, "text_cache_hits", "Value")
	misses := cell(t, &kern, "text_cache_misses", "Value")
	if hits <= 0 {
		t.Error("text cache recorded no hits")
	}
	if hits < misses {
		t.Errorf("text cache hits %v < misses %v: cache not engaging", hits, misses)
	}
	if cell(t, &kern, "dist_evals", "Value") <= 0 {
		t.Error("no distance evaluations counted")
	}
}
