package disc_test

// One benchmark per table and figure of the paper's evaluation (run the
// corresponding experiment end-to-end at a reduced scale and report
// ns/op), plus ablation benches for the design choices DESIGN.md calls
// out: lower-bound pruning, X-set memoization, the κ restriction, the
// neighbor-index choice, and parallel saving.
//
//	go test -bench 'BenchmarkTable|BenchmarkFig' -benchmem
//	go test -bench BenchmarkAblation -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	disc "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exp"
	"repro/internal/neighbors"
	"repro/internal/serve"
)

// benchScale keeps a full experiment pass benchable; the per-experiment
// defaults already downscale the big datasets further.
const benchScale = 0.25

func benchExperiment(b *testing.B, id string) {
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Config{Seed: 1, SizeScale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }

// ablationWorkload builds a mid-size Letter-style dataset once per bench.
func ablationWorkload(b *testing.B) (*disc.Dataset, disc.Constraints) {
	b.Helper()
	ds, err := disc.Table1("Letter", 0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds, disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
}

func benchSaveAll(b *testing.B, ds *disc.Dataset, cons disc.Constraints, opts disc.Options) {
	b.Helper()
	b.ReportAllocs()
	saved := 0
	for i := 0; i < b.N; i++ {
		res, err := disc.SaveContext(context.Background(), ds.Rel, cons, opts)
		if err != nil {
			b.Fatal(err)
		}
		saved = res.Saved
	}
	b.ReportMetric(float64(saved), "saved")
}

// BenchmarkAblationPruning compares Algorithm 1 with and without the
// Proposition 3 lower-bound pruning.
func BenchmarkAblationPruning(b *testing.B) {
	ds, cons := ablationWorkload(b)
	b.Run("pruning=on", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2})
	})
	b.Run("pruning=off", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2, DisablePruning: true})
	})
}

// BenchmarkAblationMemo compares the memoized X-set deduplication against
// re-processing duplicate sets.
func BenchmarkAblationMemo(b *testing.B) {
	ds, cons := ablationWorkload(b)
	b.Run("memo=on", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2})
	})
	b.Run("memo=off", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2, DisableMemo: true})
	})
}

// BenchmarkAblationKappa sweeps the adjusted-attribute budget κ: the
// O(m^{κ+1}·n) cost of §3.3 versus the unrestricted recursion.
func BenchmarkAblationKappa(b *testing.B) {
	ds, cons := ablationWorkload(b)
	for _, kappa := range []int{1, 2, 3, 0} {
		name := "kappa=unrestricted"
		if kappa > 0 {
			name = "kappa=" + string(rune('0'+kappa))
		}
		b.Run(name, func(b *testing.B) {
			benchSaveAll(b, ds, cons, disc.Options{Kappa: kappa})
		})
	}
}

// BenchmarkAblationIndex compares the throughput of detection's query, the
// ε-count capped at η, across the three neighbor indexes on the Flight
// geometry (m=3 numeric).
func BenchmarkAblationIndex(b *testing.B) {
	ds, err := disc.Table1("Flight", 0.025, 1)
	if err != nil {
		b.Fatal(err)
	}
	builders := map[string]func() neighbors.Index{
		"brute":  func() neighbors.Index { return neighbors.NewBrute(ds.Rel) },
		"grid":   func() neighbors.Index { return neighbors.NewGrid(ds.Rel, ds.Eps) },
		"vptree": func() neighbors.Index { return neighbors.NewVPTree(ds.Rel, 1) },
	}
	for name, build := range builders {
		b.Run(name, func(b *testing.B) {
			idx := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % ds.N()
				idx.CountWithin(ds.Rel.Tuples[q], ds.Eps, q, ds.Eta)
			}
		})
	}
}

// BenchmarkAblationParallel compares sequential and parallel outlier
// saving.
func BenchmarkAblationParallel(b *testing.B) {
	ds, cons := ablationWorkload(b)
	b.Run("workers=1", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2, Workers: 1})
	})
	b.Run("workers=all", func(b *testing.B) {
		benchSaveAll(b, ds, cons, disc.Options{Kappa: 2})
	})
}

// BenchmarkSaveSingle measures one Algorithm 1 invocation against a fixed
// inlier set (the unit the O(2^m·n) analysis of §3.3 talks about).
func BenchmarkSaveSingle(b *testing.B) {
	ds, cons := ablationWorkload(b)
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		b.Skip("no outliers")
	}
	saver, err := disc.NewSaverContext(context.Background(), ds.Rel.Subset(det.Inliers), cons, disc.Options{Kappa: 2})
	if err != nil {
		b.Fatal(err)
	}
	to := ds.Rel.Tuples[det.Outliers[0]]
	b.ReportAllocs()
	b.ResetTimer()
	var st disc.SearchStats
	for i := 0; i < b.N; i++ {
		st = saver.SaveOne(context.Background(), to).Stats
	}
	// Search effort per save, tracked in BENCH_*.json alongside ns/op:
	// nodes is the unit the O(m^{κ+1}·n) analysis counts (masks whose
	// candidate list was processed), prunes the visits the Proposition 3
	// bounds cut before expansion — on this outlier the κ=2 start masks are
	// pruned outright, so nodes stays 0 and the prune counters carry the
	// effort signal.
	b.ReportMetric(float64(st.Nodes), "nodes")
	b.ReportMetric(float64(st.LBPrunes+st.CandPrunes), "prunes")
	b.ReportMetric(float64(st.MemoHits), "memo_hits")
}

// BenchmarkSaveSingleSaved measures one Algorithm 1 invocation on the
// BenchmarkSaveSingle fixture that runs the search proper: its outlier is
// the first, in index order, whose κ = 2 save expands nodes and returns a
// saved (not natural) answer, so the group queries, the screen, the start
// masks, node expansion and the Proposition 5 witness tests are all timed.
func BenchmarkSaveSingleSaved(b *testing.B) {
	ds, cons := ablationWorkload(b)
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		b.Fatal(err)
	}
	saver, err := disc.NewSaverContext(context.Background(), ds.Rel.Subset(det.Inliers), cons, disc.Options{Kappa: 2})
	if err != nil {
		b.Fatal(err)
	}
	var to disc.Tuple
	for _, o := range det.Outliers {
		if adj := saver.SaveOne(context.Background(), ds.Rel.Tuples[o]); adj.Saved() && adj.Nodes > 0 {
			to = ds.Rel.Tuples[o]
			break
		}
	}
	if to == nil {
		b.Skip("no outlier is saved")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st disc.SearchStats
	for i := 0; i < b.N; i++ {
		st = saver.SaveOne(context.Background(), to).Stats
	}
	b.ReportMetric(float64(st.Nodes), "nodes")
	b.ReportMetric(float64(st.UBWitnesses), "witnesses")
	b.ReportMetric(float64(st.Candidates), "candidates")
}

// BenchmarkExactSingle measures the §2.3 enumeration baseline on the same
// workload (thinned domains).
func BenchmarkExactSingle(b *testing.B) {
	ds, cons := ablationWorkload(b)
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		b.Skip("no outliers")
	}
	ex, err := disc.NewExactSaver(ds.Rel.Subset(det.Inliers), cons, 6)
	if err != nil {
		b.Fatal(err)
	}
	ex.Kappa = 2
	to := ds.Rel.Tuples[det.Outliers[0]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.SaveOne(context.Background(), to)
	}
}

// BenchmarkClusterDBSCAN measures the downstream density clustering pass
// that consumes repaired relations.
func BenchmarkClusterDBSCAN(b *testing.B) {
	ds, cons := ablationWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disc.DBSCAN(ds.Rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	}
}

// mixedWorkload builds the mixed numeric+text fixture once per bench: the
// distance-layer worst case (per-value kind branches, O(len²) string
// metrics, repeated identical string pairs) that the compiled kernels
// target. Kept distinct from ablationWorkload (all-numeric Letter) so the
// BENCH_*.json trajectory separates columnar-layout wins from
// text-cache wins.
func mixedWorkload(b *testing.B) (*disc.Dataset, disc.Constraints) {
	b.Helper()
	ds, err := disc.GenMixed(disc.MixedSpec{
		Name: "MixedBench", N: 800, Entities: 650, DirtyFrac: 0.05,
		Eps: 2.0, Eta: 3, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds, disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
}

// BenchmarkDetectMixed measures violation detection over the mixed
// numeric+text fixture — the headline number for the compiled distance
// kernels (BENCH_5.json before/after).
func BenchmarkDetectMixed(b *testing.B) {
	ds, cons := mixedWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectContext(context.Background(), ds.Rel, cons, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveSingleMixed measures one Algorithm 1 invocation on the
// mixed fixture, where the candidate table and bound evaluations pay for
// text distances.
func BenchmarkSaveSingleMixed(b *testing.B) {
	ds, cons := mixedWorkload(b)
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		b.Skip("no outliers")
	}
	saver, err := disc.NewSaverContext(context.Background(), ds.Rel.Subset(det.Inliers), cons, disc.Options{Kappa: 2})
	if err != nil {
		b.Fatal(err)
	}
	to := ds.Rel.Tuples[det.Outliers[0]]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saver.SaveOne(context.Background(), to)
	}
}

// BenchmarkClusterDBSCANMixed measures density clustering over the mixed
// fixture (text distances inside every ε-range expansion).
func BenchmarkClusterDBSCANMixed(b *testing.B) {
	ds, cons := mixedWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disc.DBSCAN(ds.Rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	}
}

// BenchmarkClusterKMeans measures the centroid clustering pass at the
// dataset's ground-truth K.
func BenchmarkClusterKMeans(b *testing.B) {
	ds, _ := ablationWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := disc.KMeans(ds.Rel, disc.KMeansConfig{K: ds.Classes, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetect measures the violation-detection pass.
func BenchmarkDetect(b *testing.B) {
	ds, cons := ablationWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectContext(context.Background(), ds.Rel, cons, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// latticeDetectCons: unit ε on a unit-cell lattice; η = 20 sits far below
// the interior density (≈ 4.19 · PerCell), so an inlier's capped count
// stops long before its ball is exhausted.
var latticeDetectCons = disc.Constraints{Eps: 1, Eta: 20}

// latticeDetectSizes are the jittered-lattice workloads: 10³ cells × 64 =
// 64k and 24³ cells × 72 = 995,328 (the n ≈ 1M leg). Noise rows are
// isolated outliers so the split is never degenerate. rel and idx are
// built on first use and shared by every repeat of the benchmark.
var latticeDetectSizes = []*struct {
	size string
	spec data.LatticeSpec
	rel  *disc.Relation
	idx  neighbors.Index
}{
	{size: "n=64k", spec: data.LatticeSpec{Side: 10, PerCell: 64, Dims: 3, Noise: 64, Seed: 41}},
	{size: "n=1m", spec: data.LatticeSpec{Side: 24, PerCell: 72, Dims: 3, Noise: 64, Seed: 43}},
}

// BenchmarkDetectExactLattice measures η-capped exact detection on the
// jittered lattice (uniform density, closed-form neighbor geometry) at
// n = 64k and n ≈ 1M, the perf ledger's detect-ns/tuple leg. Every
// iteration runs against one prebuilt index, so the number is pure
// classification cost.
func BenchmarkDetectExactLattice(b *testing.B) {
	for _, ws := range latticeDetectSizes {
		b.Run(ws.size, func(b *testing.B) {
			if ws.rel == nil {
				rel, err := data.GenLattice(ws.spec)
				if err != nil {
					b.Fatal(err)
				}
				ws.rel, ws.idx = rel, neighbors.Build(rel, latticeDetectCons.Eps)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var det *core.Detection
			var err error
			for i := 0; i < b.N; i++ {
				if det, err = core.DetectContext(ctx, ws.rel, latticeDetectCons, ws.idx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(det.Outliers) == 0 || len(det.Inliers) == 0 {
				b.Fatalf("degenerate split: %d inliers, %d outliers", len(det.Inliers), len(det.Outliers))
			}
		})
	}
}

// serveBenchCSV marshals the ablation dataset once for the serving benches.
func serveBenchCSV(b *testing.B) (string, disc.Constraints) {
	b.Helper()
	ds, cons := ablationWorkload(b)
	var buf bytes.Buffer
	if err := disc.WriteCSV(&buf, ds.Rel); err != nil {
		b.Fatal(err)
	}
	return buf.String(), cons
}

func serveUpload(b *testing.B, h http.Handler, body []byte) string {
	b.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/datasets", bytes.NewReader(body)))
	if w.Code != http.StatusCreated {
		b.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	return info.ID
}

// BenchmarkServeSave measures the end-to-end HTTP handler path of one save
// against a warm session: JSON decode, admission, dispatch through the
// batcher, Algorithm 1 against the cached indexes, JSON encode. Against
// BenchmarkSaveSingle the delta is the serving overhead; against
// BenchmarkServeSaveCold the delta is what session caching amortizes away.
func BenchmarkServeSave(b *testing.B) {
	csv, cons := serveBenchCSV(b)
	s := serve.New(serve.Config{BatchWindow: -1, Workers: 1, Logger: nil})
	h := s.Handler()
	create, err := json.Marshal(map[string]any{
		"name": "bench", "csv": csv, "eps": cons.Eps, "eta": cons.Eta, "kappa": 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	id := serveUpload(b, h, create)
	ds, _ := ablationWorkload(b)
	tuple := make([]any, ds.Rel.Schema.M())
	for i := range tuple {
		tuple[i] = 40.0 // far outside the Letter clusters: a real save
	}
	body, err := json.Marshal(map[string]any{"tuple": tuple})
	if err != nil {
		b.Fatal(err)
	}
	path := "/v1/datasets/" + id + "/save"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("save: status %d, body %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServeSaveCold pays the whole session build (index construction,
// detection, η-radius precompute) for every save — the one-shot CLI cost
// profile, measured on the same workload as BenchmarkServeSave.
func BenchmarkServeSaveCold(b *testing.B) {
	csv, cons := serveBenchCSV(b)
	s := serve.New(serve.Config{BatchWindow: -1, Workers: 1, Logger: nil})
	h := s.Handler()
	create, err := json.Marshal(map[string]any{
		"name": "bench", "csv": csv, "eps": cons.Eps, "eta": cons.Eta, "kappa": 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, _ := ablationWorkload(b)
	tuple := make([]any, ds.Rel.Schema.M())
	for i := range tuple {
		tuple[i] = 40.0
	}
	body, err := json.Marshal(map[string]any{"tuple": tuple})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := serveUpload(b, h, create)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/datasets/"+id+"/save", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("save: status %d, body %s", w.Code, w.Body.String())
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest("DELETE", "/v1/datasets/"+id, nil))
	}
}

// BenchmarkDetermineParams measures the Poisson parameter determination at
// the sampling rate Table 4 recommends.
func BenchmarkDetermineParams(b *testing.B) {
	ds, _ := ablationWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := disc.DetermineParamsContext(context.Background(), ds.Rel, disc.ParamOptions{SampleRate: 0.1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
