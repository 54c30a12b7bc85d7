package disc_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	disc "repro"
)

// noisyBlobs builds two clusters with one dirty outlier (x corrupted) and
// one natural outlier through the public API.
func noisyBlobs() *disc.Relation {
	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			rel.Append(disc.Tuple{disc.Num(float64(i) * 0.5), disc.Num(float64(j) * 0.5)})
			rel.Append(disc.Tuple{disc.Num(20 + float64(i)*0.5), disc.Num(float64(j) * 0.5)})
		}
	}
	rel.Append(disc.Tuple{disc.Num(10), disc.Num(1.2)}) // dirty: x shifted
	rel.Append(disc.Tuple{disc.Num(10), disc.Num(-50)}) // natural: both off
	return rel
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rel := noisyBlobs()
	cons := disc.Constraints{Eps: 1.5, Eta: 3}

	det, err := disc.DetectContext(context.Background(), rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) != 2 {
		t.Fatalf("detected %d outliers, want 2", len(det.Outliers))
	}

	res, err := disc.SaveContext(context.Background(), rel, cons, disc.Options{Kappa: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saved != 1 || res.Natural != 1 {
		t.Fatalf("saved=%d natural=%d, want 1/1", res.Saved, res.Natural)
	}
	// The dirty tuple kept its correct y and had x repaired.
	var saved *disc.Adjustment
	for i := range res.Adjustments {
		if res.Adjustments[i].Saved() {
			saved = &res.Adjustments[i]
		}
	}
	if saved == nil {
		t.Fatal("no saved adjustment")
	}
	if saved.Tuple[1].Num != 1.2 {
		t.Errorf("y adjusted to %v; it was correct", saved.Tuple[1].Num)
	}

	// Clustering the repaired relation recovers the two blobs with the
	// natural outlier as noise.
	cl := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	if cl.K != 2 {
		t.Errorf("clusters = %d, want 2", cl.K)
	}
	if cl.Labels[rel.N()-1] != -1 {
		t.Error("natural outlier not noise after saving")
	}
	if cl.Labels[rel.N()-2] == -1 {
		t.Error("saved outlier still noise")
	}

	// Raw clustering is strictly worse on pairwise F1 against the
	// blob-membership ground truth.
	truth := make([]int, rel.N())
	for i := 0; i < rel.N()-2; i++ {
		truth[i] = i % 2
	}
	truth[rel.N()-2] = 0 // dirty point belongs to the left blob
	truth[rel.N()-1] = -1
	rawCl := disc.DBSCAN(rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	if disc.PairF1(cl.Labels, truth) <= disc.PairF1(rawCl.Labels, truth) {
		t.Error("saving did not improve clustering F1")
	}
}

func TestPublicParamDetermination(t *testing.T) {
	ds, err := disc.Table1("WIFI", 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	choice, err := disc.DetermineParamsContext(context.Background(), ds.Rel, disc.ParamOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Eps <= 0 || choice.Eta < 2 {
		t.Fatalf("bad choice %+v", choice)
	}
	counts, err := disc.NeighborCountsContext(context.Background(), ds.Rel, choice.Eps, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("no neighbor counts")
	}
}

func TestPublicCleanersAndMetrics(t *testing.T) {
	ds, err := disc.Table1("Iris", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var cleaners []disc.Cleaner = []disc.Cleaner{
		&disc.DORC{Eps: ds.Eps, Eta: ds.Eta},
		&disc.ERACER{},
		&disc.Holistic{},
		&disc.HoloClean{},
	}
	for _, c := range cleaners {
		out, err := c.Clean(ds.Rel)
		if err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		if out.N() != ds.N() {
			t.Fatalf("%T changed the tuple count", c)
		}
	}
	if math.Abs(disc.NMI(ds.Labels, ds.Labels)-1) > 1e-9 || math.Abs(disc.ARI(ds.Labels, ds.Labels)-1) > 1e-9 {
		t.Error("metric aliases broken")
	}
}

func TestPublicClassifierAndMatcher(t *testing.T) {
	ds, err := disc.Table1("Seeds", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, 0, ds.N())
	rel := disc.NewRelation(ds.Rel.Schema)
	for i, l := range ds.Labels {
		if l >= 0 {
			rel.Append(ds.Rel.Tuples[i])
			labels = append(labels, l)
		}
	}
	f1, err := disc.CrossValidate(rel, labels, 5, disc.TreeConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 < 0.5 {
		t.Errorf("classification F1 = %v", f1)
	}

	rds, err := disc.Table1("Restaurant", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := disc.Match(rds.Rel, disc.MatchConfig{})
	_, _, mf1 := disc.MatchScore(pairs, rds.Labels)
	if mf1 <= 0 || mf1 > 1 {
		t.Errorf("match F1 = %v", mf1)
	}
}

func TestPublicExplainAndExact(t *testing.T) {
	ds, err := disc.Table1("Iris", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	cons := disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	det, err := disc.DetectContext(context.Background(), ds.Rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Outliers) == 0 {
		t.Skip("no outliers")
	}
	inliers := ds.Rel.Subset(det.Inliers)
	oi := det.Outliers[0]
	mask := disc.SSE(inliers, ds.Rel.Tuples[oi], disc.SSEConfig{})
	if mask.Count() == 0 {
		t.Error("SSE found no separable attribute for a detected outlier")
	}
	ex, err := disc.NewExactSaver(inliers, cons, 10)
	if err != nil {
		t.Fatal(err)
	}
	adj := ex.SaveOne(context.Background(), ds.Rel.Tuples[oi])
	if adj.Saved() && adj.Cost <= 0 {
		t.Error("exact adjustment with nonpositive cost")
	}
	eps, eta := disc.DBParams(ds.Rel, disc.DBParamOptions{Seed: 1})
	if eps <= 0 || eta < 1 {
		t.Error("DBParams degenerate")
	}
}

func TestPublicIndex(t *testing.T) {
	rel := noisyBlobs()
	idx, err := disc.NewMutableIndex(rel, 1.5, disc.KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	nn := idx.KNN(rel.Tuples[0], 3, 0)
	if len(nn) != 3 {
		t.Fatalf("KNN returned %d", len(nn))
	}
	if got := idx.CountWithin(rel.Tuples[0], 1.5, 0, 0); got < 3 {
		t.Errorf("grid point has %d ε-neighbors", got)
	}
}

func TestPublicExtensions(t *testing.T) {
	ds, err := disc.Table1("WIFI", 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// OPTICS and SingleLink cluster through the facade.
	op := disc.OPTICS(ds.Rel, disc.OPTICSConfig{Eps: ds.Eps, MinPts: ds.Eta})
	if op.K < 2 {
		t.Errorf("OPTICS K = %d", op.K)
	}
	sl := disc.SingleLink(ds.Rel, disc.AggloConfig{CutDist: ds.Eps, MinClusterSize: 3})
	if sl.K < 2 {
		t.Errorf("SingleLink K = %d", sl.K)
	}
	// Internal quality + extra external measures.
	if s := disc.Silhouette(ds.Rel, op.Labels); s <= 0 {
		t.Errorf("silhouette = %v", s)
	}
	if v := disc.VMeasure(ds.Labels, ds.Labels); math.Abs(v-1) > 1e-9 {
		t.Errorf("VMeasure = %v", v)
	}
	if p := disc.Purity(ds.Labels, ds.Labels); p != 1 {
		t.Errorf("Purity = %v", p)
	}
	// SCARE via the Cleaner interface.
	var c disc.Cleaner = &disc.SCARE{Eps: ds.Eps}
	out, err := c.Clean(ds.Rel)
	if err != nil || out.N() != ds.N() {
		t.Errorf("SCARE: %v", err)
	}
	// Dataset JSON round trip through the facade.
	var buf bytes.Buffer
	if err := disc.WriteDatasetJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := disc.ReadDatasetJSON(&buf)
	if err != nil || back.N() != ds.N() {
		t.Fatalf("dataset JSON: %v", err)
	}
	// Normalization helpers.
	prev, err := disc.ScaleByStdDev(ds.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := disc.RestoreScales(ds.Rel, prev); err != nil {
		t.Fatal(err)
	}
}

// TestPublicSaverSaveOne pins the serving-path contract on the public
// surface: a warm Saver answers repeated single-tuple saves without
// rebuilding anything, and a steady-state save costs only the small
// node-independent constant of allocations the arena design budgets for.
func TestPublicSaverSaveOne(t *testing.T) {
	rel := noisyBlobs()
	cons := disc.Constraints{Eps: 1.5, Eta: 3}
	det, err := disc.DetectContext(context.Background(), rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	saver, err := disc.NewSaverContext(ctx, rel.Subset(det.Inliers), cons, disc.Options{Kappa: 2})
	if err != nil {
		t.Fatal(err)
	}

	dirty := disc.Tuple{disc.Num(10), disc.Num(1.2)}
	adj := saver.SaveOne(ctx, dirty) // warm the arena pool
	if !adj.Saved() {
		t.Fatalf("dirty outlier not saved: %+v", adj)
	}
	if adj.Cost <= 0 || adj.Adjusted.Count() == 0 {
		t.Errorf("adjustment has cost %v over %d attrs, want a real repair", adj.Cost, adj.Adjusted.Count())
	}

	allocs := testing.AllocsPerRun(50, func() {
		saver.SaveOne(ctx, dirty)
	})
	// Per save: one arena draw from the pool plus the escapes by design
	// (truncation ball, k-NN lists, the composed tuple). The total must
	// stay a small constant independent of search size — the budget has
	// headroom for the race detector, whose sync.Pool drops items.
	if allocs > 24 {
		t.Errorf("steady-state SaveOne allocates %.1f per op; want a small constant (arena pool broken?)", allocs)
	}
}
