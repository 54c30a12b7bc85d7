package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// serialDBSCAN is the seed expansion of Ester et al., the reference the
// parallel DBSCANContext must reproduce label for label: scan the tuples
// in order, grow a cluster from each unvisited core tuple through a stack
// of its neighbors, and let a noise tuple that a later cluster reaches
// become that cluster's border. Every tuple is queried exactly once.
func serialDBSCAN(rel *data.Relation, cfg DBSCANConfig) Result {
	n := rel.N()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	idx := cfg.Index
	if idx == nil {
		idx = neighbors.Build(rel, cfg.Eps)
	}
	cluster := 0
	var queue []int
	var scratch []neighbors.Neighbor
	for i := 0; i < n; i++ {
		if labels[i] != -2 {
			continue
		}
		scratch = neighbors.WithinBuf(idx, scratch, rel.Tuples[i], cfg.Eps, i)
		if len(scratch) < cfg.MinPts {
			labels[i] = -1 // noise (may be upgraded to border later)
			continue
		}
		labels[i] = cluster
		queue = queue[:0]
		for _, nb := range scratch {
			queue = append(queue, nb.Idx)
		}
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == -1 {
				labels[j] = cluster // border point
			}
			if labels[j] != -2 {
				continue
			}
			labels[j] = cluster
			scratch = neighbors.WithinBuf(idx, scratch, rel.Tuples[j], cfg.Eps, j)
			if len(scratch) >= cfg.MinPts {
				for _, nb := range scratch {
					if labels[nb.Idx] == -2 || labels[nb.Idx] == -1 {
						queue = append(queue, nb.Idx)
					}
				}
			}
		}
		cluster++
	}
	return Result{Labels: labels, K: cluster}
}

// dbscanFixture is one relation of the differential tests with its
// constraints; eta is the MinPts the paper's (ε, η) test uses.
type dbscanFixture struct {
	name string
	rel  *data.Relation
	eps  float64
	eta  int
}

// dbscanFixtures returns the differential tests' relations: the blobs, every
// Table 1 generator for seeds 1–3 at about 100 tuples (the generators'
// floor of 30 for the small ones), the jittered lattice, and the mixed
// numeric and text relation, which runs the text kernel and its pair cache.
func dbscanFixtures(t *testing.T) []dbscanFixture {
	t.Helper()
	blobRel, _ := blobs(t, 3, 60, 7)
	fx := []dbscanFixture{{name: "blobs", rel: blobRel, eps: 2, eta: 4}}
	full := map[string]float64{"Iris": 150, "Seeds": 210, "WIFI": 2000, "Yeast": 1299,
		"Letter": 20000, "Flight": 200000, "Spam": 4601, "GPS": 8125, "Restaurant": 864}
	for _, name := range data.Table1Names() {
		for seed := int64(1); seed <= 3; seed++ {
			ds, err := data.Table1(name, min(1, 100/full[name]), seed)
			if err != nil {
				t.Fatal(err)
			}
			fx = append(fx, dbscanFixture{name: fmt.Sprintf("%s/seed=%d", name, seed), rel: ds.Rel, eps: ds.Eps, eta: ds.Eta})
		}
	}
	lat, err := data.GenLattice(data.LatticeSpec{Side: 2, PerCell: 24, Dims: 3, Noise: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx = append(fx, dbscanFixture{name: "lattice", rel: lat, eps: 1, eta: 20})
	mixed, err := data.GenMixed(data.MixedSpec{Name: "mixed", N: 200, Entities: 150, DirtyFrac: 0.05, Eps: 2, Eta: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return append(fx, dbscanFixture{name: "mixed", rel: mixed.Rel, eps: mixed.Eps, eta: mixed.Eta})
}

// fixtureIndexes builds every index kind that can serve rel: the grid only
// over numeric schemas.
func fixtureIndexes(rel *data.Relation, eps float64) map[string]neighbors.Index {
	idx := map[string]neighbors.Index{"brute": neighbors.NewBrute(rel), "vptree": neighbors.NewVPTree(rel, 1)}
	if data.CompileKernel(rel).AllNumeric() {
		idx["grid"] = neighbors.NewGrid(rel, eps)
	}
	return idx
}

// withProcs runs fn at GOMAXPROCS p and restores the previous setting.
func withProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// TestDBSCANMatchesSerial pins the parallel union-find DBSCAN to the serial
// seed expansion: identical labels and K on every fixture, under every
// norm, over every index kind, for MinPts 0 (every tuple core), 1 and η,
// with one, two and four worker goroutines.
func TestDBSCANMatchesSerial(t *testing.T) {
	clustered := 0
	for _, fx := range dbscanFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			fx.rel.Schema.Norm = norm
			indexes := fixtureIndexes(fx.rel, fx.eps)
			for _, minPts := range []int{0, 1, fx.eta} {
				want := serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: minPts, Index: indexes["brute"]})
				if minPts == fx.eta && want.K > 0 {
					clustered++
				}
				for kind, idx := range indexes {
					for _, procs := range []int{1, 2, 4} {
						var got Result
						withProcs(procs, func() {
							got = DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: minPts, Index: idx})
						})
						if diff := labelDiff(got, want); diff != "" {
							t.Errorf("%s/%v/MinPts=%d/%s/procs=%d: %s", fx.name, norm, minPts, kind, procs, diff)
						}
					}
				}
			}
		}
	}
	if clustered < 20 {
		t.Errorf("only %d fixture × norm runs found a cluster at MinPts = η; the fixtures are too sparse to test border labels", clustered)
	}
}

// labelDiff describes the first difference between two clusterings, or
// returns "" when they are identical.
func labelDiff(got, want Result) string {
	if got.K != want.K {
		return fmt.Sprintf("K = %d, want %d", got.K, want.K)
	}
	if len(got.Labels) != len(want.Labels) {
		return fmt.Sprintf("%d labels, want %d", len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			return fmt.Sprintf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	return ""
}

// TestDBSCANCountingExact: a counting view handed to DBSCAN sees exactly
// the serial pass's work, though its queries run on several goroutines —
// one range query per tuple and the same distance evaluations.
func TestDBSCANCountingExact(t *testing.T) {
	ds, err := data.Table1("Letter", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := data.GenLattice(data.LatticeSpec{Side: 2, PerCell: 32, Dims: 3, Noise: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []dbscanFixture{
		{name: "Letter", rel: ds.Rel, eps: ds.Eps, eta: ds.Eta},
		{name: "lattice", rel: lat, eps: 1, eta: 20},
	} {
		for kind, idx := range fixtureIndexes(fx.rel, fx.eps) {
			var serial, par neighbors.Counters
			want := serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(idx, &serial)})
			var got Result
			withProcs(4, func() {
				got = DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(idx, &par)})
			})
			if diff := labelDiff(got, want); diff != "" {
				t.Errorf("%s/%s: %s", fx.name, kind, diff)
			}
			if par.RangeQueries != int64(fx.rel.N()) {
				t.Errorf("%s/%s: %d range queries, want one per tuple (%d)", fx.name, kind, par.RangeQueries, fx.rel.N())
			}
			if par.DistEvals != serial.DistEvals || par.DistEvals == 0 {
				t.Errorf("%s/%s: %d distance evaluations, serial pass %d", fx.name, kind, par.DistEvals, serial.DistEvals)
			}
		}
	}
}

// panicIndex panics on the range query of one tuple.
type panicIndex struct {
	neighbors.Index
	at int
}

func (p panicIndex) Within(q data.Tuple, eps float64, skip int) []neighbors.Neighbor {
	if skip == p.at {
		panic("poisoned tuple")
	}
	return p.Index.Within(q, eps, skip)
}

// TestDBSCANPanicIsReturned: a panic in one range query is an error of
// DBSCANContext, with no tuple clustered, and DBSCAN re-raises it rather
// than return a clustering that silently lacks that tuple's query.
func TestDBSCANPanicIsReturned(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 8)
	cfg := DBSCANConfig{Eps: 2, MinPts: 4, Index: panicIndex{Index: neighbors.NewBrute(rel), at: 17}}
	res, err := DBSCANContext(context.Background(), rel, cfg)
	if err == nil || !strings.Contains(err.Error(), "poisoned tuple") {
		t.Fatalf("err = %v, want the query's panic", err)
	}
	if res.K != 0 || len(res.Labels) != rel.N() {
		t.Fatalf("K = %d with %d labels, want 0 and %d", res.K, len(res.Labels), rel.N())
	}
	for i, l := range res.Labels {
		if l != -1 {
			t.Fatalf("label[%d] = %d after a panic, want -1", i, l)
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("DBSCAN returned normally after a query panicked")
		}
	}()
	DBSCAN(rel, cfg)
}
