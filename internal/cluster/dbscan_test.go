package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/par"
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

// twoPassCounts replays the two-pass path serially over idx and returns
// its core count and its distance evaluations: those the path must spend
// exactly at one worker (one), and the bounds it must fall within at any
// worker count (lo, hi). Pass 1 is detection's capped count, whose
// evaluations are deterministic. Pass 2 visits, from each core tuple in
// index order, the later core tuples not yet in its set; with several
// workers, when the other workers' unions land decides which visits are
// skipped, so its evaluations lie between none and those of a join that
// skips no core tuple.
func twoPassCounts(rel *data.Relation, eps float64, minPts int, idx neighbors.Index) (cores int, one, lo, hi int64) {
	var c neighbors.Counters
	view := neighbors.Counting(idx, &c)
	n := rel.N()
	isCore := make([]bool, n)
	for i, tp := range rel.Tuples {
		isCore[i] = minPts <= 0 || view.CountWithin(tp, eps, i, minPts) >= minPts
		if isCore[i] {
			cores++
		}
	}
	lo = c.DistEvals
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	root := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	visit := neighbors.VisitingOf(view)
	join := func(skipJoined bool) int64 {
		before := c.DistEvals
		for i, tp := range rel.Tuples {
			if !isCore[i] {
				continue
			}
			visit.VisitWithin(tp, eps, i+1, -1, func(j int) bool {
				return isCore[j] && !(skipJoined && root(j) == root(i))
			}, func(j int) bool {
				a, b := root(i), root(j)
				parent[max(a, b)] = min(a, b)
				return true
			})
		}
		return c.DistEvals - before
	}
	one = lo + join(true)
	hi = lo + join(false)
	return cores, one, lo, hi
}

// TestDBSCANCountingExact: a counting view handed to DBSCAN sees the work
// of the path its index selects, though the queries run on several
// goroutines. Over the VP-tree (the fused pass) that is exactly the serial
// pass's: one range query per tuple and the same distance evaluations.
// Over the grid and brute indexes (the two-pass path) it is n + #core range
// queries at every worker count, the replayed evaluations at one worker,
// and evaluations within the replay's bounds at two and four.
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
			var serial neighbors.Counters
			want := serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(idx, &serial)})
			if kind == "vptree" {
				var par neighbors.Counters
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
				continue
			}
			cores, one, lo, hi := twoPassCounts(fx.rel, fx.eps, fx.eta, idx)
			if cores == 0 || one == 0 {
				t.Fatalf("%s/%s: the replay found %d core tuples and %d evaluations", fx.name, kind, cores, one)
			}
			for _, procs := range []int{1, 2, 4} {
				var par neighbors.Counters
				var got Result
				withProcs(procs, func() {
					got = DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(idx, &par)})
				})
				if diff := labelDiff(got, want); diff != "" {
					t.Errorf("%s/%s/procs=%d: %s", fx.name, kind, procs, diff)
				}
				if want := int64(fx.rel.N() + cores); par.RangeQueries != want {
					t.Errorf("%s/%s/procs=%d: %d range queries, want n + #core = %d", fx.name, kind, procs, par.RangeQueries, want)
				}
				switch {
				case procs == 1 && par.DistEvals != one:
					t.Errorf("%s/%s/procs=1: %d distance evaluations, the replay %d", fx.name, kind, par.DistEvals, one)
				case par.DistEvals < lo || par.DistEvals > hi:
					t.Errorf("%s/%s/procs=%d: %d distance evaluations, outside the replay's [%d, %d]", fx.name, kind, procs, par.DistEvals, lo, hi)
				}
			}
		}
	}
}

// TestDBSCANTwoPassNoMoreEvals: at one worker the two-pass path never
// evaluates more pairs than the serial seed expansion, over every
// fixture, norm and MinPts of TestDBSCANMatchesSerial, on the grid and
// brute indexes. A core tuple's capped count and its one-sided join are
// each a part of the full query the serial pass runs for it, and a tuple
// that ends below MinPts is never queried again.
func TestDBSCANTwoPassNoMoreEvals(t *testing.T) {
	worst, worstAt, runs := 0.0, "", 0
	for _, fx := range dbscanFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			fx.rel.Schema.Norm = norm
			for kind, idx := range fixtureIndexes(fx.rel, fx.eps) {
				if kind == "vptree" {
					continue
				}
				for _, minPts := range []int{0, 1, fx.eta} {
					var serial, two neighbors.Counters
					serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: minPts, Index: neighbors.Counting(idx, &serial)})
					withProcs(1, func() {
						DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: minPts, Index: neighbors.Counting(idx, &two)})
					})
					runs++
					at := fmt.Sprintf("%s/%v/MinPts=%d/%s", fx.name, norm, minPts, kind)
					if two.DistEvals > serial.DistEvals {
						t.Errorf("%s: %d distance evaluations, serial pass %d", at, two.DistEvals, serial.DistEvals)
					}
					if r := float64(two.DistEvals) / float64(max(1, serial.DistEvals)); r > worst {
						worst, worstAt = r, at
					}
				}
			}
		}
	}
	t.Logf("%d runs; highest two-pass/serial evaluation ratio %.3f, at %s", runs, worst, worstAt)
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
	var pe *par.PanicError
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "panicIndex.Within") {
		t.Errorf("%v: the error does not carry the stack of panicIndex.Within", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("DBSCAN returned normally after a query panicked")
		}
	}()
	DBSCAN(rel, cfg)
}

// visitGrid is a grid seen through a type of another package: it keeps
// the grid's Visiting capability, and its hook runs before every visit,
// with from = 0 in the core test and from = i+1 in tuple i's join.
type visitGrid struct {
	*neighbors.Grid
	hook func(from, skip int)
}

func (v visitGrid) VisitWithin(q data.Tuple, eps float64, from, skip int, keep, hit func(int) bool) {
	v.hook(from, skip)
	v.Grid.VisitWithin(q, eps, from, skip, keep, hit)
}

// foreignIndex hides an index behind the bare Index interface, so it has
// no Visiting capability, and counts its range queries.
type foreignIndex struct {
	neighbors.Index
	queries *atomic.Int64
}

func (f foreignIndex) Within(q data.Tuple, eps float64, skip int) []neighbors.Neighbor {
	f.queries.Add(1)
	return f.Index.Within(q, eps, skip)
}

// TestDBSCANPathByCapability: the index's Visiting capability selects the
// path, never its kind. Grid, brute, counting views over them and a
// foreign type that keeps a grid's VisitWithin run the two passes, n +
// #core range queries; the VP-tree, a Mutable and a foreign Index over a
// grid run the fused pass, one query per tuple. Every path gives the
// serial expansion's labels.
func TestDBSCANPathByCapability(t *testing.T) {
	rel, err := data.GenLattice(data.LatticeSpec{Side: 2, PerCell: 24, Dims: 3, Noise: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const eps, minPts = 1.0, 20
	grid := neighbors.NewGrid(rel, eps)
	mut, err := neighbors.NewMutable(rel, eps, neighbors.KindGrid)
	if err != nil {
		t.Fatal(err)
	}
	want := serialDBSCAN(rel, DBSCANConfig{Eps: eps, MinPts: minPts, Index: grid})
	cores := 0
	for i, tp := range rel.Tuples {
		if grid.CountWithin(tp, eps, i, minPts) >= minPts {
			cores++
		}
	}
	if cores == 0 || cores == rel.N() {
		t.Fatalf("%d of %d tuples core; the fixture cannot tell the paths apart", cores, rel.N())
	}
	n, twoPass := int64(rel.N()), int64(rel.N()+cores)
	var visits, foreign atomic.Int64
	for _, tc := range []struct {
		name    string
		idx     neighbors.Index
		queries *atomic.Int64 // counted by the index itself, else by a counting view
		want    int64
	}{
		{"grid", grid, nil, twoPass},
		{"brute", neighbors.NewBrute(rel), nil, twoPass},
		{"vptree", neighbors.NewVPTree(rel, 1), nil, n},
		{"mutable", mut, nil, n},
		{"visiting foreign type", visitGrid{Grid: grid, hook: func(int, int) { visits.Add(1) }}, &visits, twoPass},
		{"foreign Index", foreignIndex{Index: grid, queries: &foreign}, &foreign, n},
	} {
		for _, procs := range []int{1, 2} {
			var c neighbors.Counters
			idx, read := tc.idx, func() int64 { return c.RangeQueries }
			if tc.queries != nil {
				tc.queries.Store(0)
				read = tc.queries.Load
			} else {
				idx = neighbors.Counting(idx, &c)
			}
			var got Result
			withProcs(procs, func() {
				got = DBSCAN(rel, DBSCANConfig{Eps: eps, MinPts: minPts, Index: idx})
			})
			if diff := labelDiff(got, want); diff != "" {
				t.Errorf("%s/procs=%d: %s", tc.name, procs, diff)
			}
			if q := read(); q != tc.want {
				t.Errorf("%s/procs=%d: %d range queries, want %d", tc.name, procs, q, tc.want)
			}
		}
	}
}

// TestDBSCANTwoPassFailures: on the two-pass path a panic in either pass
// is returned with every tuple noise and K = 0, DBSCAN re-raises it, and
// its stack names the panicking visit; a context cancelled between the
// passes gives the same labels with the context's error, and no join
// runs.
func TestDBSCANTwoPassFailures(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 8)
	const eps, minPts, at = 2.0, 4, 17
	grid := neighbors.NewGrid(rel, eps)
	if grid.CountWithin(rel.Tuples[at], eps, at, minPts) < minPts {
		t.Fatalf("tuple %d is not core, so it runs no join", at)
	}
	allNoise := func(name string, res Result) {
		t.Helper()
		if res.K != 0 || len(res.Labels) != rel.N() {
			t.Fatalf("%s: K = %d with %d labels, want 0 and %d", name, res.K, len(res.Labels), rel.N())
		}
		for i, l := range res.Labels {
			if l != -1 {
				t.Fatalf("%s: label[%d] = %d, want -1", name, i, l)
			}
		}
	}
	for pass, poisoned := range map[string]func(from, skip int) bool{
		"core test": func(from, skip int) bool { return from == 0 && skip == at },
		"join":      func(from, _ int) bool { return from == at+1 },
	} {
		cfg := DBSCANConfig{Eps: eps, MinPts: minPts, Index: visitGrid{Grid: grid, hook: func(from, skip int) {
			if poisoned(from, skip) {
				panic("poisoned visit")
			}
		}}}
		for _, procs := range []int{1, 2} {
			var res Result
			var err error
			withProcs(procs, func() { res, err = DBSCANContext(context.Background(), rel, cfg) })
			if err == nil || !strings.Contains(err.Error(), "poisoned visit") {
				t.Fatalf("%s/procs=%d: err = %v, want the visit's panic", pass, procs, err)
			}
			var pe *par.PanicError
			if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "visitGrid.VisitWithin") {
				t.Errorf("%s/procs=%d: %v: the error does not carry the visit's stack", pass, procs, err)
			}
			allNoise(pass, res)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: DBSCAN returned normally after a visit panicked", pass)
				}
			}()
			DBSCAN(rel, cfg)
		}()
	}

	// At one worker the last tuple's core test is the last item of pass 1,
	// so cancelling there cancels between the passes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var joins atomic.Int64
	cfg := DBSCANConfig{Eps: eps, MinPts: minPts, Index: visitGrid{Grid: grid, hook: func(from, skip int) {
		if from > 0 {
			joins.Add(1)
		}
		if from == 0 && skip == rel.N()-1 {
			cancel()
		}
	}}}
	var res Result
	var err error
	withProcs(1, func() { res, err = DBSCANContext(ctx, rel, cfg) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context's", err)
	}
	if joins.Load() != 0 {
		t.Errorf("%d joins ran after the cancellation", joins.Load())
	}
	allNoise("cancelled", res)
}
