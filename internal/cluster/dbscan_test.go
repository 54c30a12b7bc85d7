package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// joinCounts are the range queries and distance evaluations of one
// DBSCAN run, or the bounds a run must fall within.
type joinCounts struct{ queries, evals int64 }

// twoPassCounts replays the two-pass path serially over idx and returns
// its core count and its range queries and distance evaluations: those
// the path must spend exactly at one worker (one), and the bounds it must
// fall within at any worker count (lo, hi). Pass 1 is detection's capped
// count, in the listing's order, whose evaluations are deterministic: a
// tuple alone in its cell visits through VisitCell, whose listing, when
// the index makes one, stands in for the cell's near walk and its reach
// tests, and a tuple found core joins the tuples of its visit already
// found core. The join probes each core tuple against the later core
// tuples of its cell, then, from each cell that holds a core tuple, takes
// its listing or walks near it and, for each listed cell that holds one
// too and whose core tuples are not yet one set with its own, probes from
// each of its core tuples whose reach test passes against the listed
// cell's core tuples, until the two cells are one set; a candidate already
// in the probing tuple's set costs no evaluation. Near walks and reach
// tests evaluate distances on a VP-tree only. With several workers, when
// the other workers' unions land decides which unions pass 1 makes and
// which probes, reach tests and candidates are skipped, so the counts lie
// between pass 1 plus one probe per core tuple and a join that skips
// nothing.
func twoPassCounts(rel *data.Relation, eps float64, minPts int, idx neighbors.Index) (cores int, one, lo, hi joinCounts) {
	var c neighbors.Counters
	view := neighbors.Counting(idx, &c)
	j := neighbors.JoinerOf(view)
	cs := j.Cells(eps)
	n := rel.N()
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
	union := func(x, y int) {
		rx, ry := root(x), root(y)
		parent[max(rx, ry)] = min(rx, ry)
	}
	isCore := make([]bool, n)
	listed := map[int][]int32{}
	for k := 0; k < n; k++ {
		i, _ := cs.At(k)
		if minPts <= 0 {
			isCore[i] = true
			cores++
			continue
		}
		var hits []int
		hit := func(x int) bool {
			hits = append(hits, x)
			return len(hits) < minPts
		}
		if a := cs.Cell(k); len(cs.Ids(a)) == 1 {
			if near, ok := j.VisitCell(&cs, a, hit, nil); ok {
				listed[a] = near
			}
		} else {
			j.VisitWithin(rel.Tuples[i], eps, i, hit)
		}
		if isCore[i] = len(hits) >= minPts; isCore[i] {
			cores++
			for _, x := range hits {
				if isCore[x] {
					union(i, x)
				}
			}
		}
	}
	lo = joinCounts{c.RangeQueries + int64(cores), c.DistEvals}
	cs.Keep(func(i int) bool { return isCore[i] })
	hasCore := make([]bool, cs.Len())
	for a := range hasCore {
		hasCore[a] = slices.ContainsFunc(cs.Ids(a), func(x int) bool { return isCore[x] })
	}
	// oneSet reports whether the core tuples of cells a and b are one set,
	// or either cell has none.
	oneSet := func(a, b int) bool {
		if !hasCore[a] || !hasCore[b] {
			return true
		}
		r := -1
		for _, ids := range [][]int{cs.Ids(a), cs.Ids(b)} {
			for _, x := range ids {
				switch {
				case !isCore[x]:
				case r < 0:
					r = root(x)
				case root(x) != r:
					return false
				}
			}
		}
		return true
	}
	// probe joins core tuple i with the core tuples of ids, skipping those
	// already in its set when skipJoined, and then stops once cells a and
	// b (≥ 0 between cells) are one set, reporting true.
	probe := func(i int, ids []int, a, b int, skipJoined bool) bool {
		pr := j.Probe(i, eps)
		defer pr.Release()
		for _, x := range ids {
			if !isCore[x] || skipJoined && root(x) == root(i) || !pr.Within(x) {
				continue
			}
			union(i, x)
			if skipJoined && a >= 0 && oneSet(a, b) {
				return true
			}
		}
		return false
	}
	join := func(skipJoined bool) joinCounts {
		before := joinCounts{c.RangeQueries, c.DistEvals}
		for k := 0; k < n; k++ {
			if i, later := cs.At(k); isCore[i] {
				probe(i, later, -1, -1, skipJoined)
			}
		}
		for a := 0; a < cs.Len(); a++ {
			if !hasCore[a] {
				continue
			}
			near, reached := listed[a]
			if !reached {
				near = j.Near(&cs, a, nil)
			}
			for _, b := range near {
				if !hasCore[b] || skipJoined && oneSet(a, int(b)) {
					continue
				}
				for _, i := range cs.Ids(a) {
					if isCore[i] && (reached || j.Reach(&cs, i, int(b))) && probe(i, cs.Ids(int(b)), a, int(b), skipJoined) {
						break
					}
				}
			}
		}
		return joinCounts{lo.queries - int64(cores) + c.RangeQueries - before.queries, lo.evals + c.DistEvals - before.evals}
	}
	one = join(true)
	for i := range parent {
		parent[i] = i
	}
	hi = join(false)
	return cores, one, lo, hi
}

// onesidedJoinEvals counts the evaluations of a join that probes each core
// tuple against every later core tuple in index order, passing over those
// already in its set: the join the brute index's single cell must
// reproduce, replayed from brute range queries instead of a probe. Its
// sets start from pass 1's unions: each core tuple with the earlier core
// tuples among its first minPts neighbors in index order.
func onesidedJoinEvals(rel *data.Relation, eps float64, minPts int) int64 {
	brute := neighbors.NewBrute(rel)
	n := rel.N()
	isCore := make([]bool, n)
	within := make([]map[int]bool, n)
	first := make([][]int, n)
	for i, tp := range rel.Tuples {
		within[i] = map[int]bool{}
		for _, nb := range brute.Within(tp, eps, i) {
			within[i][nb.Idx] = true
			first[i] = append(first[i], nb.Idx)
		}
		slices.Sort(first[i])
		isCore[i] = len(within[i]) >= minPts
	}
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
	for i := range first {
		for _, x := range first[i][:min(len(first[i]), max(minPts, 0))] {
			if isCore[i] && x < i && isCore[x] {
				ri, rx := root(i), root(x)
				parent[max(ri, rx)] = min(ri, rx)
			}
		}
	}
	var evals int64
	for i := 0; i < n; i++ {
		for x := i + 1; isCore[i] && x < n; x++ {
			if !isCore[x] || root(x) == root(i) {
				continue
			}
			evals++
			if within[i][x] {
				ri, rx := root(i), root(x)
				parent[max(ri, rx)] = min(ri, rx)
			}
		}
	}
	return evals
}

// TestDBSCANCountingExact: a counting view handed to DBSCAN sees the work
// of the path its index selects, though the queries run on several
// goroutines. Over the grid, brute and VP-tree indexes (the two-pass path)
// it is the replay's range queries and evaluations at one worker, a
// VP-tree's near walks and reach tests included, and counts within the
// replay's bounds at two and four. On brute, a single cell, the join is
// the one-sided join from each core tuple to the later ones in index
// order: n + #core range queries at every worker count, and that join's
// evaluations at one worker. Over a Mutable (the fused pass) it is exactly
// the serial pass's at four workers: one range query per tuple and the
// same distance evaluations.
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
			want := serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: idx})
			cores, one, lo, hi := twoPassCounts(fx.rel, fx.eps, fx.eta, idx)
			if cores == 0 || one.evals == 0 {
				t.Fatalf("%s/%s: the replay found %d core tuples and %d evaluations", fx.name, kind, cores, one.evals)
			}
			if kind == "brute" {
				if q := int64(fx.rel.N() + cores); one.queries != q || hi.queries != q {
					t.Errorf("%s/brute: the replay counts %d and at most %d range queries, want n + #core = %d", fx.name, one.queries, hi.queries, q)
				}
				if join := lo.evals + onesidedJoinEvals(fx.rel, fx.eps, fx.eta); one.evals != join {
					t.Errorf("%s/brute: the replay counts %d evaluations, the one-sided join %d", fx.name, one.evals, join)
				}
			}
			t.Logf("%s/%s: %d core; one worker %d range queries, %d evaluations; bounds [%d, %d] and [%d, %d]",
				fx.name, kind, cores, one.queries, one.evals, lo.queries, hi.queries, lo.evals, hi.evals)
			for _, procs := range []int{1, 2, 4} {
				var par neighbors.Counters
				var got Result
				withProcs(procs, func() {
					got = DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(idx, &par)})
				})
				if diff := labelDiff(got, want); diff != "" {
					t.Errorf("%s/%s/procs=%d: %s", fx.name, kind, procs, diff)
				}
				switch {
				case procs == 1 && (par.RangeQueries != one.queries || par.DistEvals != one.evals):
					t.Errorf("%s/%s/procs=1: %d range queries and %d distance evaluations, the replay %d and %d",
						fx.name, kind, par.RangeQueries, par.DistEvals, one.queries, one.evals)
				case par.RangeQueries < lo.queries || par.RangeQueries > hi.queries:
					t.Errorf("%s/%s/procs=%d: %d range queries, outside the replay's [%d, %d]", fx.name, kind, procs, par.RangeQueries, lo.queries, hi.queries)
				case par.DistEvals < lo.evals || par.DistEvals > hi.evals:
					t.Errorf("%s/%s/procs=%d: %d distance evaluations, outside the replay's [%d, %d]", fx.name, kind, procs, par.DistEvals, lo.evals, hi.evals)
				}
			}
		}
		mut, err := neighbors.NewMutable(fx.rel, fx.eps, neighbors.KindVP)
		if err != nil {
			t.Fatal(err)
		}
		var serial, par neighbors.Counters
		want := serialDBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(mut, &serial)})
		var got Result
		withProcs(4, func() {
			got = DBSCAN(fx.rel, DBSCANConfig{Eps: fx.eps, MinPts: fx.eta, Index: neighbors.Counting(mut, &par)})
		})
		if diff := labelDiff(got, want); diff != "" {
			t.Errorf("%s/mutable: %s", fx.name, diff)
		}
		if par.RangeQueries != int64(fx.rel.N()) || par.DistEvals != serial.DistEvals || par.DistEvals == 0 {
			t.Errorf("%s/mutable: %d range queries and %d distance evaluations, want one per tuple (%d) and the serial pass's %d",
				fx.name, par.RangeQueries, par.DistEvals, fx.rel.N(), serial.DistEvals)
		}
	}
}

// TestDBSCANTwoPassNoMoreEvals: at one worker the two-pass path never
// evaluates more pairs than the serial seed expansion, which makes the
// fused pass's n full range queries, over every fixture, norm and MinPts
// of TestDBSCANMatchesSerial, on every index kind, every evaluation
// counted: visits, probes, and a VP-tree's near walks and reach tests. A
// core tuple's capped count and its one-sided join are each a part of the
// full query the serial pass runs for it, and a tuple that ends below
// MinPts is never queried again. On a VP-tree, a tuple alone in its cell
// runs its visit and its cell's near walk as one walk, which costs at most
// its range query, and a core tuple joins the core tuples its visit found.
func TestDBSCANTwoPassNoMoreEvals(t *testing.T) {
	worst, worstAt, runs := 0.0, "", 0
	for _, fx := range dbscanFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			fx.rel.Schema.Norm = norm
			for kind, idx := range fixtureIndexes(fx.rel, fx.eps) {
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

// joinGrid is a grid seen through a type of another package: it keeps
// the grid's Joiner capability, and its hooks run before every visit (the
// core test, with the visiting tuple as skip) and every probe (the join).
type joinGrid struct {
	*neighbors.Grid
	visit func(skip int)
	probe func(i int)
}

func (g joinGrid) VisitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool) {
	g.visit(skip)
	g.Grid.VisitWithin(q, eps, skip, hit)
}

func (g joinGrid) VisitCell(cs *neighbors.Cells, c int, hit func(int) bool, dst []int32) ([]int32, bool) {
	g.visit(cs.Ids(c)[0])
	return g.Grid.VisitCell(cs, c, hit, dst)
}

func (g joinGrid) Probe(i int, eps float64) neighbors.Probe {
	g.probe(i)
	return g.Grid.Probe(i, eps)
}

// joinVP is a VP-tree seen through a type of another package: it keeps
// the tree's Joiner capability, and its hook runs as every near walk
// starts.
type joinVP struct {
	*neighbors.VPTree
	near func(c int)
}

func (v joinVP) Near(cs *neighbors.Cells, c int, dst []int32) []int32 {
	v.near(c)
	return v.VPTree.Near(cs, c, dst)
}

// visitOnly offers a grid's visit and nothing else of its Joiner.
type visitOnly struct {
	neighbors.Index
	g *neighbors.Grid
}

func (v visitOnly) VisitWithin(q data.Tuple, eps float64, skip int, hit func(int) bool) {
	v.g.VisitWithin(q, eps, skip, hit)
}

// foreignIndex hides an index behind the bare Index interface, so it has
// no Joiner capability, and counts its range queries.
type foreignIndex struct {
	neighbors.Index
	queries *atomic.Int64
}

func (f foreignIndex) Within(q data.Tuple, eps float64, skip int) []neighbors.Neighbor {
	f.queries.Add(1)
	return f.Index.Within(q, eps, skip)
}

// TestDBSCANPathByCapability: the index's Joiner capability selects the
// path, never its kind. Grid, brute, VP-tree, counting views over them and
// a foreign type that keeps a grid's Joiner run the two passes: n visits,
// one probe per core tuple inside its cell, and on a grid or VP-tree the
// probes between cells, so n + #core range queries on brute and at least
// that on the others. A Mutable over a grid or a VP-tree, a foreign type
// that offers only a grid's visit and a foreign Index over a grid or a
// VP-tree run the fused pass, one query per tuple. Every path gives the
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
	mutVP, err := neighbors.NewMutable(rel, eps, neighbors.KindVP)
	if err != nil {
		t.Fatal(err)
	}
	vp := neighbors.NewVPTree(rel, 1)
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
	var joins, foreign, foreignVP atomic.Int64
	count := func(int) { joins.Add(1) }
	for _, tc := range []struct {
		name    string
		idx     neighbors.Index
		queries *atomic.Int64 // counted by the index itself, else by a counting view
		want    int64
		atLeast bool // want is a floor: the probes between cells vary
	}{
		{"grid", grid, nil, twoPass, true},
		{"brute", neighbors.NewBrute(rel), nil, twoPass, false},
		{"vptree", vp, nil, twoPass, true},
		{"mutable", mut, nil, n, false},
		{"mutable vptree", mutVP, nil, n, false},
		{"joining foreign type", joinGrid{Grid: grid, visit: count, probe: count}, &joins, twoPass, true},
		{"visiting foreign type", visitOnly{Index: grid, g: grid}, nil, n, false},
		{"foreign Index", foreignIndex{Index: grid, queries: &foreign}, &foreign, n, false},
		{"foreign Index over a VP-tree", foreignIndex{Index: vp, queries: &foreignVP}, &foreignVP, n, false},
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
			if q := read(); q != tc.want && !(tc.atLeast && q > tc.want) {
				t.Errorf("%s/procs=%d: %d range queries, want %d (at least: %v)", tc.name, procs, q, tc.want, tc.atLeast)
			}
		}
	}
}

// TestDBSCANTwoPassFailures: on the two-pass path a panic in the core
// test, in the join inside cells, in the join between cells or in a
// VP-tree's near walk is returned with every tuple noise and K = 0, DBSCAN
// re-raises it, and its stack names the panicking visit, probe or walk. A context cancelled between the
// core test and the join, inside the join within cells, or inside the
// join between cells gives the same labels with the context's error, and
// no later phase runs.
func TestDBSCANTwoPassFailures(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 8)
	const eps, minPts, at = 2.0, 4, 17
	grid := neighbors.NewGrid(rel, eps)
	if grid.CountWithin(rel.Tuples[at], eps, at, minPts) < minPts {
		t.Fatalf("tuple %d is not core, so it runs no join", at)
	}
	// The join inside cells probes each core tuple once, before any probe
	// between cells, so probe number #core + 1 is the first between cells.
	cores, one, _, _ := twoPassCounts(rel, eps, minPts, grid)
	between := int64(cores + 1)
	if one.queries < int64(rel.N())+between {
		t.Fatalf("the replay probes no pair of cells (%d range queries, %d tuples, %d core)", one.queries, rel.N(), cores)
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
	// hooked returns a joinGrid whose visit hook runs onVisit and whose
	// probe hook runs onProbe with the probe's tuple and its number.
	hooked := func(onVisit func(skip int), onProbe func(i int, k int64)) neighbors.Index {
		var probes atomic.Int64
		return joinGrid{Grid: grid, visit: onVisit, probe: func(i int) { onProbe(i, probes.Add(1)) }}
	}
	poison := func(bad bool) {
		if bad {
			panic("poisoned query")
		}
	}
	for _, tc := range []struct {
		phase string
		frame string
		idx   func() neighbors.Index
	}{
		{"core test", "joinGrid.VisitWithin", func() neighbors.Index {
			return hooked(func(skip int) { poison(skip == at) }, func(int, int64) {})
		}},
		{"join inside cells", "joinGrid.Probe", func() neighbors.Index {
			return hooked(func(int) {}, func(i int, _ int64) { poison(i == at) })
		}},
		{"join between cells", "joinGrid.Probe", func() neighbors.Index {
			return hooked(func(int) {}, func(_ int, k int64) { poison(k == between) })
		}},
		{"near walk", "joinVP.Near", func() neighbors.Index {
			return joinVP{VPTree: neighbors.NewVPTree(rel, 1), near: func(int) { poison(true) }}
		}},
	} {
		for _, procs := range []int{1, 2} {
			var res Result
			var err error
			withProcs(procs, func() {
				res, err = DBSCANContext(context.Background(), rel, DBSCANConfig{Eps: eps, MinPts: minPts, Index: tc.idx()})
			})
			if err == nil || !strings.Contains(err.Error(), "poisoned query") {
				t.Fatalf("%s/procs=%d: err = %v, want the query's panic", tc.phase, procs, err)
			}
			var pe *par.PanicError
			if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), tc.frame) {
				t.Errorf("%s/procs=%d: %v: the error does not carry the stack of %s", tc.phase, procs, err, tc.frame)
			}
			allNoise(tc.phase, res)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: DBSCAN returned normally after a query panicked", tc.phase)
				}
			}()
			DBSCAN(rel, DBSCANConfig{Eps: eps, MinPts: minPts, Index: tc.idx()})
		}()
	}

	// At one worker the last tuple's core test is the last item of pass 1,
	// so cancelling there cancels between the core test and the join; the
	// first probe is the first item of the join inside cells, and probe
	// #core + 1 an item of the join between cells with more after it.
	for _, tc := range []struct {
		phase     string
		visit     func(ctx context.CancelFunc, skip int)
		probe     func(ctx context.CancelFunc, k int64)
		maxProbes int64
	}{
		{"between the passes", func(cancel context.CancelFunc, skip int) {
			if skip == rel.N()-1 {
				cancel()
			}
		}, func(context.CancelFunc, int64) {}, 0},
		{"join inside cells", func(context.CancelFunc, int) {}, func(cancel context.CancelFunc, k int64) {
			if k == 1 {
				cancel()
			}
		}, between - 1},
		{"join between cells", func(context.CancelFunc, int) {}, func(cancel context.CancelFunc, k int64) {
			if k == between {
				cancel()
			}
		}, one.queries - int64(rel.N()) - 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var probes atomic.Int64
		idx := joinGrid{Grid: grid, visit: func(skip int) { tc.visit(cancel, skip) }, probe: func(int) { tc.probe(cancel, probes.Add(1)) }}
		var res Result
		var err error
		withProcs(1, func() { res, err = DBSCANContext(ctx, rel, DBSCANConfig{Eps: eps, MinPts: minPts, Index: idx}) })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want the context's", tc.phase, err)
		}
		if p := probes.Load(); p > tc.maxProbes {
			t.Errorf("%s: %d probes ran, want at most %d", tc.phase, p, tc.maxProbes)
		}
		allNoise("cancelled "+tc.phase, res)
	}
}
