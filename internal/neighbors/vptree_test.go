package neighbors

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/data"
	"repro/internal/metric"
)

// vpFixture is one relation of the VP-tree join tests, with the radii it
// is joined at and the cap its counts use as η.
type vpFixture struct {
	name string
	rel  func(norm metric.Norm) *data.Relation
	eps  []float64
	eta  int
}

// vpFixtures returns the VP-tree join tests' relations: the grid walk's
// lattice at m = 3 and m = 16 (every point twice, many pairs at exactly
// 1 and √2, the 0.1-scaled attributes rounding), Table 1 Letter (m = 16)
// and Restaurant (text), and the mixed numeric and text relation, the
// last three with their own ε and every tenth tuple duplicated.
func vpFixtures(t *testing.T) []vpFixture {
	t.Helper()
	dup := func(r *data.Relation) *data.Relation {
		for i, n := 0, r.N(); i < n; i += 10 {
			r.Append(r.Tuples[i].Clone())
		}
		return r
	}
	table1 := func(name string, scale float64) vpFixture {
		ds, err := data.Table1(name, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		return vpFixture{name: name, eps: []float64{ds.Eps}, eta: ds.Eta, rel: func(norm metric.Norm) *data.Relation {
			ds, _ := data.Table1(name, scale, 1)
			ds.Rel.Schema.Norm = norm
			return dup(ds.Rel)
		}}
	}
	lattice := func(m int) vpFixture {
		return vpFixture{name: fmt.Sprintf("lattice-m%d", m), eps: []float64{1, math.Sqrt2}, eta: 4, rel: func(norm metric.Norm) *data.Relation {
			return walkRelation(m, 2, false, 0, norm, int64(23+int(norm)))
		}}
	}
	mixed := vpFixture{name: "mixed", eps: []float64{2}, eta: 3, rel: func(norm metric.Norm) *data.Relation {
		ds, err := data.GenMixed(data.MixedSpec{Name: "mixed", N: 200, Entities: 150, DirtyFrac: 0.05, Eps: 2, Eta: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ds.Rel.Schema.Norm = norm
		return dup(ds.Rel)
	}}
	return []vpFixture{lattice(3), lattice(16), table1("Letter", 0.02), table1("Restaurant", 0.12), mixed}
}

// TestVPTreeCellsCoverPairs runs checkCellsCover, the grid's cell-listing
// checks, on the VP-tree over every fixture and norm, keeping every tuple
// and then only the core tuples at η. Each fixture must list more than one
// cell and put some pair between two cells, so the near walks and reach
// tests are what covers it; across the fixtures some pairs are duplicates
// and some lie at exactly ε. Once only the core tuples are kept, no near
// list names a cell that holds none.
func TestVPTreeCellsCoverPairs(t *testing.T) {
	dups, exact, dropped := 0, 0, 0
	for _, fx := range vpFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			r := fx.rel(norm)
			vp, brute := NewVPTree(r, 1), NewBrute(r)
			for _, eps := range fx.eps {
				name := fmt.Sprintf("%s/%v/eps=%g", fx.name, norm, eps)
				cells, pairs, between := checkCellsCover(t, name, vp, brute, eps, nil)
				if cells < 2 || between == 0 {
					t.Fatalf("%s: %d cells, %d of %d pairs between two cells", name, cells, between, pairs)
				}
				core := make([]bool, r.N())
				for i, q := range r.Tuples {
					core[i] = brute.CountWithin(q, eps, i, fx.eta) >= fx.eta
				}
				keep := func(i int) bool { return core[i] }
				_, kept, _ := checkCellsCover(t, name+"/core", vp, brute, eps, keep)
				dropped += pairs - kept
				cs := vp.Cells(eps)
				cs.Keep(keep)
				for c := 0; c < cs.Len(); c++ {
					for _, d := range vp.Near(&cs, c, nil) {
						if !slices.ContainsFunc(cs.Ids(int(d)), keep) {
							t.Fatalf("%s: cell %d lists cell %d, which holds no core tuple", name, c, d)
						}
					}
				}
				for i, q := range r.Tuples {
					for _, nb := range brute.Within(q, eps, i) {
						switch nb.Dist {
						case 0:
							dups++
						case eps:
							exact++
						}
					}
				}
				t.Logf("%s: %d tuples in %d cells; %d pairs within ε, %d between cells", name, r.N(), cells, pairs, between)
			}
		}
	}
	if dups == 0 || exact == 0 || dropped == 0 {
		t.Fatalf("the fixtures hold %d duplicate pairs, %d pairs at exactly ε and %d pairs with a tuple not core, want some of each", dups, exact, dropped)
	}
}

// TestVPTreeVisitMatchesCount: the visit and the capped count are one walk.
// Within returns brute's neighbours, and a visit run to the end visits
// exactly Within's ids, each once; a count capped at 0, 1, η or n equals
// brute's count, capped; and a visit that stops after k hits evaluates
// exactly the pairs CountWithin capped at k evaluates. Queries are every
// tuple, skipping itself.
func TestVPTreeVisitMatchesCount(t *testing.T) {
	for _, fx := range vpFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			r := fx.rel(norm)
			vp, brute := NewVPTree(r, 1), NewBrute(r)
			var cv, cc Counters
			jv, count := JoinerOf(Counting(vp, &cv)), Counting(vp, &cc)
			for _, eps := range fx.eps {
				name := fmt.Sprintf("%s/%v/eps=%g", fx.name, norm, eps)
				for i, q := range r.Tuples {
					want := brute.Within(q, eps, i)
					sameNeighborSet(t, name+" Within", vp.Within(q, eps, i), want)
					seen := map[int]int{}
					vp.VisitWithin(q, eps, i, func(j int) bool {
						seen[j]++
						return true
					})
					for _, nb := range want {
						if seen[nb.Idx] != 1 {
							t.Fatalf("%s: tuple %d visits neighbor %d %d times", name, i, nb.Idx, seen[nb.Idx])
						}
					}
					if len(seen) != len(want) {
						t.Fatalf("%s: tuple %d visits %d tuples, Within returns %d", name, i, len(seen), len(want))
					}
					for _, k := range []int{0, 1, fx.eta, r.N()} {
						if got, w := vp.CountWithin(q, eps, i, k), len(want); got != w && (k <= 0 || got != min(w, k)) {
							t.Fatalf("%s: tuple %d counts %d at cap %d, brute %d", name, i, got, k, w)
						}
						cv.Reset()
						cc.Reset()
						hits := 0
						jv.VisitWithin(q, eps, i, func(int) bool {
							hits++
							return k <= 0 || hits < k
						})
						count.CountWithin(q, eps, i, k)
						if cv.DistEvals != cc.DistEvals || cv.RangeQueries != 1 || cc.RangeQueries != 1 {
							t.Fatalf("%s: tuple %d at cap %d: the visit evaluates %d pairs in %d queries, the count %d in %d",
								name, i, k, cv.DistEvals, cv.RangeQueries, cc.DistEvals, cc.RangeQueries)
						}
					}
				}
			}
		}
	}
}

// TestVPTreeVisitCell: from each cell of one tuple, VisitCell visits
// what VisitWithin visits from that tuple, hit for hit and in order,
// whether it runs to the end or stops after η hits; it lists the cells
// Near lists, each of which passes the tuple's reach test; and the one
// walk evaluates no more than the tuple's range query, counted as one
// range query through a counting view.
func TestVPTreeVisitCell(t *testing.T) {
	lone := 0
	for _, fx := range vpFixtures(t) {
		for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
			r := fx.rel(norm)
			vp := NewVPTree(r, 1)
			var c Counters
			view := Counting(vp, &c)
			j := JoinerOf(view)
			for _, eps := range fx.eps {
				cs := vp.Cells(eps)
				for a := 0; a < cs.Len(); a++ {
					if len(cs.Ids(a)) != 1 {
						continue
					}
					lone++
					i := cs.Ids(a)[0]
					name := fmt.Sprintf("%s/%v/eps=%g/cell %d", fx.name, norm, eps, a)
					for _, k := range []int{0, fx.eta} {
						var want, got []int
						collect := func(dst *[]int) func(int) bool {
							return func(x int) bool {
								*dst = append(*dst, x)
								return k <= 0 || len(*dst) < k
							}
						}
						vp.VisitWithin(r.Tuples[i], eps, i, collect(&want))
						c.Reset()
						near, ok := j.VisitCell(&cs, a, collect(&got), nil)
						shared := c
						c.Reset()
						view.Within(r.Tuples[i], eps, i)
						switch {
						case !ok || !slices.Equal(got, want):
							t.Fatalf("%s, cap %d: VisitCell (%v) visits %v, VisitWithin %v", name, k, ok, got, want)
						case shared.RangeQueries != 1 || shared.DistEvals > c.DistEvals:
							t.Fatalf("%s, cap %d: the walk counts %d range queries and %d evaluations, the range query %d",
								name, k, shared.RangeQueries, shared.DistEvals, c.DistEvals)
						case !slices.Equal(near, vp.Near(&cs, a, nil)):
							t.Fatalf("%s, cap %d: VisitCell lists %v, Near %v", name, k, near, vp.Near(&cs, a, nil))
						}
						for _, d := range near {
							if !vp.Reach(&cs, i, int(d)) {
								t.Fatalf("%s: VisitCell lists cell %d, whose reach test fails", name, d)
							}
						}
					}
				}
			}
		}
	}
	if lone == 0 {
		t.Fatal("no fixture lists a cell of one tuple")
	}
}

// TestVPTreeVisitZeroAlloc: a capped or uncapped count and a visit bind
// a pooled kernel query and walk the tree without a heap allocation, and
// a node stays 32 bytes with its cover in what was padding.
func TestVPTreeVisitZeroAlloc(t *testing.T) {
	if s := unsafe.Sizeof(vpNode{}); s != 32 {
		t.Errorf("vpNode is %d bytes, want 32", s)
	}
	r := diffRelation(400, 3, metric.L2, 17, false)
	vp := NewVPTree(r, 1)
	q := r.Tuples[42]
	for _, cap := range []int{0, 5} {
		if got := testing.AllocsPerRun(200, func() {
			vp.CountWithin(q, 3, 42, cap)
		}); got != 0 {
			t.Errorf("CountWithin(cap=%d) allocates %.1f times per query, want 0", cap, got)
		}
	}
	hits := 0
	hit := func(int) bool {
		hits++
		return hits%5 != 0
	}
	if got := testing.AllocsPerRun(200, func() {
		vp.VisitWithin(q, 3, 42, hit)
	}); got != 0 {
		t.Errorf("VisitWithin allocates %.1f times per query, want 0", got)
	}
}

// TestVPTreeJoinerOf: a VP-tree and a counting view over one are Joiners,
// and the view counts a near walk's evaluations and one per reach test,
// though neither is a range query. A Mutable over a VP-tree, which also
// scans its delta buffer, and a foreign type that embeds a VP-tree as an
// Index are not, directly or through a counting view.
func TestVPTreeJoinerOf(t *testing.T) {
	r := diffRelation(150, 3, metric.L2, 9, true)
	vp := NewVPTree(r, 1)
	var c Counters
	j := JoinerOf(Counting(vp, &c))
	if JoinerOf(vp) == nil || j == nil {
		t.Fatal("a VP-tree and its counting view have no Joiner")
	}
	cs := j.Cells(3)
	near := j.Near(&cs, 0, nil)
	if c.DistEvals == 0 || c.RangeQueries != 0 || len(near) == 0 {
		t.Fatalf("a near walk listed %d cells and counted %d evaluations and %d range queries", len(near), c.DistEvals, c.RangeQueries)
	}
	c.Reset()
	j.Reach(&cs, cs.Ids(0)[0], int(near[0]))
	if c.DistEvals != 1 || c.RangeQueries != 0 {
		t.Fatalf("a reach test counted %d evaluations and %d range queries, want 1 and 0", c.DistEvals, c.RangeQueries)
	}
	mut, err := NewMutable(r, 3, KindVP)
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]Index{"Mutable": mut, "foreign": struct{ Index }{vp}} {
		if JoinerOf(idx) != nil || JoinerOf(Counting(idx, &c)) != nil {
			t.Errorf("%s over a VP-tree has a Joiner", name)
		}
	}
}
