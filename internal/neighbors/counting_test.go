package neighbors

import (
	"sync"
	"testing"

	"repro/internal/data"
)

// TestCountingBruteExact pins the brute index's counts, which are exactly
// predictable: every query evaluates n-1 distances (skip excluded).
func TestCountingBruteExact(t *testing.T) {
	const n = 50
	r := randomRelation(n, 3, 1)
	var c Counters
	idx := Counting(NewBrute(r), &c)

	idx.Within(r.Tuples[0], 2, 0)
	if c.RangeQueries != 1 {
		t.Errorf("RangeQueries = %d, want 1", c.RangeQueries)
	}
	if c.DistEvals != n-1 {
		t.Errorf("Within evals = %d, want %d", c.DistEvals, n-1)
	}

	c.Reset()
	idx.CountWithin(r.Tuples[1], 2, 1, 0)
	if c.RangeQueries != 1 || c.DistEvals != n-1 {
		t.Errorf("CountWithin: queries=%d evals=%d, want 1, %d", c.RangeQueries, c.DistEvals, n-1)
	}

	c.Reset()
	idx.KNN(r.Tuples[2], 5, 2)
	if c.KNNQueries != 1 {
		t.Errorf("KNNQueries = %d, want 1", c.KNNQueries)
	}
	if c.DistEvals != n-1 {
		t.Errorf("KNN evals = %d, want %d", c.DistEvals, n-1)
	}
}

// TestCountingViewsMatchBase checks every index type: the counting view
// returns exactly the base index's results, counts at least one distance
// evaluation per reported neighbor, and never exceeds the brute-force count.
func TestCountingViewsMatchBase(t *testing.T) {
	r := randomRelation(300, 3, 7)
	eps := 1.5
	bases := map[string]Index{
		"brute":  NewBrute(r),
		"grid":   NewGrid(r, eps),
		"vptree": NewVPTree(r, 1),
	}
	for name, base := range bases {
		var c Counters
		view := Counting(base, &c)
		for q := 0; q < 20; q++ {
			want := base.Within(r.Tuples[q], eps, q)
			got := view.Within(r.Tuples[q], eps, q)
			sameNeighborSet(t, name, got, want)
		}
		if c.RangeQueries != 20 {
			t.Errorf("%s: RangeQueries = %d, want 20", name, c.RangeQueries)
		}
		if c.DistEvals <= 0 {
			t.Errorf("%s: counting view saw no distance evaluations", name)
		}
		if limit := int64(20 * (r.N() - 1)); c.DistEvals > limit {
			t.Errorf("%s: %d evals exceeds the brute bound %d", name, c.DistEvals, limit)
		}
		// The base index must have stayed uninstrumented: the same queries
		// against it move no counters.
		before := c
		for q := 0; q < 20; q++ {
			base.Within(r.Tuples[q], eps, q)
		}
		if c != before {
			t.Errorf("%s: base index shares the view's counters", name)
		}
	}
}

// TestCountingPruningIndexesBeatBrute asserts the point of the common
// currency: on clustered data the tree/grid indexes evaluate strictly fewer
// distances than brute force for small-radius queries.
func TestCountingPruningIndexesBeatBrute(t *testing.T) {
	r := randomRelation(1000, 3, 3)
	eps := 0.5
	evals := func(idx Index) int64 {
		var c Counters
		view := Counting(idx, &c)
		for q := 0; q < 50; q++ {
			view.Within(r.Tuples[q], eps, q)
		}
		return c.DistEvals
	}
	brute := evals(NewBrute(r))
	for name, idx := range map[string]Index{
		"grid": NewGrid(r, eps),
	} {
		if got := evals(idx); got >= brute {
			t.Errorf("%s evaluated %d distances, brute only %d — index not pruning", name, got, brute)
		}
	}
}

// TestCountingGridFallback drives a grid query with a radius spanning far
// more cells than a scan costs, which must degrade to brute and count it.
func TestCountingGridFallback(t *testing.T) {
	r := randomRelation(200, 3, 5)
	g := NewGrid(r, 0.01) // tiny cells: any realistic eps spans millions
	var c Counters
	view := Counting(g, &c)
	view.Within(r.Tuples[0], 5, 0)
	if c.GridFallbacks == 0 {
		t.Fatal("wide-radius grid query did not count a brute fallback")
	}
	if c.DistEvals != int64(r.N()-1) {
		t.Errorf("fallback evals = %d, want the full scan %d", c.DistEvals, r.N()-1)
	}
}

// TestCountingReplacesPreviousCounters re-wraps a counting view and checks
// the old counters stop moving.
func TestCountingReplacesPreviousCounters(t *testing.T) {
	r := randomRelation(50, 3, 11)
	var c1, c2 Counters
	v1 := Counting(NewBrute(r), &c1)
	v2 := Counting(v1, &c2)
	v2.Within(r.Tuples[0], 2, 0)
	if c1.RangeQueries != 0 || c1.DistEvals != 0 {
		t.Errorf("replaced counters still incremented: %+v", c1)
	}
	if c2.RangeQueries != 1 || c2.DistEvals == 0 {
		t.Errorf("new counters not incremented: %+v", c2)
	}
}

// TestForkFoldsShards: the views Fork makes from a counting view are
// queried from one goroutine each, and join folds into the caller's
// counters exactly the work one view counts for the same queries, on top
// of what the counters held before. A plain index is handed to every
// worker as it is.
func TestForkFoldsShards(t *testing.T) {
	r := randomRelation(300, 3, 17)
	eps := 1.5
	for name, base := range map[string]Index{
		"brute":  NewBrute(r),
		"grid":   NewGrid(r, eps),
		"vptree": NewVPTree(r, 1),
	} {
		want := Counters{RangeQueries: 5}
		serial := Counting(base, &want)
		for q := range r.Tuples {
			serial.Within(r.Tuples[q], eps, q)
		}
		got := Counters{RangeQueries: 5}
		views, join := Fork(Counting(base, &got), 4)
		var wg sync.WaitGroup
		for w, v := range views {
			wg.Add(1)
			go func(w int, v Index) {
				defer wg.Done()
				for q := w; q < r.N(); q += len(views) {
					v.Within(r.Tuples[q], eps, q)
				}
			}(w, v)
		}
		wg.Wait()
		if got.RangeQueries != 5 {
			t.Errorf("%s: the caller's counters moved before join: %+v", name, got)
		}
		join()
		if got != want {
			t.Errorf("%s: after join %+v, one view counted %+v", name, got, want)
		}
	}
	plain := NewBrute(r)
	views, join := Fork(plain, 3)
	join()
	for w, v := range views {
		if v != Index(plain) {
			t.Errorf("view %d of a plain index is %T, want the index itself", w, v)
		}
	}
}

// TestCountingUnknownIndex wraps a foreign Index implementation: queries
// count, distance evaluations (invisible) stay zero.
func TestCountingUnknownIndex(t *testing.T) {
	r := randomRelation(20, 2, 13)
	var c Counters
	view := Counting(opaqueIndex{NewBrute(r)}, &c)
	view.KNN(r.Tuples[0], 3, 0)
	view.CountWithin(r.Tuples[0], 2, 0, 0)
	if c.KNNQueries != 1 || c.RangeQueries != 1 {
		t.Errorf("interface wrapper lost queries: %+v", c)
	}
	if c.DistEvals != 0 {
		t.Errorf("opaque index cannot report evals, got %d", c.DistEvals)
	}
}

// opaqueIndex hides a Brute behind a type Counting does not know.
type opaqueIndex struct{ inner *Brute }

func (o opaqueIndex) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return o.inner.Within(q, eps, skip)
}
func (o opaqueIndex) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return o.inner.CountWithin(q, eps, skip, cap)
}
func (o opaqueIndex) KNN(q data.Tuple, k, skip int) []Neighbor { return o.inner.KNN(q, k, skip) }
func (o opaqueIndex) Rel() *data.Relation                      { return o.inner.Rel() }
