package neighbors

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
)

// TestCountWithinAtLeast pins the threshold probe to the exact count's
// answer across every index kind, including k values right at the
// boundary where the cap early-exit fires.
func TestCountWithinAtLeast(t *testing.T) {
	r := diffRelation(120, 3, metric.L2, 11, true)
	brute := NewBrute(r)
	indexes := map[string]Index{
		"brute":  brute,
		"grid":   NewGrid(r, 1.5),
		"vptree": NewVPTree(r, 3),
		"kdtree": NewKDTree(r),
	}
	eps := 6.0
	for name, idx := range indexes {
		for i, q := range r.Tuples {
			exact := brute.CountWithin(q, eps, i, 0)
			for _, k := range []int{-1, 0, 1, exact - 1, exact, exact + 1, 2*exact + 3} {
				got := CountWithinAtLeast(idx, q, eps, i, k)
				want := k <= 0 || exact >= k
				if got != want {
					t.Fatalf("%s: tuple %d: CountWithinAtLeast(k=%d) = %v, exact count %d",
						name, i, k, got, exact)
				}
			}
		}
	}
}

// TestCubeBound checks the grid cube bound is a true upper bound on the
// exact count, survives the counting/context wrappers and the mutable
// grid view, and refuses (rather than misanswers) everywhere it cannot
// promise one: non-grid indexes, pending deltas, too-wide radii.
func TestCubeBound(t *testing.T) {
	// eps ≤ cell keeps the walk within 3³ cells (≤ n+1), so the cube bound
	// is available; wider radii exercise the refusal below.
	r := diffRelation(150, 3, metric.L2, 13, false)
	g := NewGrid(r, 1.5)
	brute := NewBrute(r)
	eps := 1.4
	for i, q := range r.Tuples {
		ub, ok := CubeBound(g, q, eps, i)
		if !ok {
			t.Fatalf("tuple %d: grid cube bound unavailable", i)
		}
		exact := brute.CountWithin(q, eps, i, 0)
		if ub < exact {
			t.Fatalf("tuple %d: cube bound %d < exact count %d", i, ub, exact)
		}
	}

	// The bound unwraps the counting and context decorators.
	var c Counters
	wrapped := WithContext(context.Background(), Counting(g, &c))
	ubW, okW := CubeBound(wrapped, r.Tuples[0], eps, 0)
	ubG, okG := CubeBound(g, r.Tuples[0], eps, 0)
	if !okW || ubW != ubG || !okG {
		t.Fatalf("wrapped cube bound (%d, %v) differs from direct (%d, %v)", ubW, okW, ubG, okG)
	}

	// Indexes without cell structure refuse.
	if _, ok := CubeBound(brute, r.Tuples[0], eps, 0); ok {
		t.Fatal("brute index offered a cube bound")
	}
	if _, ok := CubeBound(NewVPTree(r, 3), r.Tuples[0], eps, 0); ok {
		t.Fatal("vptree offered a cube bound")
	}

	// A radius spanning more cells than a brute scan refuses.
	if _, ok := CubeBound(g, r.Tuples[0], 1e9, 0); ok {
		t.Fatal("too-wide radius still offered a cube bound")
	}
}

// TestCubeBoundMutable checks the mutable-grid path: valid with a clean
// delta, still an upper bound after deletes (tombstoned rows stay in
// their cells), and refused while inserts are pending — delta rows are
// not in any cell, so the cube population would undercount.
func TestCubeBoundMutable(t *testing.T) {
	r := diffRelation(150, 3, metric.L2, 17, false)
	m, err := NewMutable(r, 1.5, KindGrid)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.4
	q := r.Tuples[0].Clone()
	if _, ok := CubeBound(m, q, eps, 0); !ok {
		t.Fatal("mutable grid with empty delta refused a cube bound")
	}

	m.Delete(3)
	ub, ok := CubeBound(m, q, eps, 0)
	if !ok {
		t.Fatal("mutable grid refused a cube bound after a delete")
	}
	if exact := m.CountWithin(q, eps, 0, 0); ub < exact {
		t.Fatalf("cube bound %d < exact live count %d after delete", ub, exact)
	}

	// An in-range insert is absorbed into its cell (no delta), so the
	// bound stays valid and still covers the new row.
	m.Insert(q.Clone())
	if m.Pending() != 0 {
		t.Fatalf("in-range insert parked in delta (%d pending)", m.Pending())
	}
	ub, ok = CubeBound(m, q, eps, 0)
	if !ok {
		t.Fatal("mutable grid refused a cube bound after an absorbed insert")
	}
	if exact := m.CountWithin(q, eps, 0, 0); ub < exact {
		t.Fatalf("cube bound %d < exact live count %d after absorbed insert", ub, exact)
	}

	// A row outside the packed layout's build-time ranges parks in the
	// delta buffer — it is in no cell, so the bound must refuse.
	far := make(data.Tuple, r.Schema.M())
	for a := range far {
		far[a] = data.Num(1e9)
	}
	m.Insert(far)
	if m.Pending() == 0 {
		t.Skip("far insert absorbed in-place (unpacked layout); delta path not reachable here")
	}
	if _, ok := CubeBound(m, q, eps, 0); ok {
		t.Fatal("mutable grid offered a cube bound with a pending delta row")
	}
}
