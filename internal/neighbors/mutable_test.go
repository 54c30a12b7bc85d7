package neighbors

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
)

// mutableKinds are the three concrete kinds the differential tests sweep.
var mutableKinds = []IndexKind{KindBrute, KindGrid, KindVP}

func randomTuple(rng *rand.Rand, m int, scale float64) data.Tuple {
	t := make(data.Tuple, m)
	for a := range t {
		t[a] = data.Num(rng.Float64() * scale)
	}
	return t
}

// liveReference builds a brute index over only the live rows of m's
// relation — over m's projected columns when m is a projection — and
// returns it with the live→physical index mapping, the from-scratch
// oracle a mutated index must agree with.
func liveReference(m *Mutable) (*Brute, []int) {
	r := m.Rel()
	live := data.NewRelation(r.Schema)
	var phys []int
	for i := 0; i < r.N(); i++ {
		if !m.Alive(i) {
			continue
		}
		live.Append(r.Tuples[i])
		phys = append(phys, i)
	}
	kern := data.CompileKernel(live)
	if cols := m.Kernel().Cols(); cols != nil {
		kern = kern.Project(cols)
	}
	return newBruteKernel(live, kern), phys
}

func checkMutableAgainstRebuild(t *testing.T, m *Mutable, rng *rand.Rand, trials int) {
	t.Helper()
	ref, phys := liveReference(m)
	mDim := m.Rel().Schema.M()
	for trial := 0; trial < trials; trial++ {
		q := randomTuple(rng, mDim, 10)
		eps := 0.3 + rng.Float64()*2.5
		skip, refSkip := -1, -1
		if len(phys) > 0 && trial%3 == 0 {
			li := rng.Intn(len(phys))
			skip, refSkip = phys[li], li
		}

		want := ref.Within(q, eps, refSkip)
		for i := range want {
			want[i].Idx = phys[want[i].Idx]
		}
		sameNeighborSet(t, m.kind.String()+".Within", m.Within(q, eps, skip), want)

		if got := m.CountWithin(q, eps, skip, 0); got != len(want) {
			t.Fatalf("%s.CountWithin = %d, want %d", m.kind, got, len(want))
		}
		if len(want) > 1 {
			cap := 1 + rng.Intn(len(want))
			if got := m.CountWithin(q, eps, skip, cap); got != cap {
				t.Fatalf("%s.CountWithin cap=%d = %d", m.kind, cap, got)
			}
		}

		k := 1 + rng.Intn(8)
		wantK := ref.KNN(q, k, refSkip)
		for i := range wantK {
			wantK[i].Idx = phys[wantK[i].Idx]
		}
		gotK := m.KNN(q, k, skip)
		if len(gotK) != len(wantK) {
			t.Fatalf("%s.KNN len = %d, want %d", m.kind, len(gotK), len(wantK))
		}
		for i := range wantK {
			if gotK[i].Idx != wantK[i].Idx {
				t.Fatalf("%s.KNN[%d] = %v, want %v", m.kind, i, gotK[i], wantK[i])
			}
			if d := gotK[i].Dist - wantK[i].Dist; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s.KNN[%d] dist %v, want %v", m.kind, i, gotK[i].Dist, wantK[i].Dist)
			}
		}
	}
}

// TestMutableDifferential interleaves random inserts, updates (tombstone
// + re-insert) and deletes and checks every query kind against a
// from-scratch rebuild over the live rows, for all four index kinds.
func TestMutableDifferential(t *testing.T) {
	for _, kind := range mutableKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := randomRelation(150, 3, 7)
			m, err := NewMutable(r, 1.2, kind)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind() != kind {
				t.Fatalf("kind = %v, want %v", m.Kind(), kind)
			}
			rng := rand.New(rand.NewSource(int64(kind) + 11))
			for round := 0; round < 6; round++ {
				for op := 0; op < 25; op++ {
					switch roll := rng.Intn(10); {
					case roll < 5: // insert
						scale := 10.0
						if rng.Intn(4) == 0 {
							scale = 100 // outside the grid's packed key range
						}
						m.Insert(randomTuple(rng, 3, scale))
					case roll < 8: // delete a random physical row
						m.Delete(rng.Intn(m.Rel().N()))
					default: // update = tombstone + append
						m.Delete(rng.Intn(m.Rel().N()))
						m.Insert(randomTuple(rng, 3, 10))
					}
				}
				checkMutableAgainstRebuild(t, m, rng, 10)
			}
			if m.Live() != m.Rel().N()-m.DeadCount() {
				t.Fatalf("Live()=%d, N()=%d, Dead=%d", m.Live(), m.Rel().N(), m.DeadCount())
			}
		})
	}
}

// TestMutableProjectionDifferential pins Mutable.Project: projections
// built before a stream of inserts, updates, deletes and merges on the
// parent answer every query kind exactly like a brute projection rebuilt
// over the live rows, whatever kind the parent and autoKind picked.
func TestMutableProjectionDifferential(t *testing.T) {
	for _, kind := range mutableKinds {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMutable(randomRelation(150, 4, 17), 1.2, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.SetMergeEvery(16)
			projs := []*Mutable{m.Project([]int{0, 2}), m.Project([]int{1}), m.Project([]int{1, 2, 3})}
			if m.Project([]int{1}) != projs[1] {
				t.Fatal("Project with equal columns built a second projection")
			}
			rng := rand.New(rand.NewSource(int64(kind) + 31))
			for round := 0; round < 4; round++ {
				for op := 0; op < 25; op++ {
					switch roll := rng.Intn(10); {
					case roll < 5:
						scale := 10.0
						if rng.Intn(4) == 0 {
							scale = 100 // outside the grid's packed key range
						}
						m.Insert(randomTuple(rng, 4, scale))
					case roll < 8:
						m.Delete(rng.Intn(m.Rel().N()))
					default:
						m.Delete(rng.Intn(m.Rel().N()))
						m.Insert(randomTuple(rng, 4, 10))
					}
				}
				for _, p := range projs {
					checkMutableAgainstRebuild(t, p, rng, 10)
				}
			}
			for name, mutate := range map[string]func(){
				"Insert": func() { projs[0].Insert(randomTuple(rng, 4, 10)) },
				"Delete": func() { projs[0].Delete(0) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s on a projection did not panic", name)
						}
					}()
					mutate()
				}()
			}
		})
	}
}

// TestMutableForcedMerges drives the delta through many tiny merges and
// checks results stay exact; also verifies Merges() advances.
func TestMutableForcedMerges(t *testing.T) {
	for _, kind := range []IndexKind{KindVP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			r := randomRelation(80, 2, 3)
			m, err := NewMutable(r, 1.0, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.SetMergeEvery(4)
			rng := rand.New(rand.NewSource(21))
			for i := 0; i < 30; i++ {
				m.Insert(randomTuple(rng, 2, 10))
				if i%5 == 0 {
					m.Delete(rng.Intn(m.Rel().N()))
				}
			}
			if m.Merges() == 0 {
				t.Fatal("expected at least one delta merge")
			}
			if m.Pending() >= 4 {
				t.Fatalf("pending delta %d should have merged", m.Pending())
			}
			checkMutableAgainstRebuild(t, m, rng, 15)
		})
	}
}

// TestMutableGridNativeInsert verifies in-range inserts land in the grid
// cells (no delta growth) while far-out-of-range rows fall back to the
// delta buffer.
func TestMutableGridNativeInsert(t *testing.T) {
	r := randomRelation(120, 2, 5)
	m, err := NewMutable(r, 1.0, KindGrid)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		m.Insert(randomTuple(rng, 2, 10))
	}
	if m.Pending() != 0 {
		t.Fatalf("in-range grid inserts left %d rows in delta", m.Pending())
	}
	// A coordinate far outside the packed key range must be refused by
	// the cell map and absorbed by the delta buffer instead.
	m.Insert(data.Tuple{data.Num(1e9), data.Num(1e9)})
	if m.Pending() != 1 {
		t.Fatalf("out-of-range insert: delta = %d, want 1", m.Pending())
	}
	// Once one row is in the delta, later in-range rows must also be
	// refused (contiguity rule) or the fallback scan would double count.
	m.Insert(randomTuple(rng, 2, 10))
	if m.Pending() != 2 {
		t.Fatalf("post-delta insert: delta = %d, want 2", m.Pending())
	}
	checkMutableAgainstRebuild(t, m, rng, 20)
	m.Merge()
	if m.Pending() != 0 {
		t.Fatal("merge left delta rows")
	}
	checkMutableAgainstRebuild(t, m, rng, 20)
}

// TestMutableCountingView checks that a Counting view created before
// mutations re-syncs afterwards: results stay exact and DistEvals keeps
// advancing (the serving layer's warm-save accounting depends on it).
func TestMutableCountingView(t *testing.T) {
	r := randomRelation(100, 2, 13)
	m, err := NewMutable(r, 1.0, KindVP)
	if err != nil {
		t.Fatal(err)
	}
	var c Counters
	view := Counting(m, &c)
	rng := rand.New(rand.NewSource(5))
	q := randomTuple(rng, 2, 10)
	view.Within(q, 1.5, -1)
	if c.DistEvals == 0 || c.RangeQueries != 1 {
		t.Fatalf("pre-mutation counters: %+v", c)
	}
	prev := c.DistEvals
	for i := 0; i < 40; i++ {
		m.Insert(randomTuple(rng, 2, 10))
	}
	m.Delete(0)
	ref, phys := liveReference(m)
	want := ref.Within(q, 1.5, -1)
	for i := range want {
		want[i].Idx = phys[want[i].Idx]
	}
	sameNeighborSet(t, "view.Within", view.Within(q, 1.5, -1), want)
	if c.DistEvals <= prev {
		t.Fatalf("DistEvals did not advance: %d -> %d", prev, c.DistEvals)
	}
	if KernelOf(view) != m.Kernel() {
		t.Fatal("KernelOf(view) should reach the Mutable's kernel")
	}
}

func TestParseIndexKind(t *testing.T) {
	for s, want := range map[string]IndexKind{
		"": KindAuto, "auto": KindAuto, "brute": KindBrute,
		"grid": KindGrid, "vp": KindVP,
	} {
		got, err := ParseIndexKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseIndexKind(%q) = %v, %v", s, got, err)
		}
		if want != KindAuto && got.String() != s {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	// "kd" is a retired kind name: it fails like any unknown name, and the
	// error lists the kinds that remain.
	for _, s := range []string{"rtree", "kd"} {
		_, err := ParseIndexKind(s)
		if err == nil {
			t.Fatalf("ParseIndexKind(%q): expected error for unknown kind", s)
		}
		if want := "want auto, brute, grid or vp"; !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseIndexKind(%q) error %q does not name the kinds (%s)", s, err, want)
		}
	}
}

func TestMutableRejectsTextSchemaForNumericIndexes(t *testing.T) {
	sch := &data.Schema{Attrs: []data.Attribute{{Name: "s", Kind: data.Text}}}
	r := data.NewRelation(sch)
	r.Append(data.Tuple{data.Str("a")})
	r.Append(data.Tuple{data.Str("b")})
	for _, kind := range []IndexKind{KindGrid} {
		if _, err := NewMutable(r, 1, kind); err == nil {
			t.Fatalf("NewMutable(%v) on text schema should fail", kind)
		}
	}
	if _, err := NewMutable(r, 1, KindAuto); err != nil {
		t.Fatalf("auto kind on text schema: %v", err)
	}
}
