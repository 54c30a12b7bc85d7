package dc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/data"
)

// Violations returns, for each tuple, the indexes (into Ranges) of the
// unary constraints it breaks.
func (s *Set) Violations(rel *data.Relation) [][]int {
	out := make([][]int, rel.N())
	for i, t := range rel.Tuples {
		for ci, c := range s.Ranges {
			if c.Violates(t) {
				out[i] = append(out[i], ci)
			}
		}
	}
	return out
}

// SlopeViolations returns, for each tuple, the number of consecutive-pair
// slope violations it participates in (tuples ordered by each slope's B
// attribute; a dirty value shows up in the pairs with both sequence
// neighbors).
func (s *Set) SlopeViolations(rel *data.Relation) []int {
	counts := make([]int, rel.N())
	n := rel.N()
	for _, c := range s.Slopes {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			return rel.Tuples[order[x]][c.B].Num < rel.Tuples[order[y]][c.B].Num
		})
		for k := 0; k+1 < n; k++ {
			i, j := order[k], order[k+1]
			if c.ViolatesPair(rel.Tuples[i], rel.Tuples[j]) {
				counts[i]++
				counts[j]++
			}
		}
	}
	return counts
}

func TestRangeConstraint(t *testing.T) {
	c := Range{Attr: 0, Lo: 2, Hi: 8}
	if c.Violates(data.Tuple{data.Num(5)}) {
		t.Error("in-range value flagged")
	}
	if !c.Violates(data.Tuple{data.Num(1)}) || !c.Violates(data.Tuple{data.Num(9)}) {
		t.Error("out-of-range value missed")
	}
	if c.Project(1) != 2 || c.Project(9) != 8 || c.Project(5) != 5 {
		t.Error("projection wrong")
	}
	if c.String() == "" {
		t.Error("empty rendering")
	}
}

func TestSlopeConstraint(t *testing.T) {
	// Longitude may change at most 2 per unit time (+0.5 slack).
	c := Slope{A: 1, B: 0, C: 2, D: 0.5}
	t1 := data.Tuple{data.Num(0), data.Num(0)}
	ok := data.Tuple{data.Num(1), data.Num(2)}
	bad := data.Tuple{data.Num(1), data.Num(10)}
	if c.ViolatesPair(t1, ok) {
		t.Error("legal movement flagged")
	}
	if !c.ViolatesPair(t1, bad) {
		t.Error("teleport missed")
	}
	if c.String() == "" {
		t.Error("empty rendering")
	}
}

func TestDiscoverRanges(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 100; i++ {
		rel.Append(data.Tuple{data.Num(float64(i % 10))})
	}
	rel.Append(data.Tuple{data.Num(1000)})
	// Weak discovery (trim 0): the constraint holds on the dirty data, so
	// the 1000 is NOT a violation — the §5 failure mode.
	weak := Discover(rel, DiscoverConfig{})
	if len(weak.Ranges) != 1 {
		t.Fatalf("ranges = %d", len(weak.Ranges))
	}
	if weak.Ranges[0].Violates(rel.Tuples[rel.N()-1]) {
		t.Error("weak constraint should tolerate the outlier it was learned on")
	}
	// Robust discovery (trimmed): the outlier violates.
	strong := Discover(rel, DiscoverConfig{TrimFrac: 0.02})
	if !strong.Ranges[0].Violates(rel.Tuples[rel.N()-1]) {
		t.Error("trimmed constraint should flag the outlier")
	}
	viol := strong.Violations(rel)
	if len(viol[rel.N()-1]) != 1 {
		t.Errorf("violations = %v", viol[rel.N()-1])
	}
	if len(viol[0]) != 0 {
		t.Error("clean tuple flagged")
	}
}

// trajectory builds a time/position walk with one teleporting error.
func trajectory(n int, seed int64) (*data.Relation, int) {
	rng := rand.New(rand.NewSource(seed))
	rel := data.NewRelation(data.NewNumericSchema("time", "pos"))
	pos := 100.0
	for i := 0; i < n; i++ {
		pos += rng.Float64()*2 - 0.5
		rel.Append(data.Tuple{data.Num(float64(i)), data.Num(pos)})
	}
	bad := n / 2
	rel.Tuples[bad][1] = data.Num(pos + 500)
	return rel, bad
}

func TestDiscoverSlopesCatchTeleport(t *testing.T) {
	rel, bad := trajectory(200, 1)
	set := Discover(rel, DiscoverConfig{TrimFrac: 0.02, Slopes: true})
	found := false
	for _, s := range set.Slopes {
		if s.A == 1 && s.B == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no pos-over-time slope discovered")
	}
	counts := set.SlopeViolations(rel)
	if counts[bad] < 2 {
		t.Errorf("teleporting tuple has %d slope violations, want ≥ 2", counts[bad])
	}
	clean := 0
	for i, c := range counts {
		if i != bad && i != bad-1 && i != bad+1 && c > 0 {
			clean++
		}
	}
	if clean > 4 {
		t.Errorf("%d clean tuples flagged by slope constraints", clean)
	}
}

func TestRepairProjectsAndInterpolates(t *testing.T) {
	rel, bad := trajectory(200, 2)
	set := Discover(rel, DiscoverConfig{TrimFrac: 0.02, Slopes: true})
	fixed := set.Repair(rel)
	// Input untouched.
	if rel.Tuples[bad][1].Num < 500 {
		t.Fatal("repair mutated its input")
	}
	// The teleport is pulled back near its neighbors.
	prev := fixed.Tuples[bad-1][1].Num
	next := fixed.Tuples[bad+1][1].Num
	got := fixed.Tuples[bad][1].Num
	lo, hi := math.Min(prev, next)-5, math.Max(prev, next)+5
	if got < lo || got > hi {
		t.Errorf("repaired pos %v outside neighbor band [%v, %v]", got, lo, hi)
	}
}

func TestDiscoverSkipsTextAndDegenerate(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{
		{Name: "w", Kind: data.Text},
		{Name: "x", Kind: data.Numeric},
	}}
	rel := data.NewRelation(s)
	for i := 0; i < 20; i++ {
		rel.Append(data.Tuple{data.Str("a"), data.Num(float64(i))})
	}
	set := Discover(rel, DiscoverConfig{Slopes: true})
	for _, r := range set.Ranges {
		if r.Attr == 0 {
			t.Error("range constraint on a text attribute")
		}
	}
	for _, sl := range set.Slopes {
		if sl.A == 0 || sl.B == 0 {
			t.Error("slope constraint on a text attribute")
		}
	}
	empty := data.NewRelation(data.NewNumericSchema("x"))
	if got := Discover(empty, DiscoverConfig{}); len(got.Ranges) != 0 {
		t.Error("constraints from an empty relation")
	}
}
