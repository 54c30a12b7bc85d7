package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metric"
)

func twoColSchema() *Schema {
	return NewNumericSchema("x", "y")
}

func TestSchemaDistL2(t *testing.T) {
	s := twoColSchema()
	a := Tuple{Num(0), Num(0)}
	b := Tuple{Num(3), Num(4)}
	if got := s.Dist(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 distance = %v, want 5", got)
	}
}

func TestSchemaDistNorms(t *testing.T) {
	s := twoColSchema()
	a := Tuple{Num(0), Num(0)}
	b := Tuple{Num(3), Num(4)}
	s.Norm = metric.L1
	if got := s.Dist(a, b); got != 7 {
		t.Errorf("L1 distance = %v, want 7", got)
	}
	s.Norm = metric.LInf
	if got := s.Dist(a, b); got != 4 {
		t.Errorf("Linf distance = %v, want 4", got)
	}
}

func TestSchemaDistOnSubset(t *testing.T) {
	s := twoColSchema()
	a := Tuple{Num(0), Num(0)}
	b := Tuple{Num(3), Num(4)}
	if got := s.DistOn(a, b, AttrMask(0).With(0)); got != 3 {
		t.Errorf("distance on {x} = %v, want 3", got)
	}
	if got := s.DistOn(a, b, AttrMask(0).With(1)); got != 4 {
		t.Errorf("distance on {y} = %v, want 4", got)
	}
	// Empty mask yields 0 (paper convention Δ(·[∅],·[∅]) = 0).
	if got := s.DistOn(a, b, 0); got != 0 {
		t.Errorf("distance on ∅ = %v, want 0", got)
	}
}

func TestSchemaDistMonotonicity(t *testing.T) {
	// Δ(t1[X], t2[X]) ≤ Δ(t1[X∪{A}], t2[X∪{A}]) — the §2.1.1 property the
	// DISC bounds rely on.
	s := NewNumericSchema("a", "b", "c", "d")
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		t1 := make(Tuple, 4)
		t2 := make(Tuple, 4)
		for i := range t1 {
			t1[i] = Num(rng.Float64() * 10)
			t2[i] = Num(rng.Float64() * 10)
		}
		x := AttrMask(rng.Intn(16))
		a := rng.Intn(4)
		sub := s.DistOn(t1, t2, x)
		sup := s.DistOn(t1, t2, x.With(a))
		if sub > sup+1e-12 {
			t.Fatalf("monotonicity violated: d[%b]=%v > d[%b]=%v", x, sub, x.With(a), sup)
		}
	}
}

func TestTextAttrDistance(t *testing.T) {
	s := &Schema{Attrs: []Attribute{
		{Name: "zip", Kind: Text},
	}}
	a := Tuple{Str("RH10-OAG")}
	b := Tuple{Str("RH10-0AG")}
	if got := s.Dist(a, b); got != 1 {
		t.Errorf("Levenshtein default = %v, want 1", got)
	}
	s.Attrs[0].Text = metric.NeedlemanWunsch
	if got := s.Dist(a, b); got != metric.SubCloseCost {
		t.Errorf("NW confusable = %v, want %v", got, metric.SubCloseCost)
	}
	s.Attrs[0].Scale = 2
	if got := s.Dist(a, b); got != metric.SubCloseCost/2 {
		t.Errorf("scaled text distance = %v, want %v", got, metric.SubCloseCost/2)
	}
}

func TestAttrScale(t *testing.T) {
	s := &Schema{Attrs: []Attribute{{Name: "t", Kind: Numeric, Scale: 10}}}
	if got := s.Dist(Tuple{Num(0)}, Tuple{Num(5)}); got != 0.5 {
		t.Errorf("scaled distance = %v, want 0.5", got)
	}
}

func TestAttrMaskOps(t *testing.T) {
	m := AttrMask(0).With(0).With(3)
	if !m.Has(0) || !m.Has(3) || m.Has(1) {
		t.Error("Has/With broken")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d", m.Count())
	}
	if m.Without(0).Has(0) {
		t.Error("Without broken")
	}
	if got := m.Attrs(4); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Attrs = %v", got)
	}
	if FullMask(3) != 7 {
		t.Errorf("FullMask(3) = %b", FullMask(3))
	}
	if FullMask(64) != ^AttrMask(0) {
		t.Error("FullMask(64) should be all ones")
	}
}

func TestCompose(t *testing.T) {
	base := Tuple{Num(1), Num(2), Num(3)}
	other := Tuple{Num(10), Num(20), Num(30)}
	got := Compose(base, other, AttrMask(0).With(1))
	want := Tuple{Num(10), Num(2), Num(30)}
	for i := range want {
		if got[i].Num != want[i].Num {
			t.Fatalf("Compose = %v, want %v", got, want)
		}
	}
	// Composing must not alias the inputs.
	got[0] = Num(99)
	if other[0].Num == 99 || base[0].Num == 99 {
		t.Error("Compose aliases its inputs")
	}
}

func TestDiffMask(t *testing.T) {
	s := NewNumericSchema("a", "b", "c")
	x := Tuple{Num(1), Num(2), Num(3)}
	y := Tuple{Num(1), Num(5), Num(3)}
	if got := DiffMask(s, x, y); got != AttrMask(0).With(1) {
		t.Errorf("DiffMask = %b", got)
	}
	if got := DiffMask(s, x, x); got != 0 {
		t.Errorf("self DiffMask = %b", got)
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := NewNumericSchema("a", "b").Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	if err := (&Schema{}).Validate(); err == nil {
		t.Error("empty schema accepted")
	}
	if err := NewNumericSchema("a", "a").Validate(); err == nil {
		t.Error("duplicate names accepted")
	}
	if err := NewNumericSchema("a", "").Validate(); err == nil {
		t.Error("empty name accepted")
	}
	wide := make([]string, 65)
	for i := range wide {
		wide[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	if err := NewNumericSchema(wide...).Validate(); err == nil {
		t.Error("65-attribute schema accepted")
	}
}

func TestRelationAppendPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	r := NewRelation(twoColSchema())
	r.Append(Tuple{Num(1)})
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := NewRelation(twoColSchema())
	r.Append(Tuple{Num(1), Num(2)})
	c := r.Clone()
	c.Tuples[0][0] = Num(99)
	if r.Tuples[0][0].Num != 1 {
		t.Error("Clone shares tuple storage")
	}
}

func TestRelationSubset(t *testing.T) {
	r := NewRelation(twoColSchema())
	for i := 0; i < 5; i++ {
		r.Append(Tuple{Num(float64(i)), Num(0)})
	}
	sub := r.Subset([]int{4, 0})
	if sub.N() != 2 || sub.Tuples[0][0].Num != 4 || sub.Tuples[1][0].Num != 0 {
		t.Errorf("Subset wrong: %v", sub.Tuples)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	s := NewNumericSchema("a", "b", "c")
	bound := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	f := func(a1, a2, b1, b2, c1, c2 float64) bool {
		t1 := Tuple{Num(bound(a1)), Num(bound(b1)), Num(bound(c1))}
		t2 := Tuple{Num(bound(a2)), Num(bound(b2)), Num(bound(c2))}
		return math.Abs(s.Dist(t1, t2)-s.Dist(t2, t1)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleProperty(t *testing.T) {
	s := NewNumericSchema("a", "b")
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		mk := func() Tuple {
			return Tuple{Num(rng.Float64() * 10), Num(rng.Float64() * 10)}
		}
		x, y, z := mk(), mk(), mk()
		if s.Dist(x, y) > s.Dist(x, z)+s.Dist(z, y)+1e-9 {
			t.Fatalf("triangle violated for %v %v %v", x, y, z)
		}
	}
}

func TestValidateValues(t *testing.T) {
	r := NewRelation(NewNumericSchema("x"))
	r.Append(Tuple{Num(1)})
	if err := ValidateValues(r); err != nil {
		t.Errorf("finite values rejected: %v", err)
	}
	r.Append(Tuple{Num(math.NaN())})
	if err := ValidateValues(r); err == nil {
		t.Error("NaN accepted")
	}
	r.Tuples[1] = Tuple{Num(math.Inf(1))}
	if err := ValidateValues(r); err == nil {
		t.Error("Inf accepted")
	}
	// Text attributes are exempt.
	s := &Schema{Attrs: []Attribute{{Name: "w", Kind: Text}}}
	tr := NewRelation(s)
	tr.Append(Tuple{Str("ok")})
	if err := ValidateValues(tr); err != nil {
		t.Errorf("text relation rejected: %v", err)
	}
}

func TestComposeDiffMaskProperty(t *testing.T) {
	// DiffMask(base, Compose(base, other, x)) never touches X: composing
	// keeps base[X], so differences live in the complement.
	s := NewNumericSchema("a", "b", "c", "d")
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 300; trial++ {
		base := make(Tuple, 4)
		other := make(Tuple, 4)
		for i := range base {
			base[i] = Num(math.Floor(rng.Float64() * 4))
			other[i] = Num(math.Floor(rng.Float64() * 4))
		}
		x := AttrMask(rng.Intn(16))
		comp := Compose(base, other, x)
		diff := DiffMask(s, base, comp)
		if diff&x != 0 {
			t.Fatalf("compose changed unadjusted attributes: x=%b diff=%b", x, diff)
		}
		// And the composite agrees with other off X wherever they differ.
		for a := 0; a < 4; a++ {
			if !x.Has(a) && comp[a].Num != other[a].Num {
				t.Fatalf("composite attr %d = %v, want %v", a, comp[a].Num, other[a].Num)
			}
		}
	}
}

func TestAttrMaskProperties(t *testing.T) {
	f := func(raw uint16, attr uint8) bool {
		m := AttrMask(raw)
		a := int(attr % 16)
		with := m.With(a)
		without := m.Without(a)
		if !with.Has(a) || without.Has(a) {
			return false
		}
		return with.Count() >= m.Count() && without.Count() <= m.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
