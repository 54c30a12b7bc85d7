package clean

import (
	"math"
	"testing"

	"repro/internal/data"
)

// denseWithOutlier builds a dense 1D ladder plus one far outlier at the
// end.
func denseWithOutlier() *data.Relation {
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 30; i++ {
		rel.Append(data.Tuple{data.Num(float64(i % 6)), data.Num(float64(i / 6))})
	}
	rel.Append(data.Tuple{data.Num(100), data.Num(2)})
	return rel
}

func TestDORCSubstitutesWholeTuple(t *testing.T) {
	rel := denseWithOutlier()
	d := &DORC{Eps: 1.5, Eta: 3}
	out, err := d.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	oi := rel.N() - 1
	// The outlier must now equal some existing tuple (all attributes
	// substituted).
	found := false
	for i := 0; i < rel.N()-1; i++ {
		if out.Tuples[oi][0].Num == rel.Tuples[i][0].Num && out.Tuples[oi][1].Num == rel.Tuples[i][1].Num {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("DORC result %v is not an existing tuple", out.Tuples[oi])
	}
	// Input untouched; inliers untouched.
	if rel.Tuples[oi][0].Num != 100 {
		t.Error("DORC modified its input")
	}
	if out.Tuples[0][0].Num != rel.Tuples[0][0].Num {
		t.Error("DORC modified an inlier")
	}
}

func TestDORCNoCoreTuples(t *testing.T) {
	// All isolated: nothing can substitute, output equals input.
	rel := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 4; i++ {
		rel.Append(data.Tuple{data.Num(float64(i) * 100)})
	}
	d := &DORC{Eps: 1, Eta: 2}
	out, err := d.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Tuples {
		if out.Tuples[i][0].Num != rel.Tuples[i][0].Num {
			t.Error("DORC changed tuples with no core available")
		}
	}
}

func TestERACERRepairsLinearOutlier(t *testing.T) {
	// y = 2x exactly; one corrupted y value.
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 50; i++ {
		rel.Append(data.Tuple{data.Num(float64(i)), data.Num(float64(2 * i))})
	}
	rel.Tuples[25][1] = data.Num(500) // should be 50
	e := &ERACER{}
	out, err := e.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	// ERACER restores the dependency y = 2x but cannot tell which cell of
	// the tuple was wrong (the §5 limitation), so assert consistency.
	got := out.Tuples[25]
	if math.Abs(got[1].Num-2*got[0].Num) > 5 {
		t.Errorf("ERACER left tuple inconsistent: %v", got)
	}
	// Clean cells of other tuples should stay (regression is exact there).
	if math.Abs(out.Tuples[10][1].Num-20) > 1e-6 {
		t.Errorf("ERACER disturbed a clean cell: %v", out.Tuples[10][1].Num)
	}
}

func TestERACERRejectsText(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}}
	rel := data.NewRelation(s)
	rel.Append(data.Tuple{data.Str("x")})
	if _, err := (&ERACER{}).Clean(rel); err == nil {
		t.Error("ERACER accepted a text attribute")
	}
}

func TestERACERTinyRelationNoop(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	rel.Append(data.Tuple{data.Num(1), data.Num(2)})
	out, err := (&ERACER{}).Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][0].Num != 1 {
		t.Error("tiny relation should be returned unchanged")
	}
}

func TestHolisticClampsRangeViolations(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 200; i++ {
		rel.Append(data.Tuple{data.Num(float64(i % 10))})
	}
	rel.Append(data.Tuple{data.Num(10000)})
	h := &Holistic{}
	out, err := h.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[rel.N()-1][0].Num > 9 {
		t.Errorf("Holistic kept out-of-range value %v", out.Tuples[rel.N()-1][0].Num)
	}
	// The characteristic failure: a small in-range error is NOT cleaned.
	rel2 := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 100; i++ {
		rel2.Append(data.Tuple{data.Num(float64(i)), data.Num(float64(i))})
	}
	rel2.Tuples[50][1] = data.Num(10) // wrong but within the global range
	out2, err := h.Clean(rel2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Tuples[50][1].Num != 10 {
		t.Error("Holistic should miss in-range errors (weak constraints)")
	}
}

func TestHolisticLeavesTextAlone(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "w", Kind: data.Text},
	}}
	rel := data.NewRelation(s)
	for i := 0; i < 20; i++ {
		rel.Append(data.Tuple{data.Num(float64(i)), data.Str("ok")})
	}
	out, err := (&Holistic{}).Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][1].Str != "ok" {
		t.Error("Holistic modified a text value")
	}
}

func TestHoloCleanRepairsConditionalError(t *testing.T) {
	// Two tight value profiles: (x≈0, y≈0) and (x≈10, y≈10). A tuple
	// (0, 10) violates the co-occurrence statistics; HoloClean should
	// repair y toward the x≈0 profile.
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 60; i++ {
		rel.Append(data.Tuple{data.Num(0.1 * float64(i%3)), data.Num(0.1 * float64(i%4))})
		rel.Append(data.Tuple{data.Num(10 + 0.1*float64(i%3)), data.Num(10 + 0.1*float64(i%4))})
	}
	rel.Append(data.Tuple{data.Num(0.1), data.Num(10.2)})
	h := &HoloClean{}
	out, err := h.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	// HoloClean restores co-occurrence consistency; like the original it
	// may over-change and move the clean attribute instead of the dirty
	// one (Figure 10c–f), so assert consistency, not direction.
	last := out.Tuples[rel.N()-1]
	if math.Abs(last[0].Num-last[1].Num) > 5 {
		t.Errorf("HoloClean left the tuple inconsistent: %v", last)
	}
}

func TestHoloCleanTextRepair(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{
		{Name: "city", Kind: data.Text},
		{Name: "zip", Kind: data.Text},
	}}
	rel := data.NewRelation(s)
	for i := 0; i < 40; i++ {
		rel.Append(data.Tuple{data.Str("portland"), data.Str("97201")})
		rel.Append(data.Tuple{data.Str("seattle"), data.Str("98101")})
	}
	rel.Append(data.Tuple{data.Str("portland"), data.Str("98101")}) // inconsistent zip
	out, err := (&HoloClean{}).Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	last := out.Tuples[rel.N()-1]
	consistent := (last[0].Str == "portland" && last[1].Str == "97201") ||
		(last[0].Str == "seattle" && last[1].Str == "98101")
	if !consistent {
		t.Errorf("HoloClean left an inconsistent pair: %v / %v", last[0].Str, last[1].Str)
	}
}

func TestHoloCleanTinyRelationNoop(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	rel.Append(data.Tuple{data.Num(1)})
	out, err := (&HoloClean{}).Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][0].Num != 1 {
		t.Error("tiny relation changed")
	}
}

func TestCleanersDoNotMutateInput(t *testing.T) {
	mk := func() *data.Relation {
		rel := data.NewRelation(data.NewNumericSchema("x", "y"))
		for i := 0; i < 40; i++ {
			rel.Append(data.Tuple{data.Num(float64(i % 5)), data.Num(float64(i % 7))})
		}
		rel.Append(data.Tuple{data.Num(999), data.Num(999)})
		return rel
	}
	cleaners := []Cleaner{
		&DORC{Eps: 1.5, Eta: 3},
		&ERACER{},
		&Holistic{},
		&HoloClean{},
	}
	for _, c := range cleaners {
		rel := mk()
		snapshot := rel.Clone()
		if _, err := c.Clean(rel); err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		for i := range rel.Tuples {
			for a := range rel.Tuples[i] {
				if rel.Tuples[i][a].Num != snapshot.Tuples[i][a].Num {
					t.Fatalf("%T mutated input tuple %d", c, i)
				}
			}
		}
	}
}

func TestSCARERepairsLowLikelihoodCells(t *testing.T) {
	// Dense ladder plus a tuple with one corrupted coordinate: SCARE's
	// likelihood model should pull the corrupted cell back toward the
	// neighborhood consensus.
	rel := data.NewRelation(data.NewNumericSchema("x", "y"))
	for i := 0; i < 60; i++ {
		rel.Append(data.Tuple{data.Num(float64(i % 10)), data.Num(float64(i/10) * 0.5)})
	}
	rel.Append(data.Tuple{data.Num(4), data.Num(80)}) // y corrupted
	s := &SCARE{Eps: 1.5}
	out, err := s.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[rel.N()-1][1].Num > 10 {
		t.Errorf("SCARE left y = %v", out.Tuples[rel.N()-1][1].Num)
	}
	// Input untouched.
	if rel.Tuples[rel.N()-1][1].Num != 80 {
		t.Error("SCARE mutated its input")
	}
}

func TestSCAREBudgetBoundsChanges(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	for i := 0; i < 50; i++ {
		rel.Append(data.Tuple{data.Num(float64(i % 5))})
	}
	for i := 0; i < 10; i++ {
		rel.Append(data.Tuple{data.Num(900 + float64(i)*10)})
	}
	// A budget too small for all ten repairs leaves some outliers dirty.
	s := &SCARE{Eps: 1.5, Budget: 1800} // each repair costs ≈ 900
	out, err := s.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 50; i < 60; i++ {
		if out.Tuples[i][0].Num != rel.Tuples[i][0].Num {
			changed++
		}
	}
	if changed == 0 {
		t.Error("budget prevented every repair")
	}
	if changed > 2 {
		t.Errorf("budget exceeded: %d repairs of cost ≈ 900 under budget 1800", changed)
	}
}

func TestSCARERejectsTextAndTiny(t *testing.T) {
	s := &data.Schema{Attrs: []data.Attribute{{Name: "w", Kind: data.Text}}}
	rel := data.NewRelation(s)
	rel.Append(data.Tuple{data.Str("x")})
	if _, err := (&SCARE{}).Clean(rel); err == nil {
		t.Error("SCARE accepted a text attribute")
	}
	tiny := data.NewRelation(data.NewNumericSchema("x"))
	tiny.Append(data.Tuple{data.Num(1)})
	out, err := (&SCARE{}).Clean(tiny)
	if err != nil || out.Tuples[0][0].Num != 1 {
		t.Error("tiny relation should pass through")
	}
}
