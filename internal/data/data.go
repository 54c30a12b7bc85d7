// Package data defines the relational model of the paper: tuples over a
// schema of numeric and textual attributes, per-attribute distances and
// their Lp aggregation (§2.1.1), attribute-subset masks for the bound
// computations of §3, and the synthetic datasets reproducing Table 1.
package data

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/metric"
)

// Kind distinguishes numeric from textual attribute values.
type Kind uint8

const (
	// Numeric attributes carry float64 values compared by (scaled)
	// absolute difference.
	Numeric Kind = iota
	// Text attributes carry string values compared by an edit-style
	// distance (Levenshtein by default, Needleman–Wunsch optionally).
	Text
)

// String names the kind.
func (k Kind) String() string {
	if k == Text {
		return "text"
	}
	return "numeric"
}

// Value is one attribute value: Num is used by Numeric attributes, Str by
// Text attributes.
type Value struct {
	Num float64
	Str string
}

// Num wraps a numeric value.
func Num(v float64) Value { return Value{Num: v} }

// Str wraps a textual value.
func Str(s string) Value { return Value{Str: s} }

// Equal reports whether two values are identical under the given kind.
func (v Value) Equal(o Value, k Kind) bool {
	if k == Text {
		return v.Str == o.Str
	}
	return v.Num == o.Num
}

// Tuple is one row: a value per schema attribute.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Attribute describes one column.
type Attribute struct {
	// Name is the column name.
	Name string
	// Kind selects the value representation and distance family.
	Kind Kind
	// Scale divides numeric distances (≤ 0 means 1). It keeps
	// heterogeneous columns comparable inside one aggregate, e.g. Time vs
	// Longitude in the GPS example of Figure 2.
	Scale float64
	// Text is the distance for textual values; nil means Levenshtein.
	Text metric.StringDistance
}

// Schema is an ordered attribute list plus the aggregation norm.
type Schema struct {
	// Attrs are the columns, in tuple order.
	Attrs []Attribute
	// Norm aggregates per-attribute distances; zero value is L2, the
	// paper's default.
	Norm metric.Norm
}

// NewNumericSchema builds an all-numeric schema with unit scales and the
// given column names.
func NewNumericSchema(names ...string) *Schema {
	s := &Schema{Attrs: make([]Attribute, len(names))}
	for i, n := range names {
		s.Attrs[i] = Attribute{Name: n, Kind: Numeric}
	}
	return s
}

// M returns the number of attributes (m in the paper).
func (s *Schema) M() int { return len(s.Attrs) }

// AttrDist returns Δ(x, y) on attribute a.
func (s *Schema) AttrDist(a int, x, y Value) float64 {
	at := &s.Attrs[a]
	var d float64
	if at.Kind == Text {
		if at.Text != nil {
			d = at.Text(x.Str, y.Str)
		} else {
			d = metric.Levenshtein(x.Str, y.Str)
		}
	} else {
		d = math.Abs(x.Num - y.Num)
	}
	// Scale applies to both kinds; dividing by a positive constant
	// preserves all four metric axioms. Note Proposition 7's ε+1
	// approximation factor assumes unit-scale integral distances.
	if at.Scale > 0 {
		d /= at.Scale
	}
	return d
}

// Dist returns the full-space distance Δ(t1, t2) over all attributes.
// The L2 default takes a specialized path: this is the hottest function in
// the system (every index probe and clustering step lands here).
func (s *Schema) Dist(t1, t2 Tuple) float64 {
	if s.Norm != metric.L2 {
		return s.DistOn(t1, t2, FullMask(s.M()))
	}
	acc := 0.0
	for a := range s.Attrs {
		at := &s.Attrs[a]
		var d float64
		if at.Kind == Numeric {
			d = t1[a].Num - t2[a].Num
		} else if at.Text != nil {
			d = at.Text(t1[a].Str, t2[a].Str)
		} else {
			d = metric.Levenshtein(t1[a].Str, t2[a].Str)
		}
		if at.Scale > 0 {
			d /= at.Scale
		}
		acc += d * d
	}
	return math.Sqrt(acc)
}

// DistOn returns Δ(t1[X], t2[X]) for the attribute subset X given as a
// mask. An empty mask yields 0, matching the paper's convention
// Δ(·[∅], ·[∅]) = 0.
func (s *Schema) DistOn(t1, t2 Tuple, x AttrMask) float64 {
	acc := 0.0
	for a := 0; a < s.M(); a++ {
		if !x.Has(a) {
			continue
		}
		acc = s.Norm.Accumulate(acc, s.AttrDist(a, t1[a], t2[a]))
	}
	return s.Norm.Finish(acc)
}

// Validate checks structural consistency of the schema.
func (s *Schema) Validate() error {
	if s.M() == 0 {
		return fmt.Errorf("data: schema has no attributes")
	}
	if s.M() > 64 {
		return fmt.Errorf("data: schema has %d attributes; attribute masks support at most 64", s.M())
	}
	seen := make(map[string]bool, s.M())
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("data: attribute %d has an empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("data: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// AttrMask is a bitset over attribute indexes (bit i = attribute i). It
// represents the unadjusted-attribute sets X enumerated by Algorithm 1.
// Schemas are limited to 64 attributes (Table 1's widest dataset, Spam,
// has 57).
type AttrMask uint64

// FullMask returns the mask containing attributes 0..m-1.
func FullMask(m int) AttrMask {
	if m >= 64 {
		return ^AttrMask(0)
	}
	return AttrMask(1)<<uint(m) - 1
}

// Has reports whether attribute a is in the mask.
func (x AttrMask) Has(a int) bool { return x&(1<<uint(a)) != 0 }

// With returns the mask with attribute a added.
func (x AttrMask) With(a int) AttrMask { return x | 1<<uint(a) }

// Without returns the mask with attribute a removed.
func (x AttrMask) Without(a int) AttrMask { return x &^ (1 << uint(a)) }

// Count returns |X|.
func (x AttrMask) Count() int { return bits.OnesCount64(uint64(x)) }

// Attrs expands the mask into a sorted slice of attribute indexes.
func (x AttrMask) Attrs(m int) []int {
	out := make([]int, 0, x.Count())
	for a := 0; a < m; a++ {
		if x.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Relation is a set of tuples over a schema (r in the paper).
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// N returns the number of tuples (n in the paper).
func (r *Relation) N() int { return len(r.Tuples) }

// Append adds a tuple; it panics if the arity does not match the schema,
// since that is always a programming error.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.Schema.M() {
		panic(fmt.Sprintf("data: tuple arity %d does not match schema arity %d", len(t), r.Schema.M()))
	}
	r.Tuples = append(r.Tuples, t)
}

// Clone returns a deep copy (schema shared, tuples copied).
func (r *Relation) Clone() *Relation {
	c := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Subset returns a new relation containing the tuples at the given indexes
// (tuples shared, not copied).
func (r *Relation) Subset(idx []int) *Relation {
	c := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(idx))}
	for i, j := range idx {
		c.Tuples[i] = r.Tuples[j]
	}
	return c
}

// Compose builds the tuple that keeps base[X] and takes other[R\X],
// i.e. the upper-bound adjustment t_o^u of Proposition 5.
func Compose(base, other Tuple, x AttrMask) Tuple {
	t := make(Tuple, len(base))
	for a := range base {
		if x.Has(a) {
			t[a] = base[a]
		} else {
			t[a] = other[a]
		}
	}
	return t
}

// DiffMask returns the mask of attributes on which a and b differ under the
// schema's kinds — the set of adjusted attributes of a repair.
func DiffMask(s *Schema, a, b Tuple) AttrMask {
	var m AttrMask
	for i := 0; i < s.M(); i++ {
		if !a[i].Equal(b[i], s.Attrs[i].Kind) {
			m = m.With(i)
		}
	}
	return m
}

// ValidateValues rejects relations containing NaN or infinite numeric
// values: distances over such cells are undefined, so detection and
// saving would silently misbehave. Call it on untrusted input (the CSV
// CLI does).
func ValidateValues(r *Relation) error {
	for i, t := range r.Tuples {
		for a := range t {
			if r.Schema.Attrs[a].Kind != Numeric {
				continue
			}
			v := t[a].Num
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("data: tuple %d attribute %q has non-finite value %v", i, r.Schema.Attrs[a].Name, v)
			}
		}
	}
	return nil
}
