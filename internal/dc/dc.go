// Package dc implements a small denial-constraint engine: the constraint
// language, violation detection, discovery from data (in the spirit of
// FASTDC [16]), and minimal-change repair. It backs the Holistic cleaning
// competitor (§4.1.4, [17]) and is usable standalone.
//
// A denial constraint forbids a conjunction of predicates: a tuple (unary
// DC) or an ordered tuple pair (binary DC) violates the constraint when
// every predicate holds. The package supports the two families the
// paper's discussion needs: per-attribute range constraints
// ¬(t.A < lo ∨ t.A > hi) and bounded-slope pair constraints
// ¬(|t1.A − t2.A| > c·|t1.B − t2.B| + d) — the "walking speed of a
// person" constraint of §5.
package dc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
)

// Range is a unary denial constraint on one numeric attribute:
// ¬(t.A < Lo ∨ t.A > Hi).
type Range struct {
	Attr   int
	Lo, Hi float64
}

// Violates reports whether the tuple breaks the range.
func (c Range) Violates(t data.Tuple) bool {
	v := t[c.Attr].Num
	return v < c.Lo || v > c.Hi
}

// Project returns the minimal repair of a violating value: the nearest
// bound.
func (c Range) Project(v float64) float64 {
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}

// String renders the constraint.
func (c Range) String() string {
	return fmt.Sprintf("¬(t.a%d < %.4g ∨ t.a%d > %.4g)", c.Attr, c.Lo, c.Attr, c.Hi)
}

// Slope is a binary denial constraint between two numeric attributes:
// ¬(|t1.A − t2.A| > C·|t1.B − t2.B| + D), i.e. attribute A may change at
// most at rate C per unit of attribute B (plus slack D). With B = time and
// A = longitude this is the §5 walking-speed constraint.
type Slope struct {
	A, B int
	C, D float64
}

// ViolatesPair reports whether the ordered pair breaks the slope bound.
func (c Slope) ViolatesPair(t1, t2 data.Tuple) bool {
	da := math.Abs(t1[c.A].Num - t2[c.A].Num)
	db := math.Abs(t1[c.B].Num - t2[c.B].Num)
	return da > c.C*db+c.D
}

// String renders the constraint.
func (c Slope) String() string {
	return fmt.Sprintf("¬(|t1.a%d − t2.a%d| > %.4g·|t1.a%d − t2.a%d| + %.4g)", c.A, c.A, c.C, c.B, c.B, c.D)
}

// Set is a collection of discovered constraints.
type Set struct {
	Ranges []Range
	Slopes []Slope
}

// DiscoverConfig tunes constraint discovery.
type DiscoverConfig struct {
	// TrimFrac is the per-tail fraction ignored when fitting ranges and
	// slopes. 0 makes the constraints hold on the entire (dirty) input —
	// the weak constraints whose failure mode §5 describes; a small
	// positive value (e.g. 0.005) yields robust constraints.
	TrimFrac float64
	// SlopePairs is the number of adjacent pairs sampled per attribute
	// pair when fitting slopes (default 512); 0 < SlopePairs.
	SlopePairs int
	// Slopes enables bounded-slope discovery between consecutive tuples
	// ordered by each candidate B attribute. It suits sequence-like data
	// (GPS trajectories); off by default.
	Slopes bool
}

// Discover derives constraints from the relation. Text attributes are
// skipped (denial constraints here are numeric, as in the Holistic
// competitor).
func Discover(rel *data.Relation, cfg DiscoverConfig) Set {
	var out Set
	n := rel.N()
	if n == 0 {
		return out
	}
	m := rel.Schema.M()
	trim := cfg.TrimFrac
	if trim < 0 || trim >= 0.5 {
		trim = 0
	}
	for a := 0; a < m; a++ {
		if rel.Schema.Attrs[a].Kind != data.Numeric {
			continue
		}
		vals := make([]float64, n)
		for i, t := range rel.Tuples {
			vals[i] = t[a].Num
		}
		sort.Float64s(vals)
		lo := vals[int(math.Floor(trim*float64(n-1)))]
		hi := vals[int(math.Ceil((1-trim)*float64(n-1)))]
		out.Ranges = append(out.Ranges, Range{Attr: a, Lo: lo, Hi: hi})
	}
	if cfg.Slopes {
		out.Slopes = discoverSlopes(rel, trim)
	}
	return out
}

// discoverSlopes fits, for every ordered numeric attribute pair (A, B)
// with B strictly increasing when sorted, the smallest C such that
// |ΔA| ≤ C·|ΔB| holds for (1−2·trim) of consecutive pairs, with slack D
// from the residual spread.
func discoverSlopes(rel *data.Relation, trim float64) []Slope {
	var out []Slope
	m := rel.Schema.M()
	n := rel.N()
	if n < 8 {
		return nil
	}
	for b := 0; b < m; b++ {
		if rel.Schema.Attrs[b].Kind != data.Numeric {
			continue
		}
		// Order tuples by B.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			return rel.Tuples[order[x]][b].Num < rel.Tuples[order[y]][b].Num
		})
		for a := 0; a < m; a++ {
			if a == b || rel.Schema.Attrs[a].Kind != data.Numeric {
				continue
			}
			ratios := make([]float64, 0, n-1)
			for k := 0; k+1 < n; k++ {
				i, j := order[k], order[k+1]
				db := math.Abs(rel.Tuples[i][b].Num - rel.Tuples[j][b].Num)
				da := math.Abs(rel.Tuples[i][a].Num - rel.Tuples[j][a].Num)
				if db <= 0 {
					continue // ties in B carry no rate information
				}
				ratios = append(ratios, da/db)
			}
			if len(ratios) < 8 {
				continue
			}
			sort.Float64s(ratios)
			c := ratios[int(math.Ceil((1-trim)*float64(len(ratios)-1)))]
			if math.IsInf(c, 1) || c <= 0 {
				continue
			}
			// Slack absorbs measurement noise at near-zero ΔB.
			d := 0.05 * c
			out = append(out, Slope{A: a, B: b, C: c * 1.05, D: d})
		}
	}
	return out
}

// Repair returns a copy of rel with minimal-change repairs: range
// violations project to the nearest bound; tuples violating a slope
// constraint against both sequence neighbors have the A value replaced by
// the neighbors' interpolation (the cell most likely wrong under the
// constraint semantics).
func (s *Set) Repair(rel *data.Relation) *data.Relation {
	out := rel.Clone()
	for _, t := range out.Tuples {
		for _, c := range s.Ranges {
			if c.Violates(t) {
				t[c.Attr] = data.Num(c.Project(t[c.Attr].Num))
			}
		}
	}
	n := out.N()
	for _, c := range s.Slopes {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			return out.Tuples[order[x]][c.B].Num < out.Tuples[order[y]][c.B].Num
		})
		for k := 1; k+1 < n; k++ {
			prev, cur, next := order[k-1], order[k], order[k+1]
			if !c.ViolatesPair(out.Tuples[prev], out.Tuples[cur]) ||
				!c.ViolatesPair(out.Tuples[cur], out.Tuples[next]) {
				continue
			}
			// Violating against both neighbors while they agree with each
			// other points at cur's A value; interpolate it.
			if c.ViolatesPair(out.Tuples[prev], out.Tuples[next]) {
				continue
			}
			bp := out.Tuples[prev][c.B].Num
			bn := out.Tuples[next][c.B].Num
			ap := out.Tuples[prev][c.A].Num
			an := out.Tuples[next][c.A].Num
			va := (ap + an) / 2
			if bn != bp {
				frac := (out.Tuples[cur][c.B].Num - bp) / (bn - bp)
				va = ap + frac*(an-ap)
			}
			out.Tuples[cur][c.A] = data.Num(va)
		}
	}
	return out
}
