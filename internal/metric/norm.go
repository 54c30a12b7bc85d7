package metric

import "math"

// Norm identifies the Lp aggregation of per-attribute distances into a
// multi-attribute distance (paper §2.1.1, Formula 1). The paper's default is
// L2 (Euclidean length of the per-attribute distance vector).
type Norm uint8

const (
	// L2 is the Euclidean norm, the paper's default.
	L2 Norm = iota
	// L1 is the sum of per-attribute distances.
	L1
	// LInf is the maximum per-attribute distance.
	LInf
)

// String returns the conventional name of the norm.
func (n Norm) String() string {
	switch n {
	case L2:
		return "L2"
	case L1:
		return "L1"
	case LInf:
		return "Linf"
	default:
		return "L?"
	}
}

// Accumulate adds one per-attribute distance d into a running accumulator
// acc and returns the new accumulator. Finish converts the accumulator to
// the final distance. Splitting the fold this way lets hot loops aggregate
// without allocating a slice.
func (n Norm) Accumulate(acc, d float64) float64 {
	switch n {
	case L1:
		return acc + d
	case LInf:
		return math.Max(acc, d)
	default:
		return acc + d*d
	}
}

// Finish converts a running accumulator produced by Accumulate into the
// final aggregated distance.
func (n Norm) Finish(acc float64) float64 {
	if n == L2 {
		return math.Sqrt(acc)
	}
	return acc
}
