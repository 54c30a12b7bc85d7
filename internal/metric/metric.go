// Package metric provides the per-attribute distance functions and the
// multi-attribute aggregation norms used by the DISC distance constraints
// (paper §2.1.1). Every per-attribute function satisfies the four metric
// axioms: non-negativity, identity of indiscernibles, symmetry, and the
// triangle inequality. Aggregations over attribute sets additionally satisfy
// monotonicity: Δ(t1[X], t2[X]) ≤ Δ(t1[X∪{A}], t2[X∪{A}]).
package metric

import (
	"math"
	"unicode/utf8"
)

// AbsDiff is the absolute-difference distance for numeric values.
func AbsDiff(a, b float64) float64 {
	return math.Abs(a - b)
}

// ScaledAbsDiff returns a numeric distance function that divides the
// absolute difference by scale. A scale ≤ 0 is treated as 1. Scaling keeps
// heterogeneous attributes (e.g. timestamps vs. coordinates) comparable
// inside one Lp aggregate, as in the GPS example of the paper (Figure 2).
func ScaledAbsDiff(scale float64) func(a, b float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	inv := 1 / scale
	return func(a, b float64) float64 {
		return math.Abs(a-b) * inv
	}
}

// StringDistance is a distance function over text attribute values.
type StringDistance func(a, b string) float64

// Levenshtein returns the unit-cost edit distance between a and b
// (insertions, deletions, substitutions each cost 1). It is the default
// distance for textual attributes and the discrete metric referenced by
// Proposition 7 of the paper (unit distance values). Strings are decoded
// losslessly: invalid UTF-8 bytes map to distinct surrogate-range
// sentinels (the PEP 383 trick) instead of collapsing onto U+FFFD, so the
// metric axioms hold over arbitrary byte strings.
func Levenshtein(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		if len(a) > len(b) {
			a, b = b, a
		}
		if len(a) <= 64 {
			return float64(levenshteinBits(a, b))
		}
	}
	return float64(LevenshteinRunes(decodeLossless(a), decodeLossless(b)))
}

// isASCII reports whether every byte of s is below 0x80, so that s decodes
// to one rune per byte.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// levenshteinBits is the edit distance between two ASCII strings, the
// shorter one (a) at most 64 bytes, by Myers' bit-parallel algorithm in
// Hyyrö's edit-distance form. Bit i of pv (mv) says that D[i+1][j] −
// D[i][j] is +1 (−1) in the current DP column, so each byte of b advances
// the whole column in a few word operations; bits above len(a) never
// reach lower ones (carries and shifts only move upward). The lossless
// decoding of an ASCII string is its bytes, so the result equals
// LevenshteinRunes exactly, and it allocates nothing.
func levenshteinBits(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	var peq [utf8.RuneSelf]uint64 // peq[c]: positions of byte c in a
	for i := 0; i < len(a); i++ {
		peq[a[i]] |= 1 << uint(i)
	}
	last := uint64(1) << uint(len(a)-1)
	pv, mv := ^uint64(0), uint64(0)
	dist := len(a)
	for j := 0; j < len(b); j++ {
		eq := peq[b[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			dist++
		} else if mh&last != 0 {
			dist--
		}
		ph = ph<<1 | 1 // row 0 is D[0][j] = j: every horizontal step is +1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return dist
}

// decodeLossless converts a string to runes, mapping each invalid UTF-8
// byte x to the distinct sentinel rune 0xDC00+x. The mapping is injective
// over all byte strings, so rune-level distances remain metrics.
func decodeLossless(s string) []rune {
	out := make([]rune, 0, len(s))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			out = append(out, rune(0xDC00+int(s[i])))
			i++
			continue
		}
		out = append(out, r)
		i += size
	}
	return out
}

// LevenshteinRunes computes the unit-cost edit distance over rune slices.
func LevenshteinRunes(a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Single-row dynamic program.
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := prev[0]
		prev[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			next := min3(prev[j]+1, prev[j-1]+1, cur+cost)
			cur = prev[j]
			prev[j] = next
		}
	}
	return prev[len(b)]
}

// NeedlemanWunsch returns an alignment-based distance in which visually or
// semantically close characters substitute at a reduced cost, following the
// Needleman–Wunsch measure cited by the paper for typo repair (e.g. letter
// 'O' vs digit '0' in RH10-OAG → RH10-0AG). Gap cost is 1; substitutions
// between confusable character pairs cost SubCloseCost, all others cost 1.
func NeedlemanWunsch(a, b string) float64 {
	ra, rb := decodeLossless(a), decodeLossless(b)
	if len(ra) == 0 {
		return float64(len(rb))
	}
	if len(rb) == 0 {
		return float64(len(ra))
	}
	prev := make([]float64, len(rb)+1)
	for j := range prev {
		prev[j] = float64(j)
	}
	for i := 1; i <= len(ra); i++ {
		cur := prev[0]
		prev[0] = float64(i)
		for j := 1; j <= len(rb); j++ {
			next := math.Min(prev[j]+1, prev[j-1]+1)
			next = math.Min(next, cur+subCost(ra[i-1], rb[j-1]))
			cur = prev[j]
			prev[j] = next
		}
	}
	return prev[len(rb)]
}

// SubCloseCost is the substitution cost between confusable characters under
// the Needleman–Wunsch measure. It must stay in (0, 1] to preserve the
// triangle inequality together with unit gap costs.
const SubCloseCost = 0.5

// confusable holds symmetric pairs of characters that substitute cheaply.
var confusable = map[[2]rune]bool{
	{'0', 'O'}: true, {'0', 'o'}: true,
	{'1', 'l'}: true, {'1', 'I'}: true,
	{'5', 'S'}: true, {'5', 's'}: true,
	{'8', 'B'}: true,
	{'2', 'Z'}: true, {'2', 'z'}: true,
	{'6', 'G'}: true,
	{'9', 'g'}: true, {'9', 'q'}: true,
	{'u', 'v'}: true, {'U', 'V'}: true,
	{'m', 'n'}: true,
}

func subCost(x, y rune) float64 {
	if x == y {
		return 0
	}
	if confusable[[2]rune{x, y}] || confusable[[2]rune{y, x}] {
		return SubCloseCost
	}
	return 1
}

// NGramSimilarity returns the normalized n-gram similarity of a and b in
// [0, 1]: the Dice coefficient over padded n-gram multisets. It is the
// similarity used by the rule-based record matcher (paper §4.1.3) with
// threshold 0.7. Identical strings score 1; disjoint strings score 0.
func NGramSimilarity(a, b string, n int) float64 {
	if n < 1 {
		n = 2
	}
	if a == b {
		return 1
	}
	ga, gb := ngrams(a, n), ngrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	counts := make(map[string]int, len(ga))
	for _, g := range ga {
		counts[g]++
	}
	common := 0
	for _, g := range gb {
		if counts[g] > 0 {
			counts[g]--
			common++
		}
	}
	return 2 * float64(common) / float64(len(ga)+len(gb))
}

// NGramDistance is 1 − NGramSimilarity; it is symmetric and non-negative
// (a pseudo-metric used only by the matcher, never by the DISC bounds).
func NGramDistance(a, b string, n int) float64 {
	return 1 - NGramSimilarity(a, b, n)
}

func ngrams(s string, n int) []string {
	r := decodeLossless(s)
	if len(r) == 0 {
		return nil
	}
	// Pad with n−1 sentinels on each side so short strings still produce
	// position-sensitive grams.
	pad := make([]rune, 0, len(r)+2*(n-1))
	for i := 0; i < n-1; i++ {
		pad = append(pad, '\x01')
	}
	pad = append(pad, r...)
	for i := 0; i < n-1; i++ {
		pad = append(pad, '\x02')
	}
	out := make([]string, 0, len(pad)-n+1)
	for i := 0; i+n <= len(pad); i++ {
		out = append(out, string(pad[i:i+n]))
	}
	return out
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
