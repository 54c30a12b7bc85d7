package metric

import (
	"math"
	"testing"
)

// FuzzLevenshteinMetric checks the metric axioms on arbitrary inputs
// (seed corpus runs under plain `go test`; `go test -fuzz` explores).
func FuzzLevenshteinMetric(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("日本語", "日本")
	f.Add("aaaa", "aa")
	f.Add("caf\xe9", "cafe")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 64 || len(b) > 64 {
			t.Skip()
		}
		dab := Levenshtein(a, b)
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		// The ASCII byte path must agree with the lossless rune DP.
		if want := float64(LevenshteinRunes(decodeLossless(a), decodeLossless(b))); dab != want {
			t.Fatalf("Levenshtein(%q, %q) = %v, rune DP %v", a, b, dab, want)
		}
		if dab != Levenshtein(b, a) {
			t.Fatalf("asymmetric for %q/%q", a, b)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("identity broken for %q/%q: %v", a, b, dab)
		}
		// Triangle via a fixed pivot.
		const c = "pivot"
		if dab > Levenshtein(a, c)+Levenshtein(c, b)+1e-9 {
			t.Fatalf("triangle broken for %q/%q", a, b)
		}
	})
}

// FuzzNGramSimilarityBounds checks the [0,1] range and identity.
func FuzzNGramSimilarityBounds(f *testing.F) {
	f.Add("restaurant", "restuarant")
	f.Add("", "")
	f.Add("a", "b")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 128 || len(b) > 128 {
			t.Skip()
		}
		s := NGramSimilarity(a, b, 2)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("similarity %v out of range for %q/%q", s, a, b)
		}
		if a == b && s != 1 {
			t.Fatalf("identical strings score %v", s)
		}
		if s != NGramSimilarity(b, a, 2) {
			t.Fatalf("asymmetric for %q/%q", a, b)
		}
	})
}
