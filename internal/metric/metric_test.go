package metric

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"RH10-OAG", "RH10-0AG", 1},
		{"日本語", "日本", 1}, // rune-based, not byte-based
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestLevenshteinASCIIPath pins the bit-parallel DP that serves ASCII
// pairs against the lossless rune DP, on both sides of its 64-byte limit
// on the shorter string and across pairs where only one side is ASCII,
// and checks that a short ASCII pair allocates nothing.
func TestLevenshteinASCIIPath(t *testing.T) {
	long := strings.Repeat("abcdefghij", 9) // 90 bytes
	rng := rand.New(rand.NewSource(11))
	randASCII := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(3))
		}
		return string(b)
	}
	cases := [][2]string{
		{"kitten", "sitting"},
		{"", "abc"},
		{"abc", ""},
		{long, long[:64]},
		{long[:64], long},
		{long[:65], long},
		{long, strings.Repeat("abcdefghik", 9)},
		{strings.Repeat("x", 64), strings.Repeat("y", 65)},
		{"cafe", "café"},
		{"caf\xe9", "cafe"},
		{"日本語", "abc"},
	}
	for n := 1; n <= 66; n++ {
		cases = append(cases, [2]string{randASCII(n), randASCII(rng.Intn(80))})
	}
	for _, c := range cases {
		want := float64(LevenshteinRunes(decodeLossless(c[0]), decodeLossless(c[1])))
		if got := Levenshtein(c[0], c[1]); got != want {
			t.Errorf("Levenshtein(%q, %q) = %v, rune DP %v", c[0], c[1], got, want)
		}
	}
	a, b := "main street 12", "mian st. 21"
	if allocs := testing.AllocsPerRun(20, func() { Levenshtein(a, b) }); allocs != 0 {
		t.Errorf("short ASCII Levenshtein allocates %.0f times, want 0", allocs)
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(8)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + rng.Intn(4)))
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStr(), randStr(), randStr()
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: d(%q,%q)=%v d(%q,%q)=%v", a, b, dab, b, a, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance d(%q,%q)=%v", a, b, dab)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("identity of indiscernibles violated for %q,%q: %v", a, b, dab)
		}
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		if dab > dac+dcb+1e-12 {
			t.Fatalf("triangle inequality violated: d(%q,%q)=%v > d(%q,%q)+d(%q,%q)=%v",
				a, b, dab, a, c, c, b, dac+dcb)
		}
	}
}

func TestNeedlemanWunschConfusables(t *testing.T) {
	// Letter O vs digit 0 should be cheaper than an arbitrary substitution.
	close := NeedlemanWunsch("RH10-OAG", "RH10-0AG")
	far := NeedlemanWunsch("RH10-XAG", "RH10-0AG")
	if close >= far {
		t.Errorf("confusable substitution %v should cost less than arbitrary %v", close, far)
	}
	if close != SubCloseCost {
		t.Errorf("single confusable substitution = %v, want %v", close, SubCloseCost)
	}
	if got := NeedlemanWunsch("abc", "abc"); got != 0 {
		t.Errorf("identical strings: got %v, want 0", got)
	}
	if got := NeedlemanWunsch("", "ab"); got != 2 {
		t.Errorf("gap cost: got %v, want 2", got)
	}
}

func TestNeedlemanWunschMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []rune{'0', 'O', '1', 'l', 'a', 'b'}
	randStr := func() string {
		n := rng.Intn(6)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStr(), randStr(), randStr()
		dab := NeedlemanWunsch(a, b)
		if dab != NeedlemanWunsch(b, a) {
			t.Fatalf("NW symmetry violated for %q,%q", a, b)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("NW identity violated for %q,%q: %v", a, b, dab)
		}
		if dab > NeedlemanWunsch(a, c)+NeedlemanWunsch(c, b)+1e-9 {
			t.Fatalf("NW triangle violated for %q,%q via %q", a, b, c)
		}
	}
}

func TestNGramSimilarity(t *testing.T) {
	if got := NGramSimilarity("abc", "abc", 2); got != 1 {
		t.Errorf("identical: got %v, want 1", got)
	}
	if got := NGramSimilarity("", "", 2); got != 1 {
		t.Errorf("both empty: got %v, want 1", got)
	}
	if got := NGramSimilarity("abc", "", 2); got != 0 {
		t.Errorf("one empty: got %v, want 0", got)
	}
	s1 := NGramSimilarity("restaurant", "restaurant", 2)
	s2 := NGramSimilarity("restaurant", "restauran", 2)
	s3 := NGramSimilarity("restaurant", "xyzw", 2)
	if !(s1 > s2 && s2 > s3) {
		t.Errorf("ordering violated: %v %v %v", s1, s2, s3)
	}
	if s3 != 0 {
		t.Errorf("disjoint strings should score 0, got %v", s3)
	}
	// Invalid n falls back to bigrams.
	if got := NGramSimilarity("ab", "ab", 0); got != 1 {
		t.Errorf("n=0 fallback: got %v", got)
	}
}

// Aggregate folds the per-attribute distances ds into a single distance.
// All three norms preserve the metric axioms of the inputs and are monotone
// in the attribute set, as required by the bounds in §3 of the paper.
func (n Norm) Aggregate(ds []float64) float64 {
	switch n {
	case L1:
		s := 0.0
		for _, d := range ds {
			s += d
		}
		return s
	case LInf:
		m := 0.0
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		return m
	default:
		s := 0.0
		for _, d := range ds {
			s += d * d
		}
		return math.Sqrt(s)
	}
}

func TestNormAggregate(t *testing.T) {
	ds := []float64{3, 4}
	if got := L2.Aggregate(ds); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2: got %v, want 5", got)
	}
	if got := L1.Aggregate(ds); got != 7 {
		t.Errorf("L1: got %v, want 7", got)
	}
	if got := LInf.Aggregate(ds); got != 4 {
		t.Errorf("Linf: got %v, want 4", got)
	}
	if got := L2.Aggregate(nil); got != 0 {
		t.Errorf("empty L2: got %v, want 0", got)
	}
}

func TestNormAccumulateMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, norm := range []Norm{L1, L2, LInf} {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(6)
			ds := make([]float64, n)
			for i := range ds {
				ds[i] = rng.Float64() * 10
			}
			acc := 0.0
			for _, d := range ds {
				acc = norm.Accumulate(acc, d)
			}
			got := norm.Finish(acc)
			want := norm.Aggregate(ds)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v: incremental %v != aggregate %v for %v", norm, got, want, ds)
			}
		}
	}
}

func TestNormMonotonicity(t *testing.T) {
	// Adding an attribute can only grow the aggregate (paper §2.1.1).
	rng := rand.New(rand.NewSource(5))
	for _, norm := range []Norm{L1, L2, LInf} {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(5)
			ds := make([]float64, n)
			for i := range ds {
				ds[i] = rng.Float64() * 3
			}
			sub := norm.Aggregate(ds[:n-1])
			full := norm.Aggregate(ds)
			if sub > full+1e-12 {
				t.Fatalf("%v monotonicity violated: %v > %v", norm, sub, full)
			}
		}
	}
}

func TestNormString(t *testing.T) {
	if L2.String() != "L2" || L1.String() != "L1" || LInf.String() != "Linf" {
		t.Error("unexpected norm names")
	}
	if Norm(99).String() != "L?" {
		t.Error("unknown norm should print L?")
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	a, s := "international conference", "intermational conferense"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(a, s)
	}
}

func BenchmarkNGramSimilarity(b *testing.B) {
	a, s := "arnie morton's of chicago", "arnie morton's"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NGramSimilarity(a, s, 2)
	}
}
