package data

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metric"
)

// halfNW is a custom text metric for the differential tests: a scaled
// Needleman–Wunsch, which preserves the metric axioms (identity in
// particular — the kernel's identical-ID fast path relies on it).
func halfNW(a, b string) float64 { return metric.NeedlemanWunsch(a, b) / 2 }

// kernelTestRelation builds a random mixed relation exercising every
// compilation case: numeric and text kinds, zero/fractional/large
// scales, nil (→ Levenshtein), library, and custom text metrics, plus
// repeated strings so interning and the pair cache see shared IDs.
func kernelTestRelation(rng *rand.Rand, norm metric.Norm, n int) *Relation {
	words := []string{"", "a", "ab", "abc", "kitten", "sitting", "golden dragon", "golden drag0n", "chicago", "chicagoo"}
	sch := &Schema{Norm: norm, Attrs: []Attribute{
		{Name: "n0", Kind: Numeric},
		{Name: "n1", Kind: Numeric, Scale: 0.5},
		{Name: "n2", Kind: Numeric, Scale: 4},
		{Name: "t0", Kind: Text},                               // nil → Levenshtein
		{Name: "t1", Kind: Text, Text: metric.NeedlemanWunsch}, // library metric
		{Name: "t2", Kind: Text, Text: halfNW, Scale: 2},       // custom + scale
	}}
	r := NewRelation(sch)
	for i := 0; i < n; i++ {
		r.Append(Tuple{
			Num(rng.NormFloat64() * 10),
			Num(rng.NormFloat64()),
			Num(float64(rng.Intn(20))),
			Str(words[rng.Intn(len(words))]),
			Str(words[rng.Intn(len(words))]),
			Str(words[rng.Intn(len(words))]),
		})
	}
	return r
}

// TestKernelDifferential proves the kernel's row-to-row entry points are
// bit-identical to the scalar Schema path across norms, kinds, scales,
// and text metrics, and that DistLE's accept/abort decision is exactly
// the scalar `Dist ≤ eps` comparison — including eps values sitting
// exactly on a pairwise distance.
func TestKernelDifferential(t *testing.T) {
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		t.Run(norm.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(norm) + 1))
			r := kernelTestRelation(rng, norm, 60)
			sch := r.Schema
			k := CompileKernel(r)
			m := sch.M()
			for trial := 0; trial < 2000; trial++ {
				i, j := rng.Intn(r.N()), rng.Intn(r.N())
				want := sch.Dist(r.Tuples[i], r.Tuples[j])
				if got := k.Dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dist(%d,%d) = %v, scalar %v", i, j, got, want)
				}
				x := AttrMask(rng.Intn(1 << m))
				wantX := sch.DistOn(r.Tuples[i], r.Tuples[j], x)
				if gotX := k.DistX(i, j, x); math.Float64bits(gotX) != math.Float64bits(wantX) {
					t.Fatalf("DistX(%d,%d,%b) = %v, scalar DistOn %v", i, j, x, gotX, wantX)
				}
				a := rng.Intn(m)
				wantA := sch.AttrDist(a, r.Tuples[i][a], r.Tuples[j][a])
				if gotA := k.AttrDist(a, i, j); math.Float64bits(gotA) != math.Float64bits(wantA) {
					t.Fatalf("AttrDist(%d,%d,%d) = %v, scalar %v", a, i, j, gotA, wantA)
				}
				// eps on, just below, just above, and away from the true
				// distance: the decision must match the scalar comparison.
				for _, eps := range []float64{
					want,
					math.Nextafter(want, math.Inf(-1)),
					math.Nextafter(want, math.Inf(1)),
					want / 2, want * 2, 0, math.Inf(1),
				} {
					d, within := k.DistLE(i, j, eps)
					if within != (want <= eps) {
						t.Fatalf("DistLE(%d,%d,%v) within=%v, scalar %v ≤ eps is %v", i, j, eps, within, want, want <= eps)
					}
					if within && math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("DistLE(%d,%d,%v) d=%v, scalar %v", i, j, eps, d, want)
					}
				}
			}
		})
	}
}

// TestKernelQueryDifferential proves the bound-query entry points are
// bit-identical to the scalar path both for query tuples drawn from the
// relation (interned IDs, shared pair cache) and for foreign tuples
// whose strings are absent from the dictionaries (query-local memo) —
// the outlier-under-repair case.
func TestKernelQueryDifferential(t *testing.T) {
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		t.Run(norm.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(norm) + 101))
			r := kernelTestRelation(rng, norm, 50)
			sch := r.Schema
			k := CompileKernel(r)
			m := sch.M()
			foreign := Tuple{
				Num(3.25), Num(-1.5), Num(7),
				Str("not-in-dictionary"), Str("golden  dragon"), Str("zzz"),
			}
			for trial := 0; trial < 400; trial++ {
				var qt Tuple
				if trial%2 == 0 {
					qt = r.Tuples[rng.Intn(r.N())]
				} else {
					qt = foreign
				}
				q := k.Bind(qt)
				bounds := map[float64]float64{}
				for _, j := range rng.Perm(r.N())[:20] {
					want := sch.Dist(qt, r.Tuples[j])
					if got := q.DistTo(j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("DistTo(%d) = %v, scalar %v", j, got, want)
					}
					x := AttrMask(rng.Intn(1 << m))
					wantX := sch.DistOn(qt, r.Tuples[j], x)
					if gotX := q.DistToX(j, x); math.Float64bits(gotX) != math.Float64bits(wantX) {
						t.Fatalf("DistToX(%d,%b) = %v, scalar %v", j, x, gotX, wantX)
					}
					a := rng.Intn(m)
					wantA := sch.AttrDist(a, qt[a], r.Tuples[j][a])
					if gotA := q.AttrDist(a, j); math.Float64bits(gotA) != math.Float64bits(wantA) {
						t.Fatalf("AttrDist(%d,%d) = %v, scalar %v", a, j, gotA, wantA)
					}
					for _, eps := range []float64{want, math.Nextafter(want, math.Inf(-1)), want / 2, math.Inf(1)} {
						bound, ok := bounds[eps]
						if !ok {
							bound = LEBound(sch.Norm, eps)
							bounds[eps] = bound
						}
						d, within := q.DistToLE(j, bound)
						if within != (want <= eps) {
							t.Fatalf("DistToLE(%d, eps=%v) within=%v, scalar wants %v", j, eps, within, want <= eps)
						}
						if within && math.Float64bits(d) != math.Float64bits(want) {
							t.Fatalf("DistToLE(%d, eps=%v) d=%v, scalar %v", j, eps, d, want)
						}
					}
				}
				q.Release()
			}
		})
	}
}

// TestLEBound checks the early-exit threshold invariant directly: for
// any eps, acc ≤ LEBound(norm, eps) exactly when Finish(acc) ≤ eps.
func TestLEBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		for trial := 0; trial < 20000; trial++ {
			eps := math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(9)-4))
			if trial%17 == 0 {
				eps = 0
			}
			bound := LEBound(norm, eps)
			acc := math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(9)-4))
			if trial%5 == 0 {
				// Probe right at the boundary.
				acc = bound
			} else if trial%5 == 1 {
				acc = math.Nextafter(bound, math.Inf(1))
			}
			if got, want := acc <= bound, norm.Finish(acc) <= eps; got != want {
				t.Fatalf("norm %v eps %v acc %v: acc≤bound=%v but Finish(acc)≤eps=%v (bound %v)",
					norm, eps, acc, got, want, bound)
			}
		}
		// Degenerate eps values must not loop or mis-decide.
		for _, eps := range []float64{math.Inf(1), -1, 0, math.MaxFloat64, 1e200} {
			bound := LEBound(norm, eps)
			for _, acc := range []float64{0, 1, math.MaxFloat64, math.Inf(1)} {
				if got, want := acc <= bound, norm.Finish(acc) <= eps; got != want {
					t.Fatalf("norm %v eps %v acc %v: acc≤bound=%v but Finish(acc)≤eps=%v", norm, eps, acc, got, want)
				}
			}
		}
	}
}

// countingDist wraps a metric and counts evaluations; used to prove the
// at-most-once-per-distinct-pair cache guarantee.
type countingDist struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingDist) dist(a, b string) float64 {
	c.mu.Lock()
	key := a + "\x00" + b
	if b < a {
		key = b + "\x00" + a
	}
	c.calls[key]++
	c.mu.Unlock()
	return metric.Levenshtein(a, b)
}

// TestKernelCacheInvariants checks the pair cache's contract: symmetry
// (Dist(i,j) == Dist(j,i) served from one entry), the zero fast path on
// identical IDs without a metric call, and at most one underlying
// metric evaluation per distinct unordered string pair even under
// concurrent queries.
func TestKernelCacheInvariants(t *testing.T) {
	cd := &countingDist{calls: make(map[string]int)}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	sch := &Schema{Attrs: []Attribute{{Name: "t", Kind: Text, Text: cd.dist}}}
	r := NewRelation(sch)
	for i := 0; i < 200; i++ {
		r.Append(Tuple{Str(words[i%len(words)])})
	}
	k := CompileKernel(r)

	// Identical IDs: zero without consulting the metric.
	if d := k.Dist(0, len(words)); d != 0 {
		t.Fatalf("identical-ID distance = %v, want 0", d)
	}
	if len(cd.calls) != 0 {
		t.Fatalf("identical-ID fast path called the metric: %v", cd.calls)
	}

	// Symmetry from a single cache entry.
	d01, d10 := k.Dist(0, 1), k.Dist(1, 0)
	if math.Float64bits(d01) != math.Float64bits(d10) {
		t.Fatalf("asymmetric cached distance: %v vs %v", d01, d10)
	}
	if got := cd.calls["alpha\x00beta"]; got != 1 {
		t.Fatalf("alpha/beta evaluated %d times, want 1", got)
	}

	// Hammer all pairs from several goroutines; every distinct unordered
	// pair must be evaluated at most once overall (the dense cache's
	// benign same-value store race never double-counts a *different*
	// value, though a near-simultaneous first touch may recompute — so
	// allow a small bounded slack only across goroutine races).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			q := k.Bind(r.Tuples[rng.Intn(r.N())])
			defer q.Release()
			for trial := 0; trial < 2000; trial++ {
				i, j := rng.Intn(r.N()), rng.Intn(r.N())
				k.Dist(i, j)
				q.DistTo(j)
			}
		}(int64(g))
	}
	wg.Wait()
	distinct := len(words) * (len(words) - 1) / 2
	total := 0
	for pair, n := range cd.calls {
		total += n
		// A pair may be computed once per racing goroutine at worst.
		if n > 4 {
			t.Fatalf("pair %q evaluated %d times", pair, n)
		}
	}
	if len(cd.calls) > distinct {
		t.Fatalf("%d distinct pairs evaluated, want ≤ %d", len(cd.calls), distinct)
	}
	if total > 4*distinct {
		t.Fatalf("%d total metric calls for %d distinct pairs", total, distinct)
	}
}

// TestKernelQueryMemo checks the query-local memo for strings absent
// from the dictionary: one evaluation per distinct dictionary entry per
// bound query, and counters that account for every text comparison.
func TestKernelQueryMemo(t *testing.T) {
	cd := &countingDist{calls: make(map[string]int)}
	words := []string{"alpha", "beta", "gamma"}
	sch := &Schema{Attrs: []Attribute{{Name: "t", Kind: Text, Text: cd.dist}}}
	r := NewRelation(sch)
	for i := 0; i < 90; i++ {
		r.Append(Tuple{Str(words[i%len(words)])})
	}
	k := CompileKernel(r)
	q := k.Bind(Tuple{Str("foreign")})
	for j := 0; j < r.N(); j++ {
		q.DistTo(j)
	}
	if len(cd.calls) != len(words) {
		t.Fatalf("foreign query evaluated %d pairs, want %d (one per dictionary entry)", len(cd.calls), len(words))
	}
	if q.TextCacheMisses != int64(len(words)) {
		t.Fatalf("TextCacheMisses = %d, want %d", q.TextCacheMisses, len(words))
	}
	if q.TextCacheHits != int64(r.N()-len(words)) {
		t.Fatalf("TextCacheHits = %d, want %d", q.TextCacheHits, r.N()-len(words))
	}
	q.Release()

	// Rebinding the pooled query must invalidate the memo.
	q2 := k.Bind(Tuple{Str("other")})
	q2.DistTo(0)
	if got := cd.calls["alpha\x00other"]; got != 1 {
		t.Fatalf("rebound query reused a stale memo entry (calls=%v)", cd.calls)
	}
	q2.Release()
}

// TestKernelQueryEvals pins the query's pair-evaluation tally, the
// currency of every index counter: one per DistTo or DistToLE call on
// every path (all-numeric rows, text columns, the non-L2 DistToX route,
// early exits), nothing for DistToX or AttrDist, and zero after Bind.
func TestKernelQueryEvals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		mixed := kernelTestRelation(rng, norm, 30)
		numeric := NewRelation(&Schema{Norm: norm, Attrs: mixed.Schema.Attrs[:3]})
		for _, tp := range mixed.Tuples {
			numeric.Append(tp[:3])
		}
		for _, r := range []*Relation{mixed, numeric} {
			k := CompileKernel(r)
			q := k.Bind(r.Tuples[0])
			bound := LEBound(norm, 1)
			for j := 0; j < r.N(); j++ {
				q.DistTo(j)
				q.DistToLE(j, bound)
				q.DistToX(j, FullMask(r.Schema.M()))
				q.AttrDist(0, j)
			}
			if want := int64(2 * r.N()); q.Evals != want {
				t.Errorf("%v, m=%d: Evals = %d, want %d", norm, r.Schema.M(), q.Evals, want)
			}
			q.Release()
			if q = k.Bind(r.Tuples[1]); q.Evals != 0 {
				t.Errorf("%v, m=%d: Bind left Evals = %d", norm, r.Schema.M(), q.Evals)
			}
			q.Release()
		}
	}
}

// TestKernelBindAllocFree checks that steady-state Bind/Release cycles
// and query evaluation do not allocate — the saver's alloc budget (0 on a
// natural outlier, 1 on a saved one) depends on it.
func TestKernelBindAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := kernelTestRelation(rng, metric.L2, 40)
	k := CompileKernel(r)
	qt := r.Tuples[5]
	bound := LEBound(metric.L2, 2.5)
	// Warm the pool and the caches.
	q := k.Bind(qt)
	for j := 0; j < r.N(); j++ {
		q.DistTo(j)
	}
	q.Release()
	allocs := testing.AllocsPerRun(100, func() {
		q := k.Bind(qt)
		for j := 0; j < r.N(); j++ {
			q.DistToLE(j, bound)
		}
		q.Release()
	})
	// 0 in normal builds; the race detector's sync.Pool drops items, so a
	// dropped query re-materializes (struct + a few scratch slices).
	if allocs > 12 {
		t.Fatalf("bind+scan allocates %v per run, want 0 (pool broken?)", allocs)
	}
}

// TestKernelShardedCache forces the sharded-map fallback (dictionary too
// large for the dense triangle) and re-checks the differential and
// concurrency properties on that path.
func TestKernelShardedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sch := &Schema{Attrs: []Attribute{{Name: "t", Kind: Text}}}
	r := NewRelation(sch)
	n := 2600 // D(D+1)/2 > 2^21 ⇒ sharded path
	for i := 0; i < n; i++ {
		r.Append(Tuple{Str(fmt.Sprintf("s-%d-%d", i, rng.Intn(10)))})
	}
	k := CompileKernel(r)
	if k.attrs[0].dense != nil {
		t.Fatalf("expected sharded cache for %d distinct strings", len(k.attrs[0].dict))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 300; trial++ {
				i, j := rng.Intn(n), rng.Intn(n)
				want := sch.Dist(r.Tuples[i], r.Tuples[j])
				if got := k.Dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("sharded Dist(%d,%d) = %v, scalar %v", i, j, got, want)
					return
				}
				// Second read must hit the cache and agree.
				if got := k.Dist(j, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("sharded Dist(%d,%d) cache readback = %v, want %v", j, i, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestKernelProjection pins Project: over every subset of the test
// schema's columns, a projection's row-to-row, query and early-exit
// distances are bit-identical to Schema.DistOn over that subset, its
// queries bind full-width tuples, and rows appended to the compiled
// kernel afterwards are visible through it (nothing was copied).
func TestKernelProjection(t *testing.T) {
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		t.Run(norm.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(norm) + 7))
			r := kernelTestRelation(rng, norm, 40)
			sch := r.Schema
			k := CompileKernel(r)
			m := sch.M()
			var projs []*Kernel
			var masks []AttrMask
			for x := AttrMask(1); x <= FullMask(m); x++ {
				var cols []int
				for a := 0; a < m; a++ {
					if x.Has(a) {
						cols = append(cols, a)
					}
				}
				projs = append(projs, k.Project(cols))
				masks = append(masks, x)
			}
			// Grow the relation after projecting: the projections must see
			// the new rows through the compiled kernel.
			extra := kernelTestRelation(rng, norm, 10)
			for _, tp := range extra.Tuples {
				r.Append(tp)
				k.AppendRow(tp)
			}
			queries := kernelTestRelation(rng, norm, 5).Tuples
			for p, pk := range projs {
				x := masks[p]
				if pk.N() != r.N() || pk.M() != x.Count() {
					t.Fatalf("projection %b: N=%d M=%d, want %d and %d", x, pk.N(), pk.M(), r.N(), x.Count())
				}
				for trial := 0; trial < 40; trial++ {
					i, j := rng.Intn(r.N()), rng.Intn(r.N())
					if got, want := pk.Dist(i, j), sch.DistOn(r.Tuples[i], r.Tuples[j], x); got != want {
						t.Fatalf("projection %b Dist(%d,%d) = %v, DistOn %v", x, i, j, got, want)
					}
				}
				for _, q := range queries {
					kq := pk.Bind(q)
					for j := 0; j < r.N(); j++ {
						want := sch.DistOn(q, r.Tuples[j], x)
						if got := kq.DistTo(j); got != want {
							t.Fatalf("projection %b DistTo(%d) = %v, DistOn %v", x, j, got, want)
						}
						if d, within := kq.DistToLE(j, LEBound(norm, want)); !within || d != want {
							t.Fatalf("projection %b DistToLE(%d) at its own distance = (%v, %t), want (%v, true)", x, j, d, within, want)
						}
					}
					kq.Release()
				}
			}
			defer func() {
				if recover() == nil {
					t.Fatal("AppendRow on a projection did not panic")
				}
			}()
			projs[0].AppendRow(r.Tuples[0])
		})
	}
}
