package data

import (
	"sync"
	"testing"
)

// Per-evaluation cost of the compiled distance kernel: one op is one
// distance, so ns/op reads as ns per evaluation. Three legs cover the
// three paths a distance takes: the numeric row path (Table 1 Letter at
// 0.3, m = 16, all numeric), mixed rows whose text pairs all hit the
// pair cache, and a bound query whose strings are outside the
// dictionary, so every text pair is computed once per bind.
//
//	go test -run '^$' -bench BenchmarkKernelDist -benchmem ./internal/data

var kernelBenchSink float64

var kernelBench struct {
	once          sync.Once
	letter, mixed *Relation
	err           error
}

// kernelBenchRelations builds both inputs once per process. The mixed
// relation is serve-mixed-rw's: GenMixed at 4,000 rows, 3,200 entities.
func kernelBenchRelations(b *testing.B) (letter, mixed *Relation) {
	b.Helper()
	kernelBench.once.Do(func() {
		ds, err := Table1("Letter", 0.3, 1)
		if err != nil {
			kernelBench.err = err
			return
		}
		kernelBench.letter = ds.Rel
		ds, err = GenMixed(MixedSpec{Name: "kernel-bench", N: 4000, Entities: 3200,
			DirtyFrac: 0.05, Eps: 2, Eta: 3, Seed: 1})
		if err != nil {
			kernelBench.err = err
			return
		}
		kernelBench.mixed = ds.Rel
	})
	if kernelBench.err != nil {
		b.Fatal(kernelBench.err)
	}
	return kernelBench.letter, kernelBench.mixed
}

// benchKernelDist times Kernel.Dist over the n pairs (i, i+n/2 mod n),
// cycled. One untimed pass over the pairs first fills the pair cache, so
// every text pair the timed loop meets is a hit.
func benchKernelDist(b *testing.B, rel *Relation) {
	k := CompileKernel(rel)
	n := k.N()
	for i := 0; i < n; i++ {
		kernelBenchSink = k.Dist(i, (i+n/2)%n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	i, j := 0, n/2
	for it := 0; it < b.N; it++ {
		kernelBenchSink = k.Dist(i, j)
		if i++; i == n {
			i = 0
		}
		if j++; j == n {
			j = 0
		}
	}
}

func BenchmarkKernelDistNumeric(b *testing.B) {
	letter, _ := kernelBenchRelations(b)
	benchKernelDist(b, letter)
}

func BenchmarkKernelDistTextHit(b *testing.B) {
	_, mixed := kernelBenchRelations(b)
	benchKernelDist(b, mixed)
}

// BenchmarkKernelDistTextMiss binds a tuple whose strings are outside
// the dictionary, then calls DistTo on each row once; the query is
// re-bound after every full pass, which clears its memo, so each pass
// evaluates the text metric once per distinct dictionary entry again.
func BenchmarkKernelDistTextMiss(b *testing.B) {
	_, mixed := kernelBenchRelations(b)
	k := CompileKernel(mixed)
	probe := mixed.Tuples[0].Clone()
	for a, at := range mixed.Schema.Attrs {
		if at.Kind == Text {
			probe[a] = Str(probe[a].Str + " (moved)")
		}
	}
	q := k.Bind(probe)
	for a, at := range mixed.Schema.Attrs {
		if at.Kind == Text && q.attrs[a].id >= 0 {
			b.Fatalf("probe string %q is in the dictionary", probe[a].Str)
		}
	}
	n := k.N()
	b.ReportAllocs()
	b.ResetTimer()
	j := 0
	for it := 0; it < b.N; it++ {
		kernelBenchSink = q.DistTo(j)
		if j++; j == n {
			j = 0
			q.Release()
			q = k.Bind(probe)
		}
	}
	q.Release()
}
