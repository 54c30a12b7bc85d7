package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// FuzzSave drives Algorithm 1 over randomized small relations, norms,
// constraint settings, and budgets. Whatever the input, SaveOne must not
// panic, and every answer must be classifiable: a feasible adjustment
// (Proposition 5 — each intermediate answer is a real repair), a Natural
// flag from a search that ran to completion, or a best-so-far answer
// flagged Exhausted. A saved answer under the κ restriction adjusts at
// most κ attributes.
func FuzzSave(f *testing.F) {
	f.Add(int64(1), uint8(20), 1.0, uint8(3), uint8(0), uint8(0), uint8(metric.L2))
	f.Add(int64(2), uint8(8), 0.4, uint8(2), uint8(1), uint8(3), uint8(metric.L2))
	f.Add(int64(99), uint8(30), 2.5, uint8(5), uint8(2), uint8(1), uint8(metric.L2))
	f.Add(int64(-7), uint8(3), 0.05, uint8(9), uint8(4), uint8(200), uint8(metric.L2))
	// κ-restricted seeds, one per norm: each screens out part of r and
	// still saves the outlier.
	f.Add(int64(11), uint8(36), 3.0, uint8(2), uint8(1), uint8(0), uint8(metric.L1))
	f.Add(int64(12), uint8(33), 1.8, uint8(2), uint8(2), uint8(0), uint8(metric.L2))
	f.Add(int64(13), uint8(38), 0.6, uint8(2), uint8(2), uint8(0), uint8(metric.LInf))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64, eta, kappa, maxNodes, norm uint8) {
		size := 2 + int(n)%39 // 2..40 tuples
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 0.5
		}
		eps = math.Abs(math.Mod(eps, 4))
		if eps == 0 {
			eps = 0.5
		}
		m := 2 + size%3 // 2..4 attributes
		names := []string{"a", "b", "c", "d"}
		rng := rand.New(rand.NewSource(seed))
		sch := data.NewNumericSchema(names[:m]...)
		sch.Norm = metric.Norm(norm % 3)
		rel := data.NewRelation(sch)
		for i := 0; i < size; i++ {
			tp := make(data.Tuple, m)
			for a := range tp {
				tp[a] = data.Num(rng.Float64() * 2)
			}
			rel.Append(tp)
		}
		cons := Constraints{Eps: eps, Eta: 1 + int(eta)%size}
		opts := Options{Kappa: int(kappa) % (m + 1), MaxNodes: int(maxNodes)}
		s, err := NewSaverContext(context.Background(), rel, cons, opts)
		if err != nil {
			t.Skip()
		}
		outlier := make(data.Tuple, m)
		for a := range outlier {
			outlier[a] = data.Num(rng.Float64()*6 - 1)
		}
		adj := s.SaveOne(context.Background(), outlier)
		switch {
		case adj.Saved():
			if len(adj.Tuple) != m {
				t.Fatalf("adjustment has %d attributes, schema has %d", len(adj.Tuple), m)
			}
			if math.IsNaN(adj.Cost) || adj.Cost < 0 {
				t.Fatalf("adjustment cost %v", adj.Cost)
			}
			idx := neighbors.NewBrute(rel)
			if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
				t.Fatalf("adjustment has %d ε-neighbors, want ≥ %d (norm=%v eps=%v eta=%d kappa=%d maxNodes=%d)",
					got, cons.Eta, sch.Norm, eps, cons.Eta, opts.Kappa, opts.MaxNodes)
			}
			if opts.Kappa > 0 && opts.Kappa < m && adj.Adjusted.Count() > opts.Kappa {
				t.Fatalf("κ=%d answer adjusts %d attributes (norm=%v)", opts.Kappa, adj.Adjusted.Count(), sch.Norm)
			}
		case adj.Natural:
			if adj.Exhausted {
				t.Fatal("Natural set on an exhausted (incomplete) search")
			}
		case adj.Exhausted:
			// Budget tripped before any feasible position was found: allowed.
		default:
			t.Fatalf("unclassifiable answer: %+v", adj)
		}
	})
}
