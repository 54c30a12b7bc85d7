package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// TestDBSCANScratchReuse pins the allocation contract of the clustering
// pass: each worker's range queries reuse one scratch buffer via
// WithinBuf, and the neighbor ids of tuples that are not core go into one
// buffer per worker, so a whole pass costs a small constant number of
// allocations (labels, the disjoint set, the worker buffers and their
// growth) instead of one slice per point. A pass that allocated per point
// over n=600 would cost well over 600 allocations; the budget below fails
// if per-point allocation ever sneaks back in. testing.AllocsPerRun runs
// at GOMAXPROCS 1, so the pass has one worker here.
func TestDBSCANScratchReuse(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x", "y", "z"))
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 600; i++ {
		c := float64(i % 5)
		rel.Append(data.Tuple{
			data.Num(c*10 + rng.NormFloat64()),
			data.Num(c*10 + rng.NormFloat64()),
			data.Num(rng.NormFloat64()),
		})
	}
	for name, idx := range map[string]neighbors.Index{
		"grid":   neighbors.NewGrid(rel, 2),
		"vptree": neighbors.NewVPTree(rel, 1),
	} {
		cfg := DBSCANConfig{Eps: 2, MinPts: 4, Index: idx}
		res := DBSCAN(rel, cfg) // warm buffers and caches
		if res.K == 0 {
			t.Fatalf("%s: expected clusters in the fixture", name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			DBSCAN(rel, cfg)
		})
		// Per run: labels, disjoint set, worker buffers and their growth.
		// 32 leaves headroom without ever re-admitting per-point slices. The
		// race detector's sync.Pool drops ~25% of released kernel queries,
		// so each run re-allocates a fraction of its n queries; the wider
		// budget still catches the old one-result-slice-per-point regime
		// (several allocations per visited point).
		budget := 32.0
		if raceDetector {
			budget += 2 * float64(rel.N())
		}
		if allocs > budget {
			t.Errorf("%s: DBSCAN allocates %.0f times per run, want ≤ %.0f", name, allocs, budget)
		}
	}
}
