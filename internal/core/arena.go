package core

import (
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// saveArena is the reusable scratch memory of one Algorithm 1 search. Every
// slice the hot path needs — the compact candidate tables, one candidate
// slab per recursion depth, the quickselect scratch, the κ screen's top-k
// buffer, the start-mask complement and the visited-X memo — lives here and
// is recycled across nodes and across outliers, so the steady-state
// recursion allocates nothing.
//
// Ownership is strictly single-threaded: SaveAllContext hands each worker
// its own arena (no sync needed), and the public SaveOne path draws one
// from a per-Saver sync.Pool. The depth-indexed slabs exploit the shape of
// the recursion: at any moment at most one node per depth |X| is on the
// stack, so the child candidate list for depth d+1 can always be built in
// slab d+1 without clobbering a live list.
type saveArena struct {
	st saveState // the per-outlier working set itself, reused

	// The compact candidate tables. On the κ path they have room for
	// every inlier but hold the screen's survivors only.
	ids   []int     // compact candidate ids
	attrD []float64 // per-attribute distance table
	fullD []float64 // full-space aggregates
	hot   []data.AttrMask
	coldD []float64 // κ path: aggregates over the terms ≤ ε

	// cand[d]/sub[d] back the candidate list and subspace aggregates of
	// the node with |X| = d currently on the recursion stack.
	cand [][]int
	sub  [][]float64

	qsel  []float64 // quickselectKth scratch
	top   []float64 // κ screen: the κ largest terms of the inlier being read
	compl []int     // forEachStartMask: the current κ-sized complement R\X

	visited map[data.AttrMask]struct{}

	// stats is this worker's counter shard: plain increments owned by the
	// save in flight, zeroed per save and copied into Adjustment.Stats at
	// the end — no atomics anywhere near the recursion.
	stats obs.SearchStats
	// nc receives the index-query counts of cidx and gidx, the counting
	// views of the saver's index and of its attribute-group indexes. The
	// views are built once per (arena, saver) pair — owner remembers which
	// saver they cover — so the steady state allocates nothing.
	nc    neighbors.Counters
	cidx  neighbors.Index
	gidx  []neighbors.Index
	owner *Saver

	// rows is candidateRows' bitset over the inlier rows; hits receives
	// one group query's ε-range answer.
	rows []uint64
	hits []neighbors.Neighbor
}

// reset prepares the arena for one save over a schema of m attributes.
func (ar *saveArena) reset(m int) {
	ar.stats = obs.SearchStats{}
	ar.nc.Reset()
	if len(ar.cand) < m+1 {
		ar.cand = append(ar.cand, make([][]int, m+1-len(ar.cand))...)
		ar.sub = append(ar.sub, make([][]float64, m+1-len(ar.sub))...)
	}
	if ar.visited == nil {
		ar.visited = make(map[data.AttrMask]struct{})
	} else {
		clear(ar.visited)
	}
}

// intsAt returns the empty depth-d int slab with capacity ≥ n.
func (ar *saveArena) intsAt(d, n int) []int {
	if cap(ar.cand[d]) < n {
		ar.cand[d] = make([]int, 0, n)
	}
	return ar.cand[d][:0]
}

// floatsAt returns the empty depth-d float slab with capacity ≥ n.
func (ar *saveArena) floatsAt(d, n int) []float64 {
	if cap(ar.sub[d]) < n {
		ar.sub[d] = make([]float64, 0, n)
	}
	return ar.sub[d][:0]
}

// grow returns buf resized to length n, reallocating only when the capacity
// is insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
