// Package shard is the horizontal scale-out subsystem: it splits a relation
// into S spatial shards by grid cell key with an ε-halo of replicated
// boundary tuples, and runs DISC detection and Algorithm 1 saves per shard
// so that the merged answers are bit-exact with the single-node path.
//
// The partition invariant is the whole correctness argument. Each tuple is
// OWNED by exactly one shard (the shard of its grid cell); a shard's halo
// additionally replicates every tuple owned elsewhere that could lie within
// ε of one of its owned tuples. Halo tuples are countable neighbors but are
// never owned — they are never detected, never saved, and never reported
// twice. Because the halo covers the full ε-ball of every owned tuple,
// per-shard ε-neighbor counts equal the global counts exactly, so the
// inlier/outlier split — and everything downstream of it — composes without
// approximation ("Distributed k-Clustering for Data with Heavy Noise"
// bounds the same boundary traffic for its coreset; here exactness is free
// because ε-neighborhoods are local).
//
// The halo is constructed per CELL, not per tuple: cell size equals ε (the
// same heuristic Build uses for the grid), so any tuple within ε of a tuple
// in cell c lies within reach = ceil(ε/cell)+1 cells of c per dimension.
// Enumerating the (2·reach+1)^m cube around each occupied cell finds every
// foreign shard whose territory intersects that ball; the cell's tuples
// become halo of each such shard. A relation-level cube-width guard, like
// the grid walk's, applies here too: when the cube would visit more cells
// than the relation has tuples — or the schema has text attributes, which have no
// cell coordinates — the partitioner degrades to full replication (every
// shard sees every tuple, owning a contiguous slice), which is always
// correct and still parallelizes the save fan-out.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// Shard is one spatial partition of a relation.
type Shard struct {
	// ID is the shard's position in Partition.Shards.
	ID int
	// Rel holds the shard-local relation: the owned tuples first (in
	// ascending global order), then the halo tuples (ascending too).
	// Tuples are shared with the source relation, not copied.
	Rel *data.Relation
	// Owned maps local positions 0..len(Owned)-1 of Rel to global tuple
	// indexes; these are the tuples the shard detects and saves.
	Owned []int
	// Halo maps the remaining local positions to the global indexes of the
	// replicated boundary tuples: countable neighbors, never owned.
	Halo []int
}

// Partition is the ε-halo split of a relation into S spatial shards.
type Partition struct {
	// S is the requested shard count; len(Shards) == S even when some
	// shards own no tuples (fewer occupied cells than shards).
	S int
	// Owner[i] is the shard owning global tuple i.
	Owner []int
	// Shards are the partitions.
	Shards []Shard
	// Fallback reports the full-replication degradation: the schema has no
	// cell coordinates (text attributes) or the halo cube would out-cost a
	// full copy, so every shard's halo is the whole rest of the relation.
	Fallback bool
}

// cellEntry groups the rows of one occupied grid cell.
type cellEntry struct {
	coords []int
	rows   []int
	shard  int
}

// Split partitions rel into s ε-halo shards. eps must be the detection
// radius — the halo is only wide enough for ε-neighbor queries at exactly
// that radius.
func Split(rel *data.Relation, eps float64, s int) (*Partition, error) {
	if s < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", s)
	}
	n := rel.N()
	keyer, err := neighbors.NewCellKeyer(rel, eps)
	if err != nil {
		return fullReplication(rel, s), nil
	}

	// Group rows by cell, remembering each cell's coordinate vector for the
	// halo cube walk.
	m := keyer.M()
	cells := make(map[neighbors.CellKey]*cellEntry)
	entries := make([]*cellEntry, 0)
	buf := make([]int, m)
	for i, t := range rel.Tuples {
		buf = keyer.Coords(buf, t)
		k := keyer.KeyOfCoords(buf)
		e := cells[k]
		if e == nil {
			e = &cellEntry{coords: append([]int(nil), buf...)}
			cells[k] = e
			entries = append(entries, e)
		}
		e.rows = append(e.rows, i)
	}

	// The halo cube: every cell within reach cells per dimension. When it
	// would visit more cells than the relation has tuples, the per-cell
	// walk costs more than replicating everything — degrade, like the grid
	// walk's box-size guard.
	reach := keyer.Reach(eps)
	cube := 1.0
	for a := 0; a < m; a++ {
		cube *= float64(2*reach + 1)
		if cube > float64(n)+1 {
			return fullReplication(rel, s), nil
		}
	}

	// Contiguous balanced assignment over the lexicographically sorted
	// cells: shard boundaries fall at the cumulative targets k·n/s, so
	// shards own spatially coherent, similarly sized territories.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].coords, entries[j].coords
		for d := 0; d < m; d++ {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	p := &Partition{S: s, Owner: make([]int, n), Shards: make([]Shard, s)}
	sid, cum := 0, 0
	for _, e := range entries {
		e.shard = sid
		for _, i := range e.rows {
			p.Owner[i] = sid
		}
		cum += len(e.rows)
		for sid < s-1 && cum >= (sid+1)*n/s {
			sid++
		}
	}

	// Halo: walk the cube around each occupied cell once and hand the
	// cell's rows to every DISTINCT foreign shard that owns a cell inside
	// it. The cube relation is symmetric, so this per-cell direction is
	// equivalent to asking, per owned tuple, which foreign tuples its
	// ε-ball could contain — at cell granularity instead of row granularity.
	owned := make([][]int, s)
	halo := make([][]int, s)
	stamp := make([]int, s)
	gen := 0
	off := make([]int, m)
	nc := make([]int, m)
	for _, e := range entries {
		owned[e.shard] = append(owned[e.shard], e.rows...)
		gen++
		stamp[e.shard] = gen // never halo of its own shard
		for a := range off {
			off[a] = -reach
		}
		for {
			for a := 0; a < m; a++ {
				nc[a] = e.coords[a] + off[a]
			}
			if ne := cells[keyer.KeyOfCoords(nc)]; ne != nil && stamp[ne.shard] != gen {
				stamp[ne.shard] = gen
				halo[ne.shard] = append(halo[ne.shard], e.rows...)
			}
			// Odometer increment over off ∈ [-reach, reach]^m.
			a := 0
			for ; a < m; a++ {
				off[a]++
				if off[a] <= reach {
					break
				}
				off[a] = -reach
			}
			if a == m {
				break
			}
		}
	}
	for sid := 0; sid < s; sid++ {
		sort.Ints(owned[sid])
		sort.Ints(halo[sid])
		p.Shards[sid] = makeShard(rel, sid, owned[sid], halo[sid])
	}
	return p, nil
}

// fullReplication is the degraded partition: contiguous ownership slices,
// every non-owned tuple in the halo. Correct for any schema and radius.
func fullReplication(rel *data.Relation, s int) *Partition {
	n := rel.N()
	p := &Partition{S: s, Owner: make([]int, n), Shards: make([]Shard, s), Fallback: s > 1}
	for sid := 0; sid < s; sid++ {
		lo, hi := sid*n/s, (sid+1)*n/s
		owned := make([]int, 0, hi-lo)
		halo := make([]int, 0, n-(hi-lo))
		for i := 0; i < n; i++ {
			if i >= lo && i < hi {
				p.Owner[i] = sid
				owned = append(owned, i)
			} else {
				halo = append(halo, i)
			}
		}
		if s == 1 {
			halo = nil
		}
		p.Shards[sid] = makeShard(rel, sid, owned, halo)
	}
	return p
}

// makeShard materializes one shard's local relation: owned rows first, halo
// after, tuples shared with rel.
func makeShard(rel *data.Relation, id int, owned, halo []int) Shard {
	local := make([]int, 0, len(owned)+len(halo))
	local = append(local, owned...)
	local = append(local, halo...)
	return Shard{ID: id, Rel: rel.Subset(local), Owned: owned, Halo: halo}
}
