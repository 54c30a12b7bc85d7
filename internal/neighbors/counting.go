package neighbors

import (
	"repro/internal/data"
	"repro/internal/obs"
)

// Counters tallies the work an index performs: queries by kind, the
// tuple-pair distance evaluations spent answering them (the common
// currency that makes Brute, Grid and VPTree comparable), and grid
// queries that degraded to a brute scan. The fields are plain int64s
// incremented without synchronization — a Counters instance must be owned
// by one goroutine at a time and merged (Add) only after the owner is done.
type Counters struct {
	KNNQueries    int64
	RangeQueries  int64 // Within + CountWithin
	DistEvals     int64
	GridFallbacks int64
	// Kernel-level refinements of DistEvals (each eval is one pair
	// considered; these say how much of it was actually paid for):
	// pairs abandoned by the ε early exit before the last attribute,
	// text metric evaluations avoided by the pair cache or query memo,
	// and text metric evaluations actually computed.
	DistEarlyExits  int64
	TextCacheHits   int64
	TextCacheMisses int64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.KNNQueries += o.KNNQueries
	c.RangeQueries += o.RangeQueries
	c.DistEvals += o.DistEvals
	c.GridFallbacks += o.GridFallbacks
	c.DistEarlyExits += o.DistEarlyExits
	c.TextCacheHits += o.TextCacheHits
	c.TextCacheMisses += o.TextCacheMisses
}

// AddTo folds c into the index-traffic slots of a stats shard. obs stays
// import-free of neighbors, so this is the one bridge between the two.
func (c *Counters) AddTo(s *obs.SearchStats) {
	s.KNNQueries += c.KNNQueries
	s.RangeQueries += c.RangeQueries
	s.DistEvals += c.DistEvals
	s.GridFallbacks += c.GridFallbacks
	s.DistEarlyExits += c.DistEarlyExits
	s.TextCacheHits += c.TextCacheHits
	s.TextCacheMisses += c.TextCacheMisses
}

// kernHooks are the per-view destinations for a query's kernel counters;
// flush harvests a bound query's tallies and releases it to the pool.
// The zero value discards the counts.
type kernHooks struct {
	earlyExits, cacheHits, cacheMisses *int64
}

func (h kernHooks) flush(q *data.KernelQuery) {
	if h.earlyExits != nil {
		*h.earlyExits += q.EarlyExits
	}
	if h.cacheHits != nil {
		*h.cacheHits += q.TextCacheHits
	}
	if h.cacheMisses != nil {
		*h.cacheMisses += q.TextCacheMisses
	}
	q.Release()
}

// hooksFor builds the kernel hook set pointing into c.
func hooksFor(c *Counters) kernHooks {
	return kernHooks{
		earlyExits:  &c.DistEarlyExits,
		cacheHits:   &c.TextCacheHits,
		cacheMisses: &c.TextCacheMisses,
	}
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }

// Counting returns an index view that adds every query against it to c.
// For the three concrete index types the view is a shallow copy sharing the
// built structure (tree nodes, grid cells, tuple storage) with hooks
// attached, so DistEvals counts the distance evaluations performed inside
// the traversal — not just the query calls. Unknown Index implementations
// are wrapped at the interface boundary and count queries only. Build-time
// distance evaluations are never counted: the view is created after the
// index is built.
//
// Like Counters itself the view is not synchronized: create one view (and
// one Counters) per goroutine against the same shared base index.
func Counting(idx Index, c *Counters) Index {
	switch t := idx.(type) {
	case *Brute, *Grid, *VPTree:
		return &counting{idx: instrumented(t, c), c: c}
	case *Mutable:
		// The view re-instruments its base copy whenever the Mutable's
		// generation moves, so it stays exact across mutations and merges.
		return &counting{idx: &mutView{m: t, c: c}, c: c}
	case *mutView:
		return Counting(t.m, c) // replace the previous counters
	case *counting:
		return Counting(t.idx, c) // replace the previous counters
	default:
		return &counting{idx: idx, c: c}
	}
}

// instrumented returns a shallow copy of a concrete index with its eval
// hooks pointed into c; the copy shares the built structure (tree nodes,
// grid cells, tombstone table) with the original. Unknown types are
// returned as-is.
func instrumented(idx Index, c *Counters) Index {
	switch t := idx.(type) {
	case *Brute:
		cp := *t
		cp.evals = &c.DistEvals
		cp.ks = hooksFor(c)
		return &cp
	case *Grid:
		cp := *t
		cp.evals = &c.DistEvals
		cp.fallbacks = &c.GridFallbacks
		cp.ks = hooksFor(c)
		bcp := *t.brute
		bcp.evals = &c.DistEvals
		bcp.ks = hooksFor(c)
		cp.brute = &bcp
		return &cp
	case *VPTree:
		cp := *t
		cp.evals = &c.DistEvals
		cp.ks = hooksFor(c)
		return &cp
	}
	return idx
}

// counting counts queries at the interface boundary; the inner index's
// eval hooks (when attached by Counting) supply the distance counts.
type counting struct {
	idx Index
	c   *Counters
}

// Within implements Index.
func (w *counting) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	w.c.RangeQueries++
	return w.idx.Within(q, eps, skip)
}

// WithinAppend implements WithinAppender.
func (w *counting) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	w.c.RangeQueries++
	return withinAppend(w.idx, dst, q, eps, skip)
}

// CountWithin implements Index.
func (w *counting) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	w.c.RangeQueries++
	return w.idx.CountWithin(q, eps, skip, cap)
}

// KNN implements Index.
func (w *counting) KNN(q data.Tuple, k, skip int) []Neighbor {
	w.c.KNNQueries++
	return w.idx.KNN(q, k, skip)
}

// Rel implements Index.
func (w *counting) Rel() *data.Relation { return w.idx.Rel() }

// count bumps an optional eval counter; the nil check is one predictable
// branch next to a multi-attribute distance computation, so uninstrumented
// indexes pay nothing measurable.
func count(evals *int64) {
	if evals != nil {
		*evals++
	}
}
