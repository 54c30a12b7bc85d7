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

// release folds a bound query's tallies into c — the calling view's
// counters, nil for a direct call — and returns the query to its pool.
func release(kq *data.KernelQuery, c *Counters) {
	if c != nil {
		c.DistEvals += kq.Evals
		c.DistEarlyExits += kq.EarlyExits
		c.TextCacheHits += kq.TextCacheHits
		c.TextCacheMisses += kq.TextCacheMisses
	}
	kq.Release()
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }

// Counting returns an index view that adds every query against it to c.
// The view is idx plus c, never a copy of idx: Brute, Grid, VPTree and
// Mutable answer it through the same query bodies as a direct call, with
// c passed down, and each body folds its bound kernel query's tallies
// (pair evaluations, early exits, text cache hits and misses) and the
// grid's brute fallbacks into c. So DistEvals counts the distance
// evaluations performed inside the traversal, not just the query calls,
// and a view made before a mutation reads the live index. Other Index
// implementations count queries only. Build-time distance evaluations are
// never counted: they run outside any query.
//
// Like Counters itself the view is not synchronized: create one view (and
// one Counters) per goroutine against the same shared base index.
func Counting(idx Index, c *Counters) Index {
	switch t := idx.(type) {
	case *counting:
		return &counting{idx: t.idx, c: c} // replace the previous counters
	case counted:
		return &counting{idx: t, c: c}
	}
	return &counting{idx: uncounted{idx}, c: c}
}

// counted is implemented by the indexes that count their own work: one
// body per query kind, taking the calling view's counters (nil for a
// direct call). The public query methods call these bodies with nil.
type counted interface {
	Index
	within(dst []Neighbor, q data.Tuple, eps float64, skip int, c *Counters) []Neighbor
	countWithin(q data.Tuple, eps float64, skip, cap int, c *Counters) int
	knn(q data.Tuple, k, skip int, c *Counters) []Neighbor
}

// uncounted adapts a foreign Index to counted; its work is invisible, so
// a view over it counts queries only.
type uncounted struct{ Index }

func (u uncounted) within(dst []Neighbor, q data.Tuple, eps float64, skip int, _ *Counters) []Neighbor {
	return withinAppend(u.Index, dst, q, eps, skip)
}

func (u uncounted) countWithin(q data.Tuple, eps float64, skip, cap int, _ *Counters) int {
	return u.CountWithin(q, eps, skip, cap)
}

func (u uncounted) knn(q data.Tuple, k, skip int, _ *Counters) []Neighbor {
	return u.KNN(q, k, skip)
}

// counting counts queries at the interface boundary and passes c down to
// the index's query bodies for everything inside them.
type counting struct {
	idx counted
	c   *Counters
}

// Within implements Index.
func (w *counting) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	w.c.RangeQueries++
	return w.idx.within(nil, q, eps, skip, w.c)
}

// WithinAppend implements WithinAppender.
func (w *counting) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	w.c.RangeQueries++
	return w.idx.within(dst, q, eps, skip, w.c)
}

// CountWithin implements Index.
func (w *counting) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	w.c.RangeQueries++
	return w.idx.countWithin(q, eps, skip, cap, w.c)
}

// KNN implements Index.
func (w *counting) KNN(q data.Tuple, k, skip int) []Neighbor {
	w.c.KNNQueries++
	return w.idx.knn(q, k, skip, w.c)
}

// Rel implements Index.
func (w *counting) Rel() *data.Relation { return w.idx.Rel() }
