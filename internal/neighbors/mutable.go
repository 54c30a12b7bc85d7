package neighbors

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/data"
)

// deadSet is the shared tombstone table of a Mutable index: one bit per
// physical row of the (append-only) relation. Deletes and updates never
// move rows — they tombstone the old physical row, and every index scan
// skips tombstoned rows next to its skip-index check, so count caps and
// early exits stay exact. The table is shared by pointer between the
// Mutable wrapper, its concrete base index, and every counting view, so
// a view built before a mutation still observes post-mutation state.
type deadSet struct {
	bits []bool
	n    int // count of set bits
}

// has reports whether row i is tombstoned; a nil receiver (an index built
// outside any Mutable wrapper) reports false for every row.
func (d *deadSet) has(i int) bool { return d != nil && d.bits[i] }

// IndexKind names one of the three concrete index implementations, or the
// automatic choice Build makes. The serving layer persists kinds by name,
// never by value.
type IndexKind int

const (
	KindAuto IndexKind = iota
	KindBrute
	KindGrid
	KindVP
)

// ParseIndexKind maps the wire names ("", "auto", "brute", "grid", "vp")
// to an IndexKind.
func ParseIndexKind(s string) (IndexKind, error) {
	switch s {
	case "", "auto":
		return KindAuto, nil
	case "brute":
		return KindBrute, nil
	case "grid":
		return KindGrid, nil
	case "vp":
		return KindVP, nil
	}
	return KindAuto, fmt.Errorf("neighbors: unknown index kind %q (want auto, brute, grid or vp)", s)
}

func (k IndexKind) String() string {
	switch k {
	case KindBrute:
		return "brute"
	case KindGrid:
		return "grid"
	case KindVP:
		return "vp"
	}
	return "auto"
}

// Mutable wraps one concrete index with single-tuple mutation support,
// the memtable-then-compact split adapted to neighbor search:
//
//   - The relation and kernel grow append-only (data.Kernel.AppendRow);
//     updates and deletes tombstone physical rows in the shared deadSet,
//     which every index scan consults.
//   - The grid absorbs inserts natively into its cell map whenever the
//     packed key can address the new row's coordinates (extending its
//     brute fallback's scan bound alongside).
//   - All other inserts — VP/brute bases, and grid rows outside the
//     packed ranges — land in a delta buffer scanned linearly next to
//     the frozen base on every query, and folded into a rebuilt base
//     once the buffer crosses a size threshold (Merges counts these).
//     The base rebuild reuses the one shared kernel, so interned text
//     dictionaries and warmed pair caches survive every merge.
//
// Query results are exactly those of an index freshly built over the
// live rows (the differential tests pin this per kind), including the
// deterministic (distance, index) k-NN tie-break over physical indices.
//
// Concurrency contract: any number of concurrent readers, or one
// mutator — the serving layer holds a per-session RWMutex. The counting
// views returned by Counting re-instrument themselves whenever the
// generation counter moves, so long-lived views (the saver's cached
// view) stay correct across mutations and merges.
type Mutable struct {
	r    *data.Relation
	kern *data.Kernel
	eps  float64
	kind IndexKind // resolved concrete kind (never KindAuto)

	ds    *deadSet // shared with every projection
	base  Index    // one of the three concrete, dead-aware indexes
	grid  *Grid    // base as grid, for native cell inserts (nil otherwise)
	delta []int    // physical rows in neither base structure nor grid cells

	baseRows   int    // physical rows covered at the last (re)build
	gen        uint64 // bumped by every mutation; views re-sync on change
	merges     int64
	mergeEvery int // explicit delta threshold; 0 = max(32, baseRows/8)

	// projections are the attribute-subset indexes Project built over the
	// same rows, each absorbing every Insert; projected marks m as one of
	// them (its rows and tombstones belong to the Mutable it projects).
	projections []*Mutable
	projected   bool
}

// NewMutable builds a mutable index over r. kind selects the concrete
// base index; KindAuto resolves by Build's rule at r's current size.
// Explicitly requesting a grid on a schema with text attributes is an
// error — the HTTP layer reports it as a 422 rather than the grid
// constructor's programming-error panic.
func NewMutable(r *data.Relation, eps float64, kind IndexKind) (*Mutable, error) {
	kern := data.CompileKernel(r)
	if kind == KindAuto {
		kind = autoKind(kern, eps)
	}
	if kind == KindGrid && !kern.AllNumeric() {
		return nil, fmt.Errorf("neighbors: %s index requires an all-numeric schema", kind)
	}
	m := &Mutable{
		r:    r,
		kern: kern,
		eps:  eps,
		kind: kind,
		ds:   &deadSet{bits: make([]bool, r.N())},
	}
	m.rebuildBase()
	return m, nil
}

// Project returns the index over the attribute columns cols of m's rows
// (see the package-level Project): its kernel is m's, projected, its kind
// is autoKind's pick for the projected attributes, and it shares m's
// tombstone table, so Delete on m is visible to it at once. m's Insert
// absorbs each new row into every projection — into a grid cell or the
// projection's own delta buffer, merged on its own threshold — so
// answers always equal a projection built from scratch over m's live
// rows. Calls with equal cols return the same projection, so any number
// of savers over m share one set. A projection's own Insert and Delete
// panic: mutate m instead.
func (m *Mutable) Project(cols []int) *Mutable {
	for _, p := range m.projections {
		if slices.Equal(p.kern.Cols(), cols) {
			return p
		}
	}
	kern := m.kern.Project(slices.Clone(cols))
	p := &Mutable{r: m.r, kern: kern, eps: m.eps, kind: autoKind(kern, m.eps), ds: m.ds, projected: true}
	p.rebuildBase()
	m.projections = append(m.projections, p)
	return p
}

// rebuildBase constructs the concrete base over all current physical
// rows, reusing the shared kernel, and wires the tombstone table in.
func (m *Mutable) rebuildBase() {
	m.base = build(m.r, m.kern, m.eps, m.kind, m.ds)
	m.grid, _ = m.base.(*Grid)
	m.baseRows = m.r.N()
}

// Insert appends t to the relation and the kernel and makes it visible
// to queries, returning its physical row index. The grid absorbs the row
// into a cell when it can; everything else goes through the delta
// buffer, which merges into the base once it crosses the threshold.
// Every projection absorbs the row the same way.
func (m *Mutable) Insert(t data.Tuple) int {
	if m.projected {
		panic("neighbors: Insert on a projection; insert through the Mutable it projects")
	}
	i := m.r.N()
	m.r.Append(t)
	m.kern.AppendRow(t)
	m.ds.bits = append(m.ds.bits, false)
	m.absorb(i)
	for _, p := range m.projections {
		p.absorb(i)
	}
	return i
}

// absorb makes physical row i, already appended to the relation and the
// kernel, visible to m's queries.
func (m *Mutable) absorb(i int) {
	m.gen++
	if m.grid != nil && m.grid.insert(i) {
		m.baseRows = i + 1
		return
	}
	m.delta = append(m.delta, i)
	if len(m.delta) >= m.mergeThreshold() {
		m.Merge()
	}
}

// Delete tombstones physical row i. The row's storage stays in place
// (columns are append-only); scans skip it from now on. Deleting a row
// twice is a no-op.
func (m *Mutable) Delete(i int) {
	if m.projected {
		panic("neighbors: Delete on a projection; delete through the Mutable it projects")
	}
	if i < 0 || i >= len(m.ds.bits) || m.ds.bits[i] {
		return
	}
	m.ds.bits[i] = true
	m.ds.n++
	m.gen++
}

// Merge folds the delta buffer into a freshly built base over all
// physical rows (tombstoned rows included — they keep being skipped at
// scan time until the session compacts its relation). The shared kernel
// is reused, so no column or text-cache work is repeated.
func (m *Mutable) Merge() {
	if len(m.delta) == 0 {
		return
	}
	m.rebuildBase()
	m.delta = m.delta[:0]
	m.merges++
	m.gen++
}

func (m *Mutable) mergeThreshold() int {
	if m.mergeEvery > 0 {
		return m.mergeEvery
	}
	th := m.baseRows / 8
	if th < 32 {
		th = 32
	}
	return th
}

// SetMergeEvery overrides the delta-merge threshold (0 restores the
// default max(32, baseRows/8)); the smoke tests use it to force a
// mid-stream merge on small datasets.
func (m *Mutable) SetMergeEvery(n int) { m.mergeEvery = n }

// Alive reports whether physical row i exists and is not tombstoned.
func (m *Mutable) Alive(i int) bool { return i >= 0 && i < len(m.ds.bits) && !m.ds.bits[i] }

// Live returns the number of live (non-tombstoned) rows.
func (m *Mutable) Live() int { return m.r.N() - m.ds.n }

// DeadCount returns the number of tombstoned physical rows.
func (m *Mutable) DeadCount() int { return m.ds.n }

// Pending returns the delta-buffer length (rows awaiting a merge).
func (m *Mutable) Pending() int { return len(m.delta) }

// Merges returns how many delta merges have run.
func (m *Mutable) Merges() int64 { return m.merges }

// Kind returns the resolved concrete index kind.
func (m *Mutable) Kind() IndexKind { return m.kind }

// Eps returns the radius hint the index was built with.
func (m *Mutable) Eps() float64 { return m.eps }

// Rel returns the indexed relation.
func (m *Mutable) Rel() *data.Relation { return m.r }

// Kernel implements Kerneled.
func (m *Mutable) Kernel() *data.Kernel { return m.kern }

// Within implements Index.
func (m *Mutable) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return m.withinApp(m.base, nil, kernHooks{}, nil, q, eps, skip)
}

// WithinAppend implements WithinAppender.
func (m *Mutable) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return m.withinApp(m.base, nil, kernHooks{}, dst, q, eps, skip)
}

// CountWithin implements Index.
func (m *Mutable) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return m.countW(m.base, nil, kernHooks{}, q, eps, skip, cap)
}

// KNN implements Index.
func (m *Mutable) KNN(q data.Tuple, k, skip int) []Neighbor {
	return m.knn(m.base, nil, kernHooks{}, q, k, skip)
}

// withinApp is the shared range-query implementation: the base answers
// first, then the delta buffer is scanned with the same ε early exit.
// base is either m.base or a counting view's instrumented copy of it;
// evals/ks route the delta scan's work into that view's counters.
func (m *Mutable) withinApp(base Index, evals *int64, ks kernHooks, dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	dst = withinAppend(base, dst, q, eps, skip)
	if len(m.delta) == 0 {
		return dst
	}
	kq := m.kern.Bind(q)
	bound := m.kern.LEBound(eps)
	for _, i := range m.delta {
		if i == skip || m.ds.bits[i] {
			continue
		}
		count(evals)
		if d, within := kq.DistToLE(i, bound); within {
			dst = append(dst, Neighbor{Idx: i, Dist: d})
		}
	}
	ks.flush(kq)
	return dst
}

// countW is the shared counting implementation; the cap early-exit
// carries across the base/delta boundary.
func (m *Mutable) countW(base Index, evals *int64, ks kernHooks, q data.Tuple, eps float64, skip, cap int) int {
	c := base.CountWithin(q, eps, skip, cap)
	if len(m.delta) == 0 || (cap > 0 && c >= cap) {
		return c
	}
	kq := m.kern.Bind(q)
	bound := m.kern.LEBound(eps)
	for _, i := range m.delta {
		if i == skip || m.ds.bits[i] {
			continue
		}
		count(evals)
		if _, within := kq.DistToLE(i, bound); within {
			c++
			if cap > 0 && c >= cap {
				break
			}
		}
	}
	ks.flush(kq)
	return c
}

// knn is the shared k-NN implementation. The base returns its k best
// live rows; merging them with the delta candidates under the same
// (distance, index) total order yields the global k best, because any
// base row outside the base's top k is worse than k rows already in the
// heap. The heap's bound doubles as the delta scan's early-exit radius.
func (m *Mutable) knn(base Index, evals *int64, ks kernHooks, q data.Tuple, k, skip int) []Neighbor {
	res := base.KNN(q, k, skip)
	if len(m.delta) == 0 || k <= 0 {
		return res
	}
	h := newMaxHeap(k)
	for _, nb := range res {
		h.offer(nb)
	}
	kq := m.kern.Bind(q)
	bound, leb := math.Inf(1), math.Inf(1)
	if bd, full := h.bound(); full {
		bound = bd
		leb = m.kern.LEBound(bd)
	}
	for _, i := range m.delta {
		if i == skip || m.ds.bits[i] {
			continue
		}
		count(evals)
		d, within := kq.DistToLE(i, leb)
		if !within {
			continue
		}
		h.offer(Neighbor{Idx: i, Dist: d})
		if bd, full := h.bound(); full && bd != bound {
			bound = bd
			leb = m.kern.LEBound(bd)
		}
	}
	ks.flush(kq)
	return h.sorted()
}

// mutView is the counting view over a Mutable: it keeps an instrumented
// shallow copy of the concrete base, rebuilt lazily whenever the
// Mutable's generation moves (any mutation or merge), and routes the
// delta scan's distance evaluations into the same Counters. This keeps
// long-lived views — the saver caches one per arena — exact across
// mutations without re-wrapping.
type mutView struct {
	m    *Mutable
	c    *Counters
	gen  uint64
	base Index
}

func (v *mutView) sync() Index {
	if v.base == nil || v.gen != v.m.gen {
		v.base = instrumented(v.m.base, v.c)
		v.gen = v.m.gen
	}
	return v.base
}

// Rel implements Index.
func (v *mutView) Rel() *data.Relation { return v.m.r }

// Kernel implements Kerneled.
func (v *mutView) Kernel() *data.Kernel { return v.m.kern }

// Within implements Index.
func (v *mutView) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return v.m.withinApp(v.sync(), &v.c.DistEvals, hooksFor(v.c), nil, q, eps, skip)
}

// WithinAppend implements WithinAppender.
func (v *mutView) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return v.m.withinApp(v.sync(), &v.c.DistEvals, hooksFor(v.c), dst, q, eps, skip)
}

// CountWithin implements Index.
func (v *mutView) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	return v.m.countW(v.sync(), &v.c.DistEvals, hooksFor(v.c), q, eps, skip, cap)
}

// KNN implements Index.
func (v *mutView) KNN(q data.Tuple, k, skip int) []Neighbor {
	return v.m.knn(v.sync(), &v.c.DistEvals, hooksFor(v.c), q, k, skip)
}
