package data

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
)

// Kernel is a distance program compiled once per Schema+Relation. It
// re-lays the row-major []Value tuples out as structure-of-arrays — flat
// raw []float64 numeric columns and dictionary-encoded text columns of
// interned int32 IDs — resolves each text attribute's metric (nil →
// Levenshtein) once, and memoizes pairwise text distances per attribute
// so an O(len²) edit distance is computed at most once per distinct
// string pair. All distance entry points replicate the scalar
// Schema.Dist / Schema.DistOn / Schema.AttrDist arithmetic operation for
// operation, so kernel results are bit-identical to the scalar path
// (see docs/PERFORMANCE.md; kernel_test.go proves it differentially).
//
// Columns track the relation under an append-only discipline: AppendRow
// absorbs a row appended to the relation into every column (and the text
// dictionaries) in place, so mutable sessions never recompile on insert.
// In-place edits of existing tuples are still invisible — updates are
// expressed as tombstone-old + append-new at the index layer (see
// neighbors.Mutable). AppendRow must be serialized against all queries
// by the caller; the serving layer holds a session-wide write lock.
//
// A Kernel is safe for concurrent use: the text caches are a lock-free
// dense atomic table (small dictionaries) or a sharded RWMutex map, and
// all per-query state lives in pooled KernelQuery scratch.
//
// Project derives a kernel over a subset of the attributes that shares
// the compiled columns, dictionaries and pair caches by pointer, so rows
// appended to the compiled kernel are visible through every projection.
type Kernel struct {
	n     int
	norm  metric.Norm
	attrs []*kernelAttr
	pool  sync.Pool
	// root is the compiled kernel that owns the columns (k itself unless
	// k is a projection); cols maps a projection's attribute positions to
	// tuple columns (nil: the identity).
	root *Kernel
	cols []int

	// All-numeric fast path: when every attribute is numeric, rows holds
	// the same raw values as the columns but row-major (rows[j*m+a]), and
	// scales the per-attribute scales, so full-row distances run as one
	// contiguous scan with no per-attribute dispatch. The generic
	// column-major path pays a non-inlinable attrRaw call per attribute
	// per pair — measurable on numeric-only scans (BenchmarkBruteWithin).
	allNum bool
	rows   []float64
	scales []float64
}

// kernelAttr is one compiled column.
type kernelAttr struct {
	kind  Kind
	scale float64
	// Numeric: raw (unscaled) values, one per row. Values are stored raw
	// and divided by scale per evaluation, exactly like the scalar path:
	// pre-scaling would change the arithmetic ((x−y)/s ≠ x/s − y/s in
	// floating point) and break bit-identical results.
	num []float64
	// Text: interned dictionary IDs per row, the dictionary itself, a
	// reverse lookup for query binding, and the resolved metric.
	ids    []int32
	dict   []string
	lookup map[string]int32
	dist   metric.StringDistance
	// Pairwise distance cache over dictionary IDs, storing the raw
	// (unscaled) metric value. Exactly one of dense/shards is active.
	dense  []uint64 // triangular; Float64bits(d)+1, 0 = absent
	shards []cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
}

const (
	// denseCacheMaxSlots bounds the dense triangular cache: D·(D+1)/2
	// slots ≤ 2²¹ (16 MiB of uint64) keeps dictionaries up to ~2047
	// distinct strings on the lock-free path.
	denseCacheMaxSlots = 1 << 21
	cacheShardCount    = 32 // power of two
)

// CompileKernel compiles the relation's schema and rows into a Kernel.
func CompileKernel(r *Relation) *Kernel {
	n := r.N()
	sch := r.Schema
	k := &Kernel{n: n, norm: sch.Norm, attrs: make([]*kernelAttr, sch.M())}
	k.root = k
	for a := range sch.Attrs {
		at := &sch.Attrs[a]
		ka := new(kernelAttr)
		k.attrs[a] = ka
		ka.kind = at.Kind
		ka.scale = at.Scale
		if at.Kind == Numeric {
			ka.num = make([]float64, n)
			for i, t := range r.Tuples {
				ka.num[i] = t[a].Num
			}
			continue
		}
		ka.dist = at.Text
		if ka.dist == nil {
			ka.dist = metric.Levenshtein
		}
		ka.ids = make([]int32, n)
		ka.lookup = make(map[string]int32)
		for i, t := range r.Tuples {
			s := t[a].Str
			id, ok := ka.lookup[s]
			if !ok {
				id = int32(len(ka.dict))
				ka.dict = append(ka.dict, s)
				ka.lookup[s] = id
			}
			ka.ids[i] = id
		}
		d := len(ka.dict)
		if tri := d * (d + 1) / 2; tri <= denseCacheMaxSlots {
			ka.dense = make([]uint64, tri)
		} else {
			ka.shards = make([]cacheShard, cacheShardCount)
			for s := range ka.shards {
				ka.shards[s].m = make(map[uint64]float64)
			}
		}
	}
	k.allNum = allNumeric(k.attrs)
	if m := len(k.attrs); k.allNum && m > 0 {
		k.rows = make([]float64, n*m)
		k.scales = make([]float64, m)
		for a := range k.attrs {
			k.scales[a] = k.attrs[a].scale
			col := k.attrs[a].num
			for j := 0; j < n; j++ {
				k.rows[j*m+a] = col[j]
			}
		}
	}
	return k
}

// allNumeric reports whether every attribute is numeric.
func allNumeric(attrs []*kernelAttr) bool {
	for _, ka := range attrs {
		if ka.kind != Numeric {
			return false
		}
	}
	return true
}

// Project returns a kernel over the attribute columns cols (ascending,
// distinct) of k, which must be a compiled kernel rather than a
// projection. The projection reads k's column storage, dictionaries and
// pair caches by pointer — nothing is copied — so rows k absorbs through
// AppendRow are visible to it at once. Its distances aggregate only the
// selected attributes under the same norm, with the same arithmetic as
// k's generic column path, and its queries bind full-width tuples.
func (k *Kernel) Project(cols []int) *Kernel {
	if k.root != k {
		panic("data: Project on a projected kernel")
	}
	p := &Kernel{norm: k.norm, root: k, cols: cols, attrs: make([]*kernelAttr, len(cols))}
	for i, a := range cols {
		p.attrs[i] = k.attrs[a]
	}
	p.allNum = allNumeric(p.attrs)
	return p
}

// Cols returns the tuple column of each attribute position, or nil when
// k is a compiled kernel (position a is column a).
func (k *Kernel) Cols() []int { return k.cols }

// AllNumeric reports whether every attribute of k is numeric.
func (k *Kernel) AllNumeric() bool { return k.allNum }

// AppendRow absorbs one row just appended to the relation into the
// compiled columns: numeric columns and the all-numeric row-major mirror
// grow by one value, text values are interned (new dictionary entries
// extend the pair cache — the dense triangular layout keeps existing
// slots valid, and a dictionary that outgrows the dense budget migrates
// its cached pairs to the sharded maps). The tuple must already be
// Relation.Append-ed; its arity is checked there. AppendRow is a writer:
// callers must serialize it against every concurrent query and every
// other mutation (the serving layer holds a session-wide write lock).
// Projections read the appended row through k; calling AppendRow on a
// projection panics.
func (k *Kernel) AppendRow(t Tuple) {
	if k.root != k {
		panic("data: AppendRow on a projected kernel")
	}
	m := len(k.attrs)
	for a := 0; a < m; a++ {
		ka := k.attrs[a]
		if ka.kind == Numeric {
			ka.num = append(ka.num, t[a].Num)
			continue
		}
		s := t[a].Str
		id, ok := ka.lookup[s]
		if !ok {
			id = int32(len(ka.dict))
			ka.dict = append(ka.dict, s)
			ka.lookup[s] = id
			k.growTextCache(ka)
		}
		ka.ids = append(ka.ids, id)
	}
	if k.allNum && m > 0 {
		for a := 0; a < m; a++ {
			k.rows = append(k.rows, t[a].Num)
		}
	}
	k.n++
}

// growTextCache extends ka's pair cache for a dictionary that just
// gained one entry. The dense triangular cache grows in place (existing
// slots keep their indices under the slot(hi,lo) layout); once the
// triangle exceeds the dense budget the cached pairs migrate to the
// sharded maps so the hot path never recomputes what it already paid
// for.
func (k *Kernel) growTextCache(ka *kernelAttr) {
	if ka.dense == nil {
		return // already sharded; maps grow on their own
	}
	d := len(ka.dict)
	if tri := d * (d + 1) / 2; tri <= denseCacheMaxSlots {
		ka.dense = append(ka.dense, make([]uint64, tri-len(ka.dense))...)
		return
	}
	ka.shards = make([]cacheShard, cacheShardCount)
	for s := range ka.shards {
		ka.shards[s].m = make(map[uint64]float64)
	}
	for hi := 0; hi*(hi+1)/2 < len(ka.dense); hi++ {
		for lo := 0; lo <= hi; lo++ {
			bits := ka.dense[hi*(hi+1)/2+lo]
			if bits == 0 {
				continue
			}
			key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
			sh := &ka.shards[(uint64(lo)*0x9e3779b1^uint64(hi))&(cacheShardCount-1)]
			sh.m[key] = math.Float64frombits(bits - 1)
		}
	}
	ka.dense = nil
}

// N returns the number of rows, M the number of attributes.
func (k *Kernel) N() int { return k.root.n }

// M returns the number of attributes.
func (k *Kernel) M() int { return len(k.attrs) }

// LEBound is LEBound of the kernel's norm and eps: the accumulator
// threshold for the early-exit entry points.
func (k *Kernel) LEBound(eps float64) float64 { return LEBound(k.norm, eps) }

// pairRaw returns the raw (unscaled) text distance between dictionary
// IDs a and b of attribute ka, computing and caching it on first use.
// Identical IDs short-circuit to 0 — the metric identity axiom is a
// documented precondition of metric.StringDistance. hits/misses count
// avoided vs. performed metric evaluations.
func pairRaw(ka *kernelAttr, a, b int32, hits, misses *int64) float64 {
	if a == b {
		*hits++
		return 0
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if ka.dense != nil {
		slot := &ka.dense[int(hi)*(int(hi)+1)/2+int(lo)]
		// Float64bits(d)+1 with 0 = absent: no initialization pass, and
		// concurrent writers race benignly (same deterministic value).
		if bits := atomic.LoadUint64(slot); bits != 0 {
			*hits++
			return math.Float64frombits(bits - 1)
		}
		d := ka.dist(ka.dict[lo], ka.dict[hi])
		*misses++
		atomic.StoreUint64(slot, math.Float64bits(d)+1)
		return d
	}
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	sh := &ka.shards[(uint64(lo)*0x9e3779b1^uint64(hi))&(cacheShardCount-1)]
	sh.mu.RLock()
	d, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		*hits++
		return d
	}
	d = ka.dist(ka.dict[lo], ka.dict[hi])
	*misses++
	sh.mu.Lock()
	sh.m[key] = d
	sh.mu.Unlock()
	return d
}

// attrRawRows returns the raw (unscaled) per-attribute distance between
// rows i and j.
func (k *Kernel) attrRawRows(ka *kernelAttr, i, j int, hits, misses *int64) float64 {
	if ka.kind == Numeric {
		return math.Abs(ka.num[i] - ka.num[j])
	}
	return pairRaw(ka, ka.ids[i], ka.ids[j], hits, misses)
}

// AttrDist returns the scaled per-attribute distance between rows i and
// j, bit-identical to Schema.AttrDist on the same values.
func (k *Kernel) AttrDist(a, i, j int) float64 {
	var hits, misses int64
	ka := k.attrs[a]
	d := k.attrRawRows(ka, i, j, &hits, &misses)
	if ka.scale > 0 {
		d /= ka.scale
	}
	return d
}

// rowOf returns row j of the all-numeric row-major mirror, or nil when
// the kernel has text attributes (callers fall through to the generic
// column-major path). Values and scales are identical to the columns,
// and the fast-path loops replicate the generic arithmetic operation
// for operation, so results stay bit-identical.
func (k *Kernel) rowOf(j int) []float64 {
	if k.rows == nil {
		return nil
	}
	m := len(k.attrs)
	return k.rows[j*m : j*m+m : j*m+m]
}

// rowDist is the all-numeric full-distance scan shared by Kernel.Dist
// and KernelQuery.DistTo: qn holds the query-side values (a bound
// query's nums, or another row of the mirror).
func (k *Kernel) rowDist(qn, row []float64) float64 {
	qn, sc := qn[:len(row)], k.scales[:len(row)] // bounds-check elimination
	acc := 0.0
	if k.norm == metric.L2 {
		for a, v := range row {
			d := math.Abs(qn[a] - v)
			if s := sc[a]; s > 0 {
				d /= s
			}
			acc += d * d
		}
		return math.Sqrt(acc)
	}
	for a, v := range row {
		d := math.Abs(qn[a] - v)
		if s := sc[a]; s > 0 {
			d /= s
		}
		acc = k.accumulate(acc, d)
	}
	return k.norm.Finish(acc)
}

// rowDistLE is the all-numeric early-exit scan shared by Kernel.DistLE
// and KernelQuery.DistToLE. exits counts pairs abandoned before the
// last attribute. The abort path returns the raw accumulator without
// Finish — callers never read the distance when within is false, and
// on random data most pairs abort, so a sqrt there would dominate the
// scan.
func (k *Kernel) rowDistLE(qn, row []float64, bound float64, exits *int64) (float64, bool) {
	m := len(row)
	qn, sc := qn[:m], k.scales[:m] // bounds-check elimination
	acc := 0.0
	if k.norm == metric.L2 {
		for a, v := range row {
			d := math.Abs(qn[a] - v)
			if s := sc[a]; s > 0 {
				d /= s
			}
			acc += d * d
			if acc > bound {
				if a < m-1 {
					*exits++
				}
				return acc, false
			}
		}
		return math.Sqrt(acc), true
	}
	for a, v := range row {
		d := math.Abs(qn[a] - v)
		if s := sc[a]; s > 0 {
			d /= s
		}
		acc = k.accumulate(acc, d)
		if acc > bound {
			if a < m-1 {
				*exits++
			}
			return acc, false
		}
	}
	return k.norm.Finish(acc), true
}

// Dist returns the full-space distance between rows i and j,
// bit-identical to Schema.Dist on the same tuples.
func (k *Kernel) Dist(i, j int) float64 {
	if row := k.rowOf(j); row != nil {
		return k.rowDist(k.rowOf(i), row)
	}
	var hits, misses int64
	if k.norm == metric.L2 {
		acc := 0.0
		for a := range k.attrs {
			ka := k.attrs[a]
			d := k.attrRawRows(ka, i, j, &hits, &misses)
			if ka.scale > 0 {
				d /= ka.scale
			}
			acc += d * d
		}
		return math.Sqrt(acc)
	}
	return k.DistX(i, j, FullMask(len(k.attrs)))
}

// DistX returns the distance between rows i and j over the attribute
// subset x, bit-identical to Schema.DistOn.
func (k *Kernel) DistX(i, j int, x AttrMask) float64 {
	var hits, misses int64
	acc := 0.0
	for a := range k.attrs {
		if !x.Has(a) {
			continue
		}
		ka := k.attrs[a]
		d := k.attrRawRows(ka, i, j, &hits, &misses)
		if ka.scale > 0 {
			d /= ka.scale
		}
		acc = k.norm.Accumulate(acc, d)
	}
	return k.norm.Finish(acc)
}

// DistLE reports whether the distance between rows i and j is ≤ eps,
// aborting the scan as soon as the partial aggregate proves it cannot
// be (see LEBound for the soundness argument). The returned distance is
// exact when within is true and meaningless otherwise.
func (k *Kernel) DistLE(i, j int, eps float64) (d float64, within bool) {
	bound := LEBound(k.norm, eps)
	if row := k.rowOf(j); row != nil {
		var exits int64
		return k.rowDistLE(k.rowOf(i), row, bound, &exits)
	}
	var hits, misses int64
	acc := 0.0
	for a := range k.attrs {
		ka := k.attrs[a]
		d := k.attrRawRows(ka, i, j, &hits, &misses)
		if ka.scale > 0 {
			d /= ka.scale
		}
		acc = k.accumulate(acc, d)
		if acc > bound {
			return acc, false
		}
	}
	return k.norm.Finish(acc), true
}

// accumulate is Norm.Accumulate with the switch on the kernel; kept in
// sync with metric.Norm.Accumulate (the differential tests enforce it).
func (k *Kernel) accumulate(acc, d float64) float64 {
	switch k.norm {
	case metric.L1:
		return acc + d
	case metric.LInf:
		return math.Max(acc, d)
	default:
		return acc + d*d
	}
}

// LEBound returns the largest accumulator value T such that
// norm.Finish(T) ≤ eps, so the early-exit test `acc > T` is exactly
// equivalent to the scalar `Finish(acc) ≤ eps` being false. For L1/LInf,
// Finish is the identity and T = eps. For L2, T starts at eps² and is
// nudged by ULPs until sqrt(T) ≤ eps < sqrt(next(T)) — sqrt is monotone
// and correctly rounded, so the adjustment loop terminates within a few
// steps. The abort is sound because per-attribute distances are
// non-negative and every norm's Accumulate is monotone non-decreasing
// in the accumulator under IEEE round-to-nearest.
func LEBound(n metric.Norm, eps float64) float64 {
	if n != metric.L2 || math.IsInf(eps, 1) || math.IsNaN(eps) {
		return eps
	}
	if eps < 0 {
		// No non-negative accumulator passes; sqrt(acc) ≥ 0 > eps.
		return math.Inf(-1)
	}
	t := eps * eps
	for math.Sqrt(t) > eps {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for {
		nt := math.Nextafter(t, math.Inf(1))
		if math.IsInf(nt, 1) || !(math.Sqrt(nt) <= eps) {
			return t
		}
		t = nt
	}
}

// KernelQuery is a query tuple bound against a kernel: query values are
// interned against the dictionaries once, and distances from the query
// to rows reuse the pair caches (known query strings) or a query-local
// memo (strings not in the relation, e.g. an outlier under repair —
// each distinct dictionary entry is evaluated at most once per bound
// query). Queries come from a pool: obtain with Kernel.Bind, release
// with Release. A KernelQuery is not safe for concurrent use; bind one
// per goroutine.
type KernelQuery struct {
	k     *Kernel
	nums  []float64 // numeric query values
	attrs []kqAttr  // text query state
	gen   uint32

	// Counters since the last Bind: pair evaluations (DistTo and
	// DistToLE calls), text metric evaluations avoided (cache or memo
	// hit, including the identical-ID fast path), performed, and pair
	// scans aborted by the ε early exit. Harvest them before Release;
	// hot loops update them without atomics.
	Evals           int64
	TextCacheHits   int64
	TextCacheMisses int64
	EarlyExits      int64
}

type kqAttr struct {
	id      int32 // interned query ID, -1 if not in the dictionary
	str     string
	memo    []float64 // per-dict-ID raw distance for unknown query strings
	memoGen []uint32
}

func (k *Kernel) newQuery() *KernelQuery {
	q := &KernelQuery{k: k, nums: make([]float64, len(k.attrs)), attrs: make([]kqAttr, len(k.attrs))}
	for a, ka := range k.attrs {
		if ka.kind == Text {
			q.attrs[a].memo = make([]float64, len(ka.dict))
			q.attrs[a].memoGen = make([]uint32, len(ka.dict))
		}
	}
	return q
}

// Bind interns the tuple against the kernel's dictionaries and returns
// a pooled query. The tuple's arity must match the schema (also for a
// projection, which reads its own columns of the tuple).
func (k *Kernel) Bind(t Tuple) *KernelQuery {
	if len(t) != len(k.root.attrs) {
		panic(fmt.Sprintf("data: query arity %d does not match kernel arity %d", len(t), len(k.root.attrs)))
	}
	q, _ := k.pool.Get().(*KernelQuery)
	if q == nil {
		q = k.newQuery()
	}
	q.gen++
	if q.gen == 0 { // generation wrapped: invalidate stale memo stamps
		for a := range q.attrs {
			for i := range q.attrs[a].memoGen {
				q.attrs[a].memoGen[i] = 0
			}
		}
		q.gen = 1
	}
	q.Evals, q.TextCacheHits, q.TextCacheMisses, q.EarlyExits = 0, 0, 0, 0
	for a, ka := range k.attrs {
		c := a
		if k.cols != nil {
			c = k.cols[a]
		}
		if ka.kind == Numeric {
			q.nums[a] = t[c].Num
			continue
		}
		qa := &q.attrs[a]
		// AppendRow may have grown the dictionary since this pooled
		// query was sized; the memo is indexed by dictionary ID.
		if d := len(ka.dict); len(qa.memo) < d {
			qa.memo = append(qa.memo, make([]float64, d-len(qa.memo))...)
			qa.memoGen = append(qa.memoGen, make([]uint32, d-len(qa.memoGen))...)
		}
		qa.str = t[c].Str
		if id, ok := ka.lookup[qa.str]; ok {
			qa.id = id
		} else {
			qa.id = -1
		}
	}
	return q
}

// Release returns the query to the kernel's pool.
func (q *KernelQuery) Release() { q.k.pool.Put(q) }

// attrRaw returns the raw (unscaled) distance between the query and row
// j on attribute a.
func (q *KernelQuery) attrRaw(a int, ka *kernelAttr, j int, hits, misses *int64) float64 {
	if ka.kind == Numeric {
		return math.Abs(q.nums[a] - ka.num[j])
	}
	qa := &q.attrs[a]
	jid := ka.ids[j]
	if qa.id >= 0 {
		return pairRaw(ka, qa.id, jid, hits, misses)
	}
	if qa.memoGen[jid] == q.gen {
		*hits++
		return qa.memo[jid]
	}
	d := ka.dist(qa.str, ka.dict[jid])
	*misses++
	qa.memo[jid] = d
	qa.memoGen[jid] = q.gen
	return d
}

// AttrDist returns the scaled per-attribute distance between the query
// and row j, bit-identical to Schema.AttrDist.
func (q *KernelQuery) AttrDist(a, j int) float64 {
	ka := q.k.attrs[a]
	d := q.attrRaw(a, ka, j, &q.TextCacheHits, &q.TextCacheMisses)
	if ka.scale > 0 {
		d /= ka.scale
	}
	return d
}

// DistTo returns the full-space distance between the query and row j,
// bit-identical to Schema.Dist.
func (q *KernelQuery) DistTo(j int) float64 {
	q.Evals++
	k := q.k
	if row := k.rowOf(j); row != nil {
		return k.rowDist(q.nums, row)
	}
	if k.norm == metric.L2 {
		acc := 0.0
		for a := range k.attrs {
			ka := k.attrs[a]
			d := q.attrRaw(a, ka, j, &q.TextCacheHits, &q.TextCacheMisses)
			if ka.scale > 0 {
				d /= ka.scale
			}
			acc += d * d
		}
		return math.Sqrt(acc)
	}
	return q.DistToX(j, FullMask(len(k.attrs)))
}

// DistToX returns the distance between the query and row j over the
// attribute subset x, bit-identical to Schema.DistOn.
func (q *KernelQuery) DistToX(j int, x AttrMask) float64 {
	k := q.k
	acc := 0.0
	for a := range k.attrs {
		if !x.Has(a) {
			continue
		}
		ka := k.attrs[a]
		d := q.attrRaw(a, ka, j, &q.TextCacheHits, &q.TextCacheMisses)
		if ka.scale > 0 {
			d /= ka.scale
		}
		acc = k.norm.Accumulate(acc, d)
	}
	return k.norm.Finish(acc)
}

// DistToLE reports whether the distance between the query and row j is
// ≤ eps using the precomputed bound from LEBound(norm, eps) — hot scans
// compute the bound once per query rather than per pair. A pair is
// abandoned (and EarlyExits incremented) the moment the partial
// aggregate exceeds the bound: per-attribute distances are non-negative
// and Accumulate is monotone, so the remaining attributes cannot bring
// it back down, and by construction of LEBound the abort decision is
// exactly the scalar `Finish(acc) ≤ eps` test. The returned distance is
// exact when within is true and meaningless otherwise (the abort path
// skips Finish — most pairs abort, so a sqrt there would dominate).
func (q *KernelQuery) DistToLE(j int, bound float64) (d float64, within bool) {
	q.Evals++
	k := q.k
	if row := k.rowOf(j); row != nil {
		return k.rowDistLE(q.nums, row, bound, &q.EarlyExits)
	}
	if k.norm == metric.L2 {
		acc := 0.0
		for a := range k.attrs {
			ka := k.attrs[a]
			d := q.attrRaw(a, ka, j, &q.TextCacheHits, &q.TextCacheMisses)
			if ka.scale > 0 {
				d /= ka.scale
			}
			acc += d * d
			if acc > bound {
				if a < len(k.attrs)-1 {
					q.EarlyExits++
				}
				return acc, false
			}
		}
		return math.Sqrt(acc), true
	}
	acc := 0.0
	for a := range k.attrs {
		ka := k.attrs[a]
		d := q.attrRaw(a, ka, j, &q.TextCacheHits, &q.TextCacheMisses)
		if ka.scale > 0 {
			d /= ka.scale
		}
		acc = k.accumulate(acc, d)
		if acc > bound {
			if a < len(k.attrs)-1 {
				q.EarlyExits++
			}
			return acc, false
		}
	}
	return k.norm.Finish(acc), true
}
