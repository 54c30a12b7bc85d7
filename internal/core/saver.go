package core

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options tune Algorithm 1.
type Options struct {
	// Kappa bounds the number of adjusted attributes: the recursion only
	// considers unadjusted sets X with |X| ≥ m−κ, the O(m^{κ+1}·n)
	// variant of §3.3. κ ≤ 0 means unrestricted (start from X = ∅, which
	// admits the Lemma 4 nearest-inlier fallback).
	Kappa int
	// DisablePruning turns off the Proposition 3 lower-bound pruning
	// (ablation only).
	DisablePruning bool
	// DisableMemo turns off the visited-X deduplication (ablation only).
	DisableMemo bool
	// Workers bounds SaveAllContext's parallelism; ≤ 0 means GOMAXPROCS.
	Workers int
	// Index overrides the automatically built neighbor index. For
	// NewSaverContext it must index r (the inlier relation); for
	// SaveAllContext it must index the full input relation and is reused
	// by the detection pass (the saver's inlier index is still built over
	// the inlier subset).
	Index neighbors.Index
	// MaxNodes bounds the search nodes Algorithm 1 expands per outlier
	// (≤ 0: unlimited). When the cap trips mid-search, the best-so-far
	// adjustment is returned with Adjustment.Exhausted set — feasible
	// whenever one was found, since every candidate answer is a Lemma 4 /
	// Proposition 5 witness.
	MaxNodes int
	// Deadline is the wall-clock allowance for saving one outlier
	// (0: none). Like MaxNodes, tripping it degrades to the best-so-far
	// answer instead of aborting.
	Deadline time.Duration
	// Progress, when non-nil, receives batch snapshots from
	// SaveAllContext: the first completed save, at most one per
	// ProgressInterval after that, and always a final snapshot. The
	// callback is serialized (never runs concurrently with itself) but may
	// fire from any worker goroutine.
	Progress func(obs.Progress)
	// ProgressInterval bounds the Progress rate; ≤ 0 selects
	// obs.DefaultProgressInterval (200ms).
	ProgressInterval time.Duration
	// Logger, when non-nil, receives structured per-phase and degradation
	// events from SaveAllContext and NewSaverContext: detection and
	// precompute done (Info), per-outlier budget trips (Debug), recovered
	// panics and skipped outliers (Warn), grid→brute fallbacks (Debug).
	// The hot search path itself never logs.
	Logger *slog.Logger
}

// Saver saves outliers against a fixed set r of non-outlying tuples.
type Saver struct {
	rel  *data.Relation // r
	cons Constraints
	opts Options
	idx  neighbors.Index
	// kern is the compiled distance kernel over r, shared with idx when
	// the index is kernel-backed so the per-pair text-distance cache is
	// warmed by both; the per-outlier candidate tables read from it.
	kern *data.Kernel
	// etaRadius[i] = δ_η(t_i): distance from t_i to its η-th nearest
	// neighbor within r. A tuple position with δ_η ≤ ε − d satisfies the
	// constraints for any adjustment within d of it (Proposition 5).
	etaRadius []float64
	m         int
	sqNorm    bool // L2: accumulate squared per-attribute distances
	// arenas recycles saveArena scratch across SaveOne calls;
	// SaveAllContext bypasses it with explicit per-worker arenas.
	arenas sync.Pool
	// setupStats and setup time the one-off construction work (index
	// builds, η-radius precompute) so SaveAllContext can report pipeline
	// phases; setupStats holds the index traffic of the precompute pass.
	setupStats obs.SearchStats
	setup      struct{ indexBuild, etaRadius time.Duration }
	// groups index the κ+1 attribute groups of the pigeonhole candidate
	// filter over r (see attributeGroups and candidateRows); nil off the
	// κ path.
	groups []neighbors.Index
	// mut is idx's mutable wrapper when the saver was built over one
	// (Options.Index of type *neighbors.Mutable). It unlocks the
	// incremental inlier-set maintenance surface: InsertInlier,
	// RemoveInlier and RefreshRadii. nil for static savers.
	mut *neighbors.Mutable
}

// NewSaverContext precomputes the η-th-neighbor radii of r. r must be
// outlier-free under cons (use DetectContext to split first); an empty r
// cannot save anything and is rejected, as is a relation with NaN/±Inf
// values (distances over them are undefined and would silently poison
// every aggregate). The η-radius precompute pass over r stops promptly
// once ctx is cancelled and the cancellation is returned as an error.
func NewSaverContext(ctx context.Context, r *data.Relation, cons Constraints, opts Options) (*Saver, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if err := r.Schema.Validate(); err != nil {
		return nil, err
	}
	if r.N() == 0 {
		return nil, fmt.Errorf("core: cannot save outliers against an empty inlier set")
	}
	if err := data.ValidateValues(r); err != nil {
		return nil, err
	}
	log := obs.Logger(opts.Logger)
	idx := opts.Index
	var indexBuild time.Duration
	if idx == nil {
		start := time.Now()
		idx = neighbors.Build(r, cons.Eps)
		indexBuild = time.Since(start)
		log.Debug("disc: inlier index built", "index", fmt.Sprintf("%T", idx),
			"tuples", r.N(), "duration", indexBuild)
	}
	s := &Saver{
		rel:       r,
		cons:      cons,
		opts:      opts,
		idx:       idx,
		etaRadius: make([]float64, r.N()),
		m:         r.Schema.M(),
		sqNorm:    r.Schema.Norm == metric.L2,
	}
	if m, ok := idx.(*neighbors.Mutable); ok {
		s.mut = m
	}
	s.kern = neighbors.KernelOf(idx)
	if s.kern == nil {
		// Custom Options.Index without a kernel: compile one for the
		// candidate tables (its text cache is simply not shared).
		s.kern = data.CompileKernel(r)
	}
	if groups := s.attributeGroups(); groups != nil {
		start := time.Now()
		s.indexGroups(groups)
		indexBuild += time.Since(start)
	}
	s.setup.indexBuild = indexBuild
	s.arenas.New = func() any { return new(saveArena) }
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One counting view (and counter shard) per worker: the precompute
	// fans out over r, and the shards merge into setupStats once the pool
	// joins — plain int64 increments, no atomics.
	if workers > r.N() {
		workers = r.N()
	}
	shards := make([]neighbors.Counters, workers)
	views := make([]neighbors.Index, workers)
	for w := range views {
		views[w] = neighbors.Counting(idx, &shards[w])
	}
	start := time.Now()
	errs := par.ForEachWorker(ctx, r.N(), workers, func(w, i int) error {
		nn := views[w].KNN(r.Tuples[i], cons.Eta, i)
		if len(nn) < cons.Eta {
			s.etaRadius[i] = math.Inf(1)
			return nil
		}
		s.etaRadius[i] = nn[cons.Eta-1].Dist
		return nil
	})
	s.setup.etaRadius = time.Since(start)
	var merged neighbors.Counters
	for w := range shards {
		merged.Add(shards[w])
	}
	merged.AddTo(&s.setupStats)
	if err := par.FirstErr(errs); err != nil {
		return nil, fmt.Errorf("core: building saver: %w", err)
	}
	log.Debug("disc: η-radius precompute done", "tuples", r.N(),
		"duration", s.setup.etaRadius, "knn_queries", merged.KNNQueries,
		"dist_evals", merged.DistEvals)
	return s, nil
}

// Rel returns the inlier relation r.
func (s *Saver) Rel() *data.Relation { return s.rel }

// Index returns the neighbor index over r the saver queries. It is the
// structure a session-caching layer amortizes: built once (by
// NewSaverContext or supplied via Options.Index), it serves every
// subsequent SaveOne call without rebuilding. The index is safe for
// concurrent readers; wrap it with neighbors.Counting to meter per-caller
// query traffic.
func (s *Saver) Index() neighbors.Index { return s.idx }

// SetupStats returns the index traffic of the saver's construction (the
// η-radius precompute) and the one-off phase durations: the builds of the
// indexes the saver made itself (its inlier index unless Options.Index
// supplied one, plus its attribute-group indexes) and the precompute.
func (s *Saver) SetupStats() (stats obs.SearchStats, indexBuild, etaRadius time.Duration) {
	return s.setupStats, s.setup.indexBuild, s.setup.etaRadius
}

// AttributeGroups returns the attribute groups the saver indexes for its
// pigeonhole candidate filter, or nil off the κ path (see
// attributeGroups). The slices belong to the group indexes: callers must
// not modify them.
func (s *Saver) AttributeGroups() [][]int {
	if s.groups == nil {
		return nil
	}
	groups := make([][]int, len(s.groups))
	for g, idx := range s.groups {
		groups[g] = neighbors.KernelOf(idx).Cols()
	}
	return groups
}

// Constraints returns the saver's (ε, η).
func (s *Saver) Constraints() Constraints { return s.cons }

// saveState is the per-outlier working set of Algorithm 1. Candidates are
// compacted: position c stands for inlier ids[c], so the distance tables
// only cover tuples that can ever matter. All slice fields are backed by a
// saveArena and valid only for the duration of one save.
type saveState struct {
	// ar owns the scratch slabs the recursion draws from.
	ar *saveArena
	// ids maps compact candidate positions to tuple indexes in r.
	ids []int
	// attrD[c*m+a] is the per-attribute distance Δ(t_o[a], t_{ids[c]}[a])
	// — squared under L2 so subset aggregates are additive.
	attrD []float64
	// fullD[c] is the full-space aggregate (squared under L2).
	fullD []float64
	// κ path only: hot[c] marks candidate c's terms above ε (in
	// accumulator units) and coldD[c] aggregates the rest, folded in
	// attribute order like fullD. A start mask containing a hot attribute
	// is rejected outright; otherwise only cold terms are subtracted, so
	// every operand stays on the scale of ε (see maskFilter).
	hot   []data.AttrMask
	coldD []float64
	// visited memoizes processed X masks.
	visited map[data.AttrMask]struct{}
	// best solution so far.
	bestCost float64 // actual (non-squared) cost
	bestT2   int     // inlier (tuple index in r) donating the R\X values (-1: none)
	bestX    data.AttrMask
	// bud meters the search against MaxNodes/Deadline/ctx.
	bud budget
	// stats points at the arena's counter shard; plain increments, owned
	// exclusively by this save.
	stats *obs.SearchStats
}

// SaveOne finds the near-optimal adjustment of the outlier tuple to
// (Algorithm 1). The caller must ensure that to actually violates the
// constraints; saving an inlier simply returns a zero-cost adjustment.
//
// The search runs under a budget: it stops as soon as ctx is cancelled,
// Options.Deadline elapses, or Options.MaxNodes search nodes have been
// expanded, returning the best-so-far adjustment with Exhausted set.
// Whenever any answer was found before the trip it is feasible — every
// intermediate solution is a Lemma 4 / Proposition 5 witness, so degrading
// never fabricates an infeasible repair.
//
// The saver's index, η-radius table and arena pool are all reused across
// calls — repeated SaveOne calls on a warm saver rebuild nothing and
// allocate at most the composed tuple of a saved answer — and concurrent
// calls are safe: each draws its own arena from the pool and the shared
// structures are read-only.
func (s *Saver) SaveOne(ctx context.Context, to data.Tuple) Adjustment {
	ar := s.arenas.Get().(*saveArena)
	adj := s.save(ctx, to, ar)
	s.arenas.Put(ar)
	return adj
}

// save runs one Algorithm 1 search with its scratch memory drawn from ar.
// The arena must not be shared with a concurrent save.
func (s *Saver) save(ctx context.Context, to data.Tuple, ar *saveArena) Adjustment {
	ar.reset(s.m)
	// The counting views of the index and the attribute groups are cached
	// on the arena (one per worker), so instrumentation adds no
	// steady-state allocations; their counters are the arena's shard,
	// zeroed by reset above.
	if ar.owner != s {
		ar.owner = s
		ar.cidx = neighbors.Counting(s.idx, &ar.nc)
		ar.gidx = ar.gidx[:0]
		for _, g := range s.groups {
			ar.gidx = append(ar.gidx, neighbors.Counting(g, &ar.nc))
		}
	}
	cidx := ar.cidx
	st := &ar.st
	*st = saveState{
		ar:       ar,
		visited:  ar.visited,
		bestCost: math.Inf(1),
		bestT2:   -1,
		bud:      makeBudget(ctx, s.opts),
		stats:    &ar.stats,
	}
	sch := s.rel.Schema

	kappaRestricted := s.opts.Kappa > 0 && s.opts.Kappa < s.m

	// Initialization (§3.3.2, Lemma 4): the nearest inlier satisfying the
	// constraints is itself a feasible adjustment, adjusting all
	// attributes (X = ∅ upper bound). It also bounds which inliers can
	// ever improve the solution: a candidate of any node must be within ε
	// on X, so a donor with Δ(t_o, t) > ε + bestCost can never yield a
	// cheaper composite. Under the κ restriction the nearest inlier is
	// not an admissible answer (it adjusts every attribute), so both the
	// initialization and the truncation are skipped.
	if !kappaRestricted {
		if nn, cost := s.initialBound(cidx, to); nn >= 0 {
			st.bestT2 = nn
			st.bestX = 0
			st.bestCost = cost
		}
	}

	// Materialize the compact candidate tables in the arena through the
	// compiled kernel: the outlier binds once, per-attribute distances read
	// flat columns, and repeated text values hit the pair cache / query
	// memo instead of re-running Levenshtein.
	kq := s.kern.Bind(to)
	if kappaRestricted {
		s.screen(st, kq, s.candidateRows(ar, to))
	} else {
		s.fill(st, cidx, kq, to)
	}
	st.stats.TextCacheHits += kq.TextCacheHits
	st.stats.TextCacheMisses += kq.TextCacheMisses
	kq.Release()

	// Root candidate set: X = ∅ admits every (truncated) inlier. The root
	// lists live in the depth-0 slabs; recurse builds each child's list in
	// the slab one depth down.
	c := len(st.ids)
	cand := ar.intsAt(0, c)[:c]
	subD := ar.floatsAt(0, c)[:c] // d_X aggregate per candidate (squared under L2)
	for ci := range cand {
		cand[ci] = ci
		subD[ci] = 0
	}

	if kappaRestricted {
		s.forEachStartMask(st, cand)
	} else {
		s.recurse(st, 0, cand, subD)
	}

	// Seal this save's counter shard: node and trip counts from the
	// budget, index traffic from the counting view.
	st.stats.Nodes = int64(st.bud.nodes)
	if st.bud.exhausted {
		st.stats.BudgetTrips = 1
	}
	ar.nc.AddTo(st.stats)

	if st.bestT2 < 0 {
		// Natural is only a sound classification when the search ran to
		// completion: an exhausted budget means "no adjustment found in
		// time", not "no feasible adjustment exists" (§1.2).
		return Adjustment{
			Index:     -1,
			Cost:      math.Inf(1),
			Natural:   !st.bud.exhausted,
			Nodes:     st.bud.nodes,
			Exhausted: st.bud.exhausted,
			Stats:     *st.stats,
		}
	}
	adj := data.Compose(to, s.rel.Tuples[st.bestT2], st.bestX)
	return Adjustment{
		Index:     -1,
		Tuple:     adj,
		Cost:      st.bestCost,
		Adjusted:  data.DiffMask(sch, to, adj),
		Nodes:     st.bud.nodes,
		Exhausted: st.bud.exhausted,
		Stats:     *st.stats,
	}
}

// Mutable returns the mutable wrapper behind the saver's index, or nil
// when the saver was built over a static index.
func (s *Saver) Mutable() *neighbors.Mutable { return s.mut }

// InsertInlier appends t to the inlier relation through the mutable
// index, extending the η-radius table with a +Inf placeholder, and
// returns the new physical row index. The caller must follow up with
// RefreshRadii(t) — the placeholder makes the new row temporarily
// useless as a Proposition 5 donor, never unsound. Panics on a static
// saver. Like all the mutation surface, the call must be serialized
// against concurrent saves by the caller (the serving layer holds a
// session-wide write lock).
func (s *Saver) InsertInlier(t data.Tuple) int {
	i := s.mut.Insert(t)
	for len(s.etaRadius) <= i {
		s.etaRadius = append(s.etaRadius, math.Inf(1))
	}
	return i
}

// RemoveInlier tombstones inlier row i. Its η-radius entry goes stale in
// place; the index never reports tombstoned rows and the all-rows
// fallback skips them, so the stale value is unreachable.
func (s *Saver) RemoveInlier(i int) { s.mut.Delete(i) }

// RefreshRadii recomputes the exact η-th-neighbor radius of every live
// inlier within ε of center (the locality bound: a membership change at
// distance > ε from a tuple cannot move its δ_η across the only
// threshold the saver tests, δ_η ≤ ε − d with d ≥ 0, so radii outside
// the ball may drift above ε without ever changing a feasibility
// answer). Call it once per mutated value — old value, new value, and
// each tuple whose inlier/outlier status flipped — after all membership
// changes of the mutation have been applied. Returns the number of rows
// refreshed.
func (s *Saver) RefreshRadii(center data.Tuple) int {
	if s.mut == nil {
		return 0
	}
	ball := s.idx.Within(center, s.cons.Eps, -1)
	for _, nb := range ball {
		i := nb.Idx
		nn := s.idx.KNN(s.rel.Tuples[i], s.cons.Eta, i)
		if len(nn) < s.cons.Eta {
			s.etaRadius[i] = math.Inf(1)
		} else {
			s.etaRadius[i] = nn[s.cons.Eta-1].Dist
		}
	}
	return len(ball)
}

// initialBound finds the nearest inlier whose η-th-neighbor radius fits
// inside ε (a feasible whole-tuple substitution, Lemma 4) and returns its
// tuple index in r and its distance to to; (-1, +Inf) when r has no
// feasible position at all. idx is the calling save's (counting) index
// view.
func (s *Saver) initialBound(idx neighbors.Index, to data.Tuple) (int, float64) {
	// Grow k geometrically: the nearest feasible inlier is almost always
	// among the first few nearest neighbors. Each round resumes where the
	// previous one stopped — KNN(k) is a prefix of KNN(4k) because every
	// index breaks distance ties deterministically by tuple index — so the
	// η-radius check never re-scans positions already rejected.
	checked := 0
	for k := 4; ; k *= 4 {
		nn := idx.KNN(to, k, -1)
		for _, nb := range nn[min(checked, len(nn)):] {
			if s.etaRadius[nb.Idx] <= s.cons.Eps {
				return nb.Idx, nb.Dist
			}
		}
		if len(nn) < k { // exhausted r
			return -1, math.Inf(1)
		}
		checked = len(nn)
	}
}

// accumulate folds one per-attribute distance (already squared under L2)
// into the norm accumulator.
func (s *Saver) accumulate(acc, d float64) float64 {
	if s.sqNorm {
		return acc + d
	}
	return s.rel.Schema.Norm.Accumulate(acc, d)
}

// finish converts an accumulator into an actual distance.
func (s *Saver) finish(acc float64) float64 {
	if s.sqNorm {
		return math.Sqrt(acc)
	}
	return s.rel.Schema.Norm.Finish(acc)
}

// threshold converts ε into accumulator units for comparisons.
func (s *Saver) threshold(eps float64) float64 {
	if eps < 0 {
		return -1 // no candidate can have a negative aggregate
	}
	if s.sqNorm {
		return eps * eps
	}
	return eps
}

// recurse processes the unadjusted set x with its candidate list
// cand = r_ε(t_o[X]) and per-candidate subspace aggregates subD (aligned
// with cand).
func (s *Saver) recurse(st *saveState, x data.AttrMask, cand []int, subD []float64) {
	if !s.opts.DisableMemo {
		if _, seen := st.visited[x]; seen {
			st.stats.MemoHits++
			return
		}
		st.visited[x] = struct{}{}
	}
	if st.bud.stopped() {
		return
	}

	// Proposition 3: fewer than η candidates on X means no feasible
	// adjustment keeps t_o[X]; prune the whole branch (children's
	// candidate sets only shrink).
	if len(cand) < s.cons.Eta {
		st.stats.CandPrunes++
		return
	}

	// Lower bound: Δ(t_o, t_1) − ε with t_1 the η-th nearest candidate by
	// full-space distance.
	if !s.opts.DisablePruning {
		kth := quickselectKth(st, cand, s.cons.Eta)
		if s.finish(kth)-s.cons.Eps >= st.bestCost {
			st.stats.LBPrunes++
			return
		}
	}

	// The mask survived the prune gates, so it is now expanded — the
	// candidate scan and child construction below are the O(m·|cand|) work
	// the O(m^{κ+1}·n) analysis counts — and only expansions spend from the
	// node budget. Pruned visits cost one quickselect and are bounded by
	// m × the expansion count, so MaxNodes still caps total work.
	if st.bud.spend() {
		return
	}

	// Upper bound (Proposition 5): t_2 ∈ r_ε(t_o[X]) with
	// δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]); the composite t_o[X] ⊕ t_2[R\X]
	// is feasible and costs Δ(t_o[R\X], t_2[R\X]).
	for li, c := range cand {
		dx := s.finish(subD[li])
		if s.etaRadius[st.ids[c]] > s.cons.Eps-dx {
			continue
		}
		st.stats.UBWitnesses++
		cost := s.finish(s.residual(st, subD[li], c, x))
		if cost < st.bestCost {
			st.stats.BestUpdates++
			st.bestCost = cost
			st.bestT2 = st.ids[c]
			st.bestX = x
		}
	}

	// Recurse on X ∪ {A} for each adjustable attribute A. Each child list
	// is built in the slab for depth |X|+1: the previous child at that
	// depth has fully unwound by the time the next one is filtered, so the
	// slab is free for reuse and the whole descent allocates nothing.
	epsAcc := s.threshold(s.cons.Eps)
	depth := x.Count()
	for a := 0; a < s.m; a++ {
		if st.bud.exhausted {
			return // unwind without building more child candidate sets
		}
		if x.Has(a) {
			continue
		}
		child := x.With(a)
		if !s.opts.DisableMemo {
			if _, seen := st.visited[child]; seen {
				st.stats.MemoHits++
				continue
			}
		}
		childCand := st.ar.intsAt(depth+1, len(cand))
		childSub := st.ar.floatsAt(depth+1, len(cand))
		for li, c := range cand {
			nd := s.accumulate(subD[li], st.attrD[c*s.m+a])
			if nd <= epsAcc {
				childCand = append(childCand, c)
				childSub = append(childSub, nd)
			}
		}
		s.recurse(st, child, childCand, childSub)
	}
}

// residual returns the aggregate of per-attribute distances over R\X for
// candidate i, in accumulator units. L2 (squared) and L1 aggregates
// subtract; L∞ does not decompose, so it is recomputed over R\X.
func (s *Saver) residual(st *saveState, sub float64, i int, x data.AttrMask) float64 {
	if s.sqNorm || s.rel.Schema.Norm == metric.L1 {
		r := st.fullD[i] - sub
		if r < 0 {
			return 0
		}
		return r
	}
	acc := 0.0
	for a := 0; a < s.m; a++ {
		if x.Has(a) {
			continue
		}
		acc = s.rel.Schema.Norm.Accumulate(acc, st.attrD[i*s.m+a])
	}
	return acc
}

// fill builds the unrestricted path's candidate tables: the inliers within
// ε + bestCost of to (Lemma 4 truncation), or every live inlier when no
// initial bound was found, each with its full per-attribute row and fullD.
func (s *Saver) fill(st *saveState, cidx neighbors.Index, kq *data.KernelQuery, to data.Tuple) {
	ar := st.ar
	if math.IsInf(st.bestCost, 1) {
		st.ids = grow(ar.ids, s.rel.N())[:0]
		for i, n := 0, s.rel.N(); i < n; i++ {
			// Tombstoned rows of a mutable inlier set are invisible to the
			// index but still occupy physical slots; the all-rows fallback
			// must skip them too.
			if s.mut != nil && !s.mut.Alive(i) {
				continue
			}
			st.ids = append(st.ids, i)
		}
	} else {
		ball := cidx.Within(to, s.cons.Eps+st.bestCost, -1)
		st.ids = grow(ar.ids, len(ball))
		for c, nb := range ball {
			st.ids[c] = nb.Idx
		}
	}
	st.stats.Candidates = int64(len(st.ids))
	ar.ids = st.ids
	st.attrD = grow(ar.attrD, len(st.ids)*s.m)
	ar.attrD = st.attrD
	st.fullD = grow(ar.fullD, len(st.ids))
	ar.fullD = st.fullD
	for ci, i := range st.ids {
		acc := 0.0
		for a := 0; a < s.m; a++ {
			d := kq.AttrDist(a, i)
			if s.sqNorm {
				d = d * d
			}
			st.attrD[ci*s.m+a] = d
			acc = s.accumulate(acc, d)
		}
		st.fullD[ci] = acc
	}
}

// attributeGroups is the one rule for the pigeonhole candidate filter: on
// the κ path (0 < κ < m) it returns the κ+1 disjoint attribute groups the
// saver indexes, else nil. No (m, κ, n) keeps the full live-row screen:
// where the union of the group hits nears every inlier (GenMixed at
// κ = m−1) the group queries add up to a quarter to a save, while a
// cutoff on the union share predicted from inlier pairs misjudges the
// outliers by far — on the lattice it predicts every row and the outliers
// hit none (docs/PERFORMANCE.md, "Pigeonhole candidates").
//
// The partition balances selectivity, since the least selective group
// bounds the union. Each attribute's ε-hit rate p_a is estimated over a
// fixed sample of inlier pairs (groupSampleQueries rows against
// groupSampleTargets others, Laplace-smoothed); attributes are dealt most
// selective first, each to the group whose Σ −log p_a is smallest so far.
func (s *Saver) attributeGroups() [][]int {
	m, kappa, n := s.m, s.opts.Kappa, s.rel.N()
	if kappa <= 0 || kappa >= m {
		return nil
	}
	cost := make([]float64, m) // −log p_a
	for a := range cost {
		hits, pairs := 0, 0
		for q := 0; q < groupSampleQueries; q++ {
			i := q * n / groupSampleQueries
			for t := 0; t < groupSampleTargets; t++ {
				if j := (2*t + 1) * n / (2 * groupSampleTargets); j != i {
					pairs++
					if s.kern.AttrDist(a, i, j) <= s.cons.Eps {
						hits++
					}
				}
			}
		}
		cost[a] = -math.Log(float64(hits+1) / float64(pairs+2))
	}
	order := make([]int, m)
	for a := range order {
		order[a] = a
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	groups := make([][]int, kappa+1)
	load := make([]float64, kappa+1)
	for _, a := range order {
		g := 0
		for h := range load {
			if load[h] < load[g] {
				g = h
			}
		}
		groups[g] = append(groups[g], a)
		load[g] += cost[a]
	}
	for _, cols := range groups {
		slices.Sort(cols)
	}
	return groups
}

// The inlier-pair sample behind attributeGroups' hit rates.
const (
	groupSampleQueries = 16
	groupSampleTargets = 64
)

// indexGroups builds one ε-range index per attribute group: a projection
// of the saver's Mutable when it has one, so every InsertInlier and
// RemoveInlier reaches the groups too, else a projection of its kernel.
func (s *Saver) indexGroups(groups [][]int) {
	s.groups = make([]neighbors.Index, len(groups))
	for g, cols := range groups {
		if s.mut != nil {
			s.groups[g] = s.mut.Project(cols)
		} else {
			s.groups[g] = neighbors.Project(s.rel, s.kern, cols, s.cons.Eps)
		}
	}
}

// candidateRows marks, in the arena's row bitset, the inliers the κ screen
// reads. Every κ-path saver has attribute groups; without them (the
// differential tests' reference screen) that is every live inlier. With
// them it is the union of each group's ε-range hits around to: a start mask X
// (|X| = m−κ) misses at most κ attributes, so it wholly contains one of
// the κ+1 disjoint groups, whose aggregate is at most X's (the terms are
// non-negative) — every inlier the screen keeps lies within ε of to on
// some group. The query radius carries a relative slack of (4m+16) unit
// roundoffs, because the screen folds the terms of X in eviction order
// while a group index folds its own in attribute order; extra rows only
// cost screen work, never change its answer.
func (s *Saver) candidateRows(ar *saveArena, to data.Tuple) []uint64 {
	n := s.rel.N()
	rows := grow(ar.rows, (n+63)/64)
	ar.rows = rows
	clear(rows)
	if len(ar.gidx) == 0 {
		for i := 0; i < n; i++ {
			// Tombstoned rows of a mutable inlier set are invisible to the
			// index but still occupy physical slots.
			if s.mut == nil || s.mut.Alive(i) {
				rows[i>>6] |= 1 << (i & 63)
			}
		}
		return rows
	}
	radius := s.cons.Eps * (1 + float64(4*s.m+16)*0x1p-53)
	for _, g := range ar.gidx {
		ar.hits = neighbors.WithinBuf(g, ar.hits, to, radius, -1)
		for _, nb := range ar.hits {
			rows[nb.Idx>>6] |= 1 << (nb.Idx & 63)
		}
	}
	return rows
}

// screen fills the κ path's candidate tables with one pass over the rows
// marked in the bitset rows (see candidateRows), in inlier order, keeping
// only those some start mask |X| = m−κ admits. Each inlier's terms are
// read in attribute order (squared under L2); the κ largest so far sit in
// the arena's top buffer, and every term pushed out of it is folded into
// rest, so after j attributes rest aggregates the j−κ smallest terms
// read. A sum (L1, squared L2) or max (L∞) of
// non-negative terms never decreases, and at j = m rest is the best
// aggregate over any |X| = m−κ, so the inlier is dropped the moment rest
// exceeds ε: no start mask can admit it. Survivors keep their full row
// and fullD, accumulated in attribute order like the unrestricted fill,
// plus their hot set (terms > ε, at most κ of them: they sit among the κ
// largest) and coldD, the same fold over the other terms.
func (s *Saver) screen(st *saveState, kq *data.KernelQuery, rows []uint64) {
	ar := st.ar
	m, n := s.m, s.rel.N()
	epsAcc := s.threshold(s.cons.Eps)
	ids := grow(ar.ids, n)[:0]
	attrD := grow(ar.attrD, n*m)
	fullD := grow(ar.fullD, n)
	hot := grow(ar.hot, n)
	coldD := grow(ar.coldD, n)
	top := grow(ar.top, s.opts.Kappa)
	var read int64
	for w, word := range rows {
	inliers:
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			read++
			c := len(ids)
			row := attrD[c*m : c*m+m]
			clear(top)
			rest := 0.0
			for a := 0; a < m; a++ {
				d := kq.AttrDist(a, i)
				if s.sqNorm {
					d = d * d
				}
				row[a] = d
				for k := range top {
					if d > top[k] {
						d, top[k] = top[k], d
					}
				}
				if rest = s.accumulate(rest, d); rest > epsAcc {
					continue inliers
				}
			}
			full, cold := 0.0, 0.0
			var h data.AttrMask
			for a, d := range row {
				full = s.accumulate(full, d)
				if d > epsAcc {
					h = h.With(a)
				} else {
					cold = s.accumulate(cold, d)
				}
			}
			ids = append(ids, i)
			fullD[c], hot[c], coldD[c] = full, h, cold
		}
	}
	st.stats.Candidates = read
	st.stats.KappaPrefiltered = read - int64(len(ids))
	ar.ids, ar.attrD, ar.fullD, ar.hot, ar.coldD, ar.top = ids, attrD, fullD, hot, coldD, top
	st.ids = ids
	st.attrD = attrD[:len(ids)*m]
	st.fullD = fullD[:len(ids)]
	st.hot = hot[:len(ids)]
	st.coldD = coldD[:len(ids)]
}

// forEachStartMask enumerates every X with |X| = m−κ and runs the
// recursion from each, sharing the memo table so overlapping supersets are
// processed once (the O(m^{κ+1}·n) bound of §3.3). Enumeration iterates
// over the κ-sized complements C = R\X, so maskFilter's decomposable step
// is O(κ) per candidate instead of O(m−κ). rootCand holds only the
// screen's survivors.
func (s *Saver) forEachStartMask(st *saveState, rootCand []int) {
	m := s.m
	kappa := s.opts.Kappa
	compl := grow(st.ar.compl, kappa)
	st.ar.compl = compl
	for i := range compl {
		compl[i] = i
	}
	for {
		if st.bud.stopped() {
			return
		}
		x := data.FullMask(m)
		for _, a := range compl {
			x = x.Without(a)
		}
		cand, sub := s.maskFilter(st, rootCand, x, compl)
		st.stats.KappaMasks++
		s.recurse(st, x, cand, sub)

		// Next complement combination (lexicographic).
		j := kappa - 1
		for j >= 0 && compl[j] == m-kappa+j {
			j--
		}
		if j < 0 {
			return
		}
		compl[j]++
		for l := j + 1; l < kappa; l++ {
			compl[l] = compl[l-1] + 1
		}
	}
}

// maskFilter narrows the screen's survivors rootCand to r_ε(t_o[X]) for
// the start mask x with complement compl, returning the kept candidates
// and their X aggregates in the slab for depth m−κ (reused across masks;
// recurse only reads it). A candidate with a hot attribute inside x is
// rejected with no arithmetic: its X aggregate holds a term above ε.
// Otherwise, under the decomposable norms, the aggregate is coldD minus
// the cold complement terms — never fullD minus a huge term, whose
// cancellation error would be about ulp(fullD) and could exceed ε; every
// operand here is at most m·ε. L∞ does not decompose and is taken
// directly over x.
func (s *Saver) maskFilter(st *saveState, rootCand []int, x data.AttrMask, compl []int) ([]int, []float64) {
	m := s.m
	epsAcc := s.threshold(s.cons.Eps)
	decomposable := s.sqNorm || s.rel.Schema.Norm == metric.L1
	cand := st.ar.intsAt(m-s.opts.Kappa, len(rootCand))
	sub := st.ar.floatsAt(m-s.opts.Kappa, len(rootCand))
	for _, c := range rootCand {
		h := st.hot[c]
		if h&x != 0 {
			continue
		}
		var acc float64
		if decomposable {
			acc = st.coldD[c]
			for _, a := range compl {
				if !h.Has(a) {
					acc -= st.attrD[c*m+a]
				}
			}
			if acc < 0 {
				acc = 0 // guard float cancellation
			}
		} else {
			for a := 0; a < m; a++ {
				if x.Has(a) {
					acc = s.accumulate(acc, st.attrD[c*m+a])
				}
			}
		}
		if acc <= epsAcc {
			cand = append(cand, c)
			sub = append(sub, acc)
		}
	}
	return cand, sub
}

// quickselectKth returns the k-th smallest (1-based) full-space aggregate
// among the candidates, without fully sorting. The value scratch is arena
// scratch: quickselect finishes before the recursion continues, so one
// buffer serves every node.
func quickselectKth(st *saveState, cand []int, k int) float64 {
	vals := grow(st.ar.qsel, len(cand))
	st.ar.qsel = vals
	for ci, i := range cand {
		vals[ci] = st.fullD[i]
	}
	return quickselect(vals, k-1)
}

// quickselect returns the element with rank k (0-based) in ascending order,
// partially reordering vals in place.
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		p := partition(vals, lo, hi)
		switch {
		case k == p:
			return vals[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return vals[k]
}

func partition(vals []float64, lo, hi int) int {
	// Median-of-three pivot defends against sorted inputs.
	mid := (lo + hi) / 2
	if vals[mid] < vals[lo] {
		vals[mid], vals[lo] = vals[lo], vals[mid]
	}
	if vals[hi] < vals[lo] {
		vals[hi], vals[lo] = vals[lo], vals[hi]
	}
	if vals[hi] < vals[mid] {
		vals[hi], vals[mid] = vals[mid], vals[hi]
	}
	pivot := vals[mid]
	vals[mid], vals[hi] = vals[hi], vals[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if vals[j] < pivot {
			vals[i], vals[j] = vals[j], vals[i]
			i++
		}
	}
	vals[i], vals[hi] = vals[hi], vals[i]
	return i
}
