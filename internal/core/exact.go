package core

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// ExactSaver implements the straightforward O(d^m·n) algorithm of §2.3:
// enumerate every combination of observed attribute values as a candidate
// adjustment and return the cheapest feasible one. It is exponential in the
// number of attributes (Figure 7b) but optimal within the enumerated
// domains, serving as the accuracy yardstick of Figures 6–7.
type ExactSaver struct {
	rel     *data.Relation
	cons    Constraints
	idx     neighbors.Index
	domains [][]data.Value
	// Kappa bounds the number of adjusted attributes, mirroring the DISC
	// κ policy of §1.2 (≤ 0: unrestricted). Outliers with no feasible
	// ≤ κ-attribute repair are left unchanged (natural).
	Kappa int
	// MaxNodes bounds the enumeration nodes expanded per save (≤ 0:
	// unlimited) and Deadline the wall clock per save (0: none),
	// mirroring Options for the approximate saver. The d^m enumeration is
	// the pipeline's worst runaway; a tripped budget returns the
	// best-so-far adjustment flagged Exhausted — still feasible, no
	// longer guaranteed optimal.
	MaxNodes int
	Deadline time.Duration
}

// NewExactSaver prepares the enumeration over r. domains may be nil, in
// which case the observed per-attribute domains of r are used (the paper's
// "all the values in each attribute"). maxDomain > 0 subsamples each domain
// to at most that many values (evenly for numeric attributes) to keep d^m
// tractable in benches; 0 keeps full domains.
func NewExactSaver(r *data.Relation, cons Constraints, maxDomain int) (*ExactSaver, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	doms := data.Domain(r)
	if maxDomain > 0 {
		for a := range doms {
			doms[a] = thinDomain(doms[a], maxDomain)
		}
	}
	return &ExactSaver{
		rel:     r,
		cons:    cons,
		idx:     neighbors.Build(r, cons.Eps),
		domains: doms,
	}, nil
}

// thinDomain keeps at most k values, evenly spaced across the sorted
// domain so the coverage of the value range is preserved.
func thinDomain(vals []data.Value, k int) []data.Value {
	if len(vals) <= k {
		return vals
	}
	out := make([]data.Value, 0, k)
	step := float64(len(vals)-1) / float64(k-1)
	last := -1
	for i := 0; i < k; i++ {
		j := int(math.Round(float64(i) * step))
		if j == last {
			continue
		}
		out = append(out, vals[j])
		last = j
	}
	return out
}

// SaveOne enumerates candidate adjustments of to in best-first
// per-attribute cost order with partial-cost pruning, returning the
// minimum-cost feasible adjustment. The search is exact over the (possibly
// thinned) domains. It runs under a budget: the enumeration stops as soon
// as ctx is cancelled, Deadline elapses, or MaxNodes nodes have been
// expanded, returning the best feasible adjustment found so far flagged
// Exhausted (optimality no longer holds; feasibility of any returned tuple
// does).
func (e *ExactSaver) SaveOne(ctx context.Context, to data.Tuple) Adjustment {
	m := e.rel.Schema.M()
	sch := e.rel.Schema
	bud := newBudget(ctx, Options{MaxNodes: e.MaxNodes, Deadline: e.Deadline})

	// Candidate values per attribute, sorted by adjustment cost on that
	// attribute; the original value (cost 0) comes first.
	type cval struct {
		v data.Value
		d float64 // per-attribute distance to to[a] (squared under L2-style accumulate)
	}
	cands := make([][]cval, m)
	for a := 0; a < m; a++ {
		seen := false
		cs := make([]cval, 0, len(e.domains[a])+1)
		for _, v := range e.domains[a] {
			d := sch.AttrDist(a, to[a], v)
			if d == 0 {
				seen = true
			}
			cs = append(cs, cval{v: v, d: d})
		}
		if !seen {
			cs = append(cs, cval{v: to[a], d: 0})
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].d < cs[j].d })
		cands[a] = cs
	}

	best := Adjustment{Index: -1, Cost: math.Inf(1), Natural: true}
	// Lemma 4 initialization: the nearest inlier position satisfying the
	// constraints is itself a feasible whole-tuple adjustment; starting
	// from its cost lets the partial-cost pruning cut the bulk of the
	// d^m enumeration. Under the κ restriction a whole-tuple substitution
	// is not an admissible answer, so the search starts unbounded.
	kappa := e.Kappa
	if kappa <= 0 || kappa > m {
		kappa = m
	}
	if kappa == m {
		for k := 8; ; k *= 4 {
			nn := e.idx.KNN(to, k, -1)
			found := false
			for _, nb := range nn {
				t := e.rel.Tuples[nb.Idx]
				if neighbors.CountWithinAtLeast(e.idx, t, e.cons.Eps, nb.Idx, e.cons.Eta) {
					best = Adjustment{
						Index:    -1,
						Tuple:    t.Clone(),
						Cost:     nb.Dist,
						Adjusted: data.DiffMask(sch, to, t),
					}
					found = true
					break
				}
			}
			if found || len(nn) < k {
				break
			}
		}
	}
	cur := make(data.Tuple, m)

	var dfs func(a, changed int, acc float64)
	dfs = func(a, changed int, acc float64) {
		if bud.spend() {
			return
		}
		if sch.Norm.Finish(acc) >= best.Cost {
			return // partial cost already dominates; children only grow it
		}
		if a == m {
			cost := sch.Norm.Finish(acc)
			if neighbors.CountWithinAtLeast(e.idx, cur, e.cons.Eps, -1, e.cons.Eta) {
				best = Adjustment{
					Index:    -1,
					Tuple:    cur.Clone(),
					Cost:     cost,
					Adjusted: data.DiffMask(sch, to, cur),
				}
			}
			return
		}
		for _, cv := range cands[a] {
			nacc := sch.Norm.Accumulate(acc, cv.d)
			if sch.Norm.Finish(nacc) >= best.Cost {
				break // candidates are cost-sorted; the rest only cost more
			}
			nchanged := changed
			if !cv.v.Equal(to[a], sch.Attrs[a].Kind) {
				nchanged++
				if nchanged > kappa {
					continue
				}
			}
			cur[a] = cv.v
			dfs(a+1, nchanged, nacc)
		}
	}
	dfs(0, 0, 0)
	best.Nodes = bud.nodes
	if bud.exhausted {
		best.Exhausted = true
		if !best.Saved() {
			best.Natural = false // incomplete search proves nothing (§1.2)
		}
	}
	return best
}
