package clean

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// SCARE reproduces the scalable automatic repair of Yakout et al. [46]
// (§5): repairs maximize the data likelihood w.r.t. a statistical model
// under a bounded total change budget. The likelihood model here is the
// local-neighborhood density the rest of the library uses: a cell repair
// is a candidate when replacing the value with a neighborhood-consensus
// value increases the tuple's likelihood (ε-neighbor count), and
// candidates are applied in decreasing likelihood-gain order until the
// change budget is exhausted. As the paper notes, SCARE does not beat
// ERACER on these workloads — the budgeted greedy both misses errors
// (budget spent) and over-changes (likelihood favors dense regions).
type SCARE struct {
	// Eps is the neighborhood radius of the likelihood model (≤ 0
	// derives it from the median 8-NN distance).
	Eps float64
	// Budget bounds the total adjustment cost, the paper's "bounded
	// changes" knob; ≤ 0 means unbounded (repair every cell whose
	// likelihood gain is positive).
	Budget float64
	// MaxCandidates bounds the per-attribute consensus candidates
	// (default 8).
	MaxCandidates int
}

// Clean implements Cleaner.
func (s *SCARE) Clean(rel *data.Relation) (*data.Relation, error) {
	for _, a := range rel.Schema.Attrs {
		if a.Kind != data.Numeric {
			return nil, fmt.Errorf("clean: SCARE supports only numeric attributes, got %q", a.Name)
		}
	}
	out := rel.Clone()
	n := out.N()
	if n < 16 {
		return out, nil
	}
	eps := s.Eps
	idx := neighbors.Build(out, eps)
	if eps <= 0 {
		eps = medianKNNDist(out, idx, 8) * 2
		if eps <= 0 {
			return out, nil
		}
		idx = neighbors.Build(out, eps)
	}
	budget := s.Budget
	if budget <= 0 {
		budget = math.Inf(1)
	}
	maxCand := s.MaxCandidates
	if maxCand <= 0 {
		maxCand = 8
	}

	// Candidate repairs: for each low-likelihood tuple, per attribute,
	// the consensus value of the tuple's nearest neighbors on the other
	// attributes.
	type cand struct {
		i, a  int
		value float64
		gain  float64 // likelihood gain (neighbor-count increase)
		cost  float64
	}
	m := out.Schema.M()
	var cands []cand
	for i, t := range out.Tuples {
		base := idx.CountWithin(t, eps, i, 0)
		if base >= 8 {
			continue // already likely; SCARE's model leaves it alone
		}
		for a := 0; a < m; a++ {
			v, ok := consensusValue(out, idx, i, a, maxCand)
			if !ok || v == t[a].Num {
				continue
			}
			trial := t.Clone()
			trial[a] = data.Num(v)
			gain := float64(idx.CountWithin(trial, eps, i, 0) - base)
			if gain <= 0 {
				continue
			}
			cands = append(cands, cand{i: i, a: a, value: v,
				gain: gain, cost: math.Abs(v - t[a].Num)})
		}
	}
	// Greedy by likelihood gain per unit cost, under the global budget.
	sort.Slice(cands, func(x, y int) bool {
		gx := cands[x].gain / (cands[x].cost + 1e-12)
		gy := cands[y].gain / (cands[y].cost + 1e-12)
		if gx != gy {
			return gx > gy
		}
		return cands[x].cost < cands[y].cost
	})
	spent := 0.0
	repaired := map[[2]int]bool{}
	for _, c := range cands {
		if spent+c.cost > budget {
			continue
		}
		key := [2]int{c.i, c.a}
		if repaired[key] {
			continue
		}
		out.Tuples[c.i][c.a] = data.Num(c.value)
		repaired[key] = true
		spent += c.cost
	}
	return out, nil
}

// medianKNNDist returns the median k-th-NN distance over a subsample.
func medianKNNDist(rel *data.Relation, idx neighbors.Index, k int) float64 {
	n := rel.N()
	step := 1
	if n > 128 {
		step = n / 128
	}
	var ds []float64
	for i := 0; i < n; i += step {
		nn := idx.KNN(rel.Tuples[i], k, i)
		if len(nn) > 0 {
			ds = append(ds, nn[len(nn)-1].Dist)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// consensusValue predicts attribute a of tuple i from the tuples nearest
// on the remaining attributes: their median value of a.
func consensusValue(rel *data.Relation, idx neighbors.Index, i, a, k int) (float64, bool) {
	m := rel.Schema.M()
	mask := data.FullMask(m).Without(a)
	// Nearest by subspace distance; brute scan (SCARE's batch model is
	// not latency-sensitive).
	type dcand struct {
		j int
		d float64
	}
	var best []dcand
	for j, t := range rel.Tuples {
		if j == i {
			continue
		}
		d := rel.Schema.DistOn(rel.Tuples[i], t, mask)
		best = append(best, dcand{j: j, d: d})
	}
	if len(best) == 0 {
		return 0, false
	}
	sort.Slice(best, func(x, y int) bool { return best[x].d < best[y].d })
	if k > len(best) {
		k = len(best)
	}
	vals := make([]float64, k)
	for x := 0; x < k; x++ {
		vals[x] = rel.Tuples[best[x].j][a].Num
	}
	sort.Float64s(vals)
	return vals[len(vals)/2], true
}
