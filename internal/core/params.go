package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/par"
	"repro/internal/stats"
)

// ParamOptions tune the Poisson-based determination of (ε, η) (§2.1.2 and
// §4.2.2).
type ParamOptions struct {
	// SampleRate in (0, 1] counts ε-neighbors for only that fraction of
	// tuples (Figure 5c–d, Table 4); 0 means 1 (all tuples).
	SampleRate float64
	// Confidence is the cluster-membership probability p(N(ε) ≥ η) the
	// chosen η must retain; 0 means the paper's 0.99.
	Confidence float64
	// TargetOutlierRate is the fraction of tuples that should violate the
	// constraints under the chosen (ε, η): the paper prefers a
	// "moderately large ε" where a limited number of points fall below
	// the threshold. 0 means 0.10, matching Table 1's outlier rates.
	TargetOutlierRate float64
	// EpsCandidates overrides the automatically derived candidate grid.
	EpsCandidates []float64
	Seed          int64
}

// ParamChoice is a determined parameter setting.
type ParamChoice struct {
	Eps float64
	Eta int
	// Lambda is the fitted Poisson rate λε at Eps.
	Lambda float64
	// OutlierRate is the sampled fraction of tuples violating (Eps, Eta).
	OutlierRate float64
	// Exhausted marks a determination whose candidate grid was not fully
	// evaluated because the context was cancelled: the choice is the best
	// among the candidates measured so far, not over the whole grid.
	Exhausted bool
}

// NeighborCountsContext returns the number of ε-neighbors (self excluded)
// for the sampled tuples — the raw, uncapped distribution plotted in
// Figure 5. idx may be nil to build one. The counting pass stops promptly
// once ctx is cancelled and returns (nil, ctx error) — a partially counted
// sample would bias the Poisson fit.
func NeighborCountsContext(ctx context.Context, rel *data.Relation, eps float64, sampleRate float64, seed int64, idx neighbors.Index) ([]int, error) {
	if idx == nil {
		idx = neighbors.Build(rel, eps)
	}
	if sampleRate <= 0 || sampleRate > 1 {
		sampleRate = 1
	}
	sample := stats.SampleIndices(rel.N(), sampleRate, seed)
	counts := make([]int, len(sample))
	errs := par.ForEach(ctx, len(sample), runtime.GOMAXPROCS(0), func(k int) error {
		i := sample[k]
		counts[k] = idx.CountWithin(rel.Tuples[i], eps, i, 0)
		return nil
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}
	return counts, nil
}

// DeterminePoissonContext chooses (ε, η) from the Poisson model of
// ε-neighbor appearance: for each candidate ε it fits λε to the sampled
// neighbor counts, takes the largest η with p(N(ε) ≥ η) ≥ Confidence
// (Formula 3), and keeps the candidate whose violation rate is closest to
// TargetOutlierRate — the "moderately large ε" rule of §2.1.2 under which
// a limited number of points are identified as outliers.
//
// It degrades gracefully under cancellation: when ctx is cancelled
// mid-grid, the best choice among the ε candidates measured so far is
// returned with Exhausted set (the selection rule runs over the partial
// grid); only a cancellation before the first candidate was measured is
// returned as an error.
func DeterminePoissonContext(ctx context.Context, rel *data.Relation, opts ParamOptions) (ParamChoice, error) {
	if rel.N() < 2 {
		return ParamChoice{}, fmt.Errorf("core: cannot determine parameters over %d tuples", rel.N())
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		opts.Confidence = 0.99
	}
	if opts.TargetOutlierRate <= 0 || opts.TargetOutlierRate >= 1 {
		opts.TargetOutlierRate = 0.10
	}
	if opts.SampleRate <= 0 || opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	cands := opts.EpsCandidates
	if len(cands) == 0 {
		cands = epsCandidateGrid(ctx, rel, opts.Seed)
	}
	if len(cands) == 0 {
		return ParamChoice{}, fmt.Errorf("core: no ε candidates could be derived")
	}
	sort.Float64s(cands)
	idx := neighbors.Build(rel, cands[len(cands)/2])

	choices := make([]ParamChoice, 0, len(cands))
	gaps := make([]float64, 0, len(cands))
	gapMin := math.Inf(1)
	exhausted := false
	for _, eps := range cands {
		counts, cerr := NeighborCountsContext(ctx, rel, eps, opts.SampleRate, opts.Seed, idx)
		if cerr != nil {
			if len(choices) == 0 {
				return ParamChoice{}, fmt.Errorf("core: parameter determination cancelled: %w", cerr)
			}
			exhausted = true
			break // select over the candidates measured so far
		}
		pois, err := stats.FitPoisson(counts)
		if err != nil {
			continue
		}
		if pois.Lambda <= 1 {
			continue // almost every sampled tuple isolated; ε below the noise floor
		}
		// The neighbor threshold tracks the rate: η ≈ 0.35·λε, the ratio
		// behind the paper's (λε=51.36, η=18) on Letter, which keeps the
		// Poisson tail p(N(ε) ≥ η) ≥ 0.99 for any λ ≳ 20.
		eta := int(math.Ceil(0.35 * pois.Lambda))
		if eta < 2 {
			eta = 2
		}
		viol := 0
		for _, c := range counts {
			if c < eta {
				viol++
			}
		}
		rate := float64(viol) / float64(len(counts))
		gap := math.Abs(rate - opts.TargetOutlierRate)
		choices = append(choices, ParamChoice{Eps: eps, Eta: eta, Lambda: pois.Lambda, OutlierRate: rate})
		gaps = append(gaps, gap)
		if gap < gapMin {
			gapMin = gap
		}
	}
	if len(choices) == 0 {
		return ParamChoice{}, fmt.Errorf("core: parameter determination failed for all %d candidates", len(cands))
	}
	// On well-clustered data several ε values reach the target violation
	// rate. The paper's rule wants a "moderately large ε": within the
	// near-optimal band the smallest candidate is taken — it sits just
	// above the noise floor (tiny-ε candidates are excluded by their
	// violation-rate gap), and its choice is stable across sampling rates
	// because the band's lower edge is anchored by the data's density,
	// not by how far the grid extends upward.
	// The tolerance tracks the sampling noise of the violation-rate
	// estimate: with s sampled tuples the rate is only resolved to
	// ≈ 1/√s, so small samples widen the band rather than trusting noise.
	sampleN := float64(rel.N()) * opts.SampleRate
	if sampleN < 1 {
		sampleN = 1
	}
	tol := gapMin + math.Max(0.005, 0.35/math.Sqrt(sampleN))
	// Repair headroom dominates the rate criterion: the Proposition 5
	// upper bound needs donors t₂ with δ_η(t₂) ≤ ε − Δ(t_o[X], t₂[X]),
	// which exist when typical tuples already see η neighbors within ε/2.
	// A rate-perfect ε without headroom detects outliers fine but leaves
	// nothing to save them with. Among headroom-passing candidates the
	// smallest rate gap wins (ascending ε breaks ties); if none passes,
	// fall back to the smallest in-band ε.
	bestPass := -1
	for i, c := range choices {
		if gaps[i] > math.Max(tol, 0.08) {
			continue // hopeless rate match; don't even measure headroom
		}
		half, cerr := NeighborCountsContext(ctx, rel, c.Eps/2, opts.SampleRate, opts.Seed, idx)
		if cerr != nil {
			// Degrade to the rate-only selection over what was measured.
			exhausted = true
			break
		}
		atLeast := 0
		for _, cnt := range half {
			if cnt >= c.Eta {
				atLeast++
			}
		}
		if float64(atLeast) < 0.5*float64(len(half)) {
			continue
		}
		if bestPass < 0 || gaps[i] < gaps[bestPass]-1e-12 {
			bestPass = i
		}
	}
	pick := func(c ParamChoice) (ParamChoice, error) {
		c.Exhausted = exhausted
		return c, nil
	}
	if bestPass >= 0 {
		return pick(choices[bestPass])
	}
	for i, c := range choices {
		if gaps[i] <= tol {
			return pick(c)
		}
	}
	return pick(choices[0])
}

// epsCandidateGrid derives candidate distance thresholds from the k-NN
// distance distribution of a small sample: a geometric grid between the
// median 1-NN distance (everything tighter than this is noise floor) and
// four times the 90th percentile 8-NN distance (room for the repair
// headroom the selection in DeterminePoissonContext checks for).
func epsCandidateGrid(ctx context.Context, rel *data.Relation, seed int64) []float64 {
	const k = 8
	sampleRate := 256.0 / float64(rel.N())
	sample := stats.SampleIndices(rel.N(), sampleRate, seed)
	idx := neighbors.NewVPTree(rel, seed+1)
	var d1, dk []float64
	for _, i := range sample {
		if ctx.Err() != nil {
			break // the caller's first count reports the cancellation
		}
		nn := idx.KNN(rel.Tuples[i], k, i)
		if len(nn) == 0 {
			continue
		}
		d1 = append(d1, nn[0].Dist)
		dk = append(dk, nn[len(nn)-1].Dist)
	}
	if len(d1) == 0 {
		return nil
	}
	sort.Float64s(d1)
	sort.Float64s(dk)
	lo := stats.Quantile(d1, 0.5)
	// The upper edge must reach past twice the typical pair distance:
	// repairing an outlier needs donors with η neighbors within ε minus
	// the subspace distance (Proposition 5), i.e. ε ≈ 2× the in-cluster
	// spread, well above the detection-only optimum.
	hi := stats.Quantile(dk, 0.9) * 4
	if lo <= 0 {
		lo = hi / 64
	}
	if hi <= lo {
		hi = lo * 4
	}
	const steps = 12
	ratio := math.Pow(hi/lo, 1/float64(steps-1))
	grid := make([]float64, 0, steps)
	v := lo
	for i := 0; i < steps; i++ {
		grid = append(grid, v)
		v *= ratio
	}
	return grid
}
