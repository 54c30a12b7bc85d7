package exp

import (
	"fmt"
	"math"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/neighbors"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: accuracy of attribute adjustment/explanation for GPS outliers (Jaccard vs SSE vs cleaners)",
		Run:   runFig9,
	})
}

// accStats aggregates per-outlier adjustment accuracy for one method.
type accStats struct {
	jaccardSum float64
	attrsSum   float64
	costSum    float64
	n          int
}

func (a *accStats) add(truth, pred data.AttrMask, cost float64) {
	a.jaccardSum += eval.Jaccard(truth, pred)
	a.attrsSum += float64(pred.Count())
	if !math.IsInf(cost, 1) {
		a.costSum += cost
	}
	a.n++
}

func (a *accStats) jaccard() float64 {
	if a.n == 0 {
		return 0
	}
	return a.jaccardSum / float64(a.n)
}

func (a *accStats) attrs() float64 {
	if a.n == 0 {
		return 0
	}
	return a.attrsSum / float64(a.n)
}

func (a *accStats) cost() float64 {
	if a.n == 0 {
		return 0
	}
	return a.costSum / float64(a.n)
}

// adjustmentAccuracy runs DISC, SSE and the cleaners over the dataset and
// scores, for every *injected dirty* tuple, the set of attributes each
// method adjusted (or, for SSE, explained) against the ground-truth error
// attributes — the §4.3 protocol. A non-nil idx (over ds.Rel, built for
// eps) is reused for the detection pass instead of building a fresh one.
func adjustmentAccuracy(cfg Config, ds *data.Dataset, eps float64, eta, kappa int, idx neighbors.Index) (map[string]*accStats, error) {
	cons := core.Constraints{Eps: eps, Eta: eta}
	out := map[string]*accStats{}
	for _, m := range []string{"DISC", "SSE", "DORC", "ERACER", "HoloClean", "Holistic"} {
		out[m] = &accStats{}
	}

	// DISC adjustments (and the detection split reused by SSE).
	discRes, err := core.SaveAllContext(cfg.context(), ds.Rel, cons,
		cfg.discOptions("fig9: disc "+ds.Name, core.Options{Kappa: kappa, Index: idx}))
	if err != nil {
		return nil, err
	}
	cfg.recordStats(discRes)
	adjByIdx := map[int]core.Adjustment{}
	for _, adj := range discRes.Adjustments {
		adjByIdx[adj.Index] = adj
	}
	inliers := ds.Rel.Subset(discRes.Detection.Inliers)

	// Cleaner outputs.
	cleaned := map[string]*data.Relation{}
	for name, c := range map[string]clean.Cleaner{
		"DORC":      &clean.DORC{Eps: eps, Eta: eta},
		"ERACER":    &clean.ERACER{},
		"HoloClean": &clean.HoloClean{},
		"Holistic":  &clean.Holistic{},
	} {
		rel, err := c.Clean(ds.Rel)
		if err != nil {
			rel = nil // not applicable (e.g. ERACER over text)
		}
		cleaned[name] = rel
	}

	sch := ds.Rel.Schema
	for i := range ds.Rel.Tuples {
		truth := ds.Dirty[i]
		if truth == 0 {
			continue
		}
		// DISC: attributes of the returned adjustment; unsaved outliers
		// count as an empty adjustment.
		var discMask data.AttrMask
		var discCost float64
		if adj, ok := adjByIdx[i]; ok && adj.Saved() {
			discMask = adj.Adjusted
			discCost = adj.Cost
		}
		out["DISC"].add(truth, discMask, discCost)

		// SSE explains the outlier against the inlier population.
		sseMask := explain.SSE(inliers, ds.Rel.Tuples[i], explain.SSEConfig{})
		out["SSE"].add(truth, sseMask, 0)

		for name, rel := range cleaned {
			if rel == nil {
				continue
			}
			mask := data.DiffMask(sch, ds.Rel.Tuples[i], rel.Tuples[i])
			out[name].add(truth, mask, sch.Dist(ds.Rel.Tuples[i], rel.Tuples[i]))
		}
	}
	return out, nil
}

func runFig9(cfg Config) (*Result, error) {
	ds, err := data.Table1("GPS", cfg.scale(table2Scales["GPS"]), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	cfg.progressf("fig9: GPS (n=%d)\n", ds.N())

	// (a) dirty / natural outlier rates, as detected vs ground truth. The
	// index is built once here and reused by the part-(b) DISC run below.
	idx := neighbors.Build(ds.Rel, ds.Eps)
	det, err := core.DetectContext(cfg.context(), ds.Rel, core.Constraints{Eps: ds.Eps, Eta: ds.Eta}, idx)
	if err != nil {
		return nil, err
	}
	flagged := map[int]bool{}
	for _, oi := range det.Outliers {
		flagged[oi] = true
	}
	dirtyDet, natDet := 0, 0
	for i := range ds.Dirty {
		if !flagged[i] {
			continue
		}
		if ds.Dirty[i] != 0 {
			dirtyDet++
		} else if ds.Natural[i] {
			natDet++
		}
	}
	n := float64(ds.N())
	a := Table{
		Title:  "Fig 9(a): dirty / natural outlier rates (GPS)",
		Header: []string{"Kind", "Truth rate", "Detected rate"},
		Rows: [][]string{
			{"dirty", fmtF(float64(ds.DirtyCount()) / n), fmtF(float64(dirtyDet) / n)},
			{"natural", fmtF(float64(ds.NaturalCount()) / n), fmtF(float64(natDet) / n)},
		},
	}

	// (b) Jaccard accuracy of adjusted/explained attributes.
	acc, err := adjustmentAccuracy(cfg, ds, ds.Eps, ds.Eta, discKappa("GPS"), idx)
	if err != nil {
		return nil, err
	}
	b := Table{
		Title:  "Fig 9(b): Jaccard of adjusted/explained attributes vs ground-truth error attributes (GPS)",
		Header: []string{"Method", "Jaccard", "AvgAdjustedAttrs", "AvgCost"},
	}
	for _, m := range []string{"DISC", "SSE", "DORC", "ERACER", "HoloClean", "Holistic"} {
		st := acc[m]
		b.Rows = append(b.Rows, []string{m, fmtF(st.jaccard()), fmt.Sprintf("%.2f", st.attrs()), fmt.Sprintf("%.3g", st.cost())})
	}
	return &Result{Tables: []Table{a, b}}, nil
}
