package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clean"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: scalability in the number of tuples n (Flight)",
		Run:   runFig6,
	})
}

// fig6DORCCap bounds the quadratic DORC run, mirroring the paper's
// "cannot obtain a result in more than one hour with data sizes larger
// than 50k" (Figure 6b) at laptop scale.
const fig6DORCCap = 12000

// fig6ExactCap bounds the Exact enumeration similarly.
const fig6ExactCap = 6000

func runFig6(cfg Config) (*Result, error) {
	f1 := Table{Title: "Fig 6(a): clustering F1 vs n (Flight)",
		Header: []string{"n", "Raw", "DISC", "Exact", "DORC", "ERACER", "HoloClean", "Holistic"}}
	tc := Table{Title: "Fig 6(b): time cost (s) vs n (Flight)",
		Header: []string{"n", "DISC", "DISC nodes", "Exact", "DORC", "ERACER", "HoloClean", "Holistic"}}

	baseSizes := []int{2000, 5000, 10000, 20000}
	for _, base := range baseSizes {
		n := int(float64(base) * cfg.scale(1))
		if n < 500 {
			n = 500
		}
		ds, err := data.Table1("Flight", float64(n)/200000.0, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig6: n=%d: %w", n, err)
		}
		cfg.progressf("fig6: n=%d\n", ds.N())
		cons := core.Constraints{Eps: ds.Eps, Eta: ds.Eta}

		score := func(rel *data.Relation) string {
			if rel == nil {
				return "-"
			}
			cl := cluster.DBSCAN(rel, cluster.DBSCANConfig{Eps: ds.Eps, MinPts: ds.Eta})
			return fmtF(eval.F1(cl.Labels, ds.Labels))
		}

		f1Row := []string{fmt.Sprint(ds.N()), score(ds.Rel)}
		tcRow := []string{fmt.Sprint(ds.N())}

		// DISC.
		start := time.Now()
		discRes, err := core.SaveAllContext(cfg.context(), ds.Rel, cons,
			cfg.discOptions(fmt.Sprintf("fig6: disc n=%d", ds.N()),
				core.Options{Kappa: discKappa(ds.Name)}))
		if err != nil {
			return nil, fmt.Errorf("fig6: disc: %w", err)
		}
		cfg.recordStats(discRes)
		f1Row = append(f1Row, score(discRes.Repaired))
		tcRow = append(tcRow, fmtS(time.Since(start).Seconds()),
			fmt.Sprint(discRes.Stats.Nodes))

		// Exact (capped).
		if ds.N() <= fig6ExactCap {
			start = time.Now()
			rel, err := exactRepair(ds, cons, discRes.Detection, 32)
			if err != nil {
				return nil, fmt.Errorf("fig6: exact: %w", err)
			}
			f1Row = append(f1Row, score(rel))
			tcRow = append(tcRow, fmtS(time.Since(start).Seconds()))
		} else {
			f1Row = append(f1Row, "-")
			tcRow = append(tcRow, "-")
		}

		// DORC (capped).
		if ds.N() <= fig6DORCCap {
			start = time.Now()
			rel, err := (&clean.DORC{Eps: ds.Eps, Eta: ds.Eta}).Clean(ds.Rel)
			if err != nil {
				return nil, fmt.Errorf("fig6: dorc: %w", err)
			}
			f1Row = append(f1Row, score(rel))
			tcRow = append(tcRow, fmtS(time.Since(start).Seconds()))
		} else {
			f1Row = append(f1Row, "-")
			tcRow = append(tcRow, "-")
		}

		for _, method := range []string{"ERACER", "HoloClean", "Holistic"} {
			rel, elapsed := applyMethod(cfg, method, ds)
			f1Row = append(f1Row, score(rel))
			if rel == nil {
				tcRow = append(tcRow, "-")
			} else {
				tcRow = append(tcRow, fmtS(elapsed.Seconds()))
			}
		}
		f1.Rows = append(f1.Rows, f1Row)
		tc.Rows = append(tc.Rows, tcRow)
	}
	return &Result{Tables: []Table{f1, tc}}, nil
}

// exactRepair runs the Exact value-enumeration algorithm over every
// detected outlier (the §2.3 baseline), with per-attribute domains thinned
// to maxDomain values. det is the detection of ds.Rel under cons — callers
// already have one from their DISC run, so Exact does not pay a second
// detection pass (and index build) over the same relation.
func exactRepair(ds *data.Dataset, cons core.Constraints, det *core.Detection, maxDomain int) (*data.Relation, error) {
	out := ds.Rel.Clone()
	if len(det.Outliers) == 0 || len(det.Inliers) == 0 {
		return out, nil
	}
	r := ds.Rel.Subset(det.Inliers)
	ex, err := core.NewExactSaver(r, cons, maxDomain)
	if err != nil {
		return nil, err
	}
	ex.Kappa = discKappa(ds.Name)
	for _, oi := range det.Outliers {
		adj := ex.SaveOne(context.TODO(), ds.Rel.Tuples[oi])
		if adj.Saved() {
			out.Tuples[oi] = adj.Tuple
		}
	}
	return out, nil
}
