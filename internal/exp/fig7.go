package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: scalability in the number of attributes m (Spam)",
		Run:   runFig7,
	})
}

// fig7ExactMaxM caps the exponential Exact enumeration; beyond this the
// row prints "-" (the resource boundary §4.2.3 describes).
const fig7ExactMaxM = 20

func runFig7(cfg Config) (*Result, error) {
	ds, err := data.Table1("Spam", cfg.scale(table2Scales["Spam"]), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	f1 := Table{Title: "Fig 7(a): clustering F1 vs m (Spam)",
		Header: []string{"m", "Raw", "DISC", "Exact"}}
	tc := Table{Title: "Fig 7(b): time cost (s) vs m (Spam)",
		Header: []string{"m", "DISC", "DISC nodes", "Exact"}}

	for _, m := range []int{5, 10, 20, 40, 57} {
		proj, err := projectDataset(ds, m)
		if err != nil {
			return nil, fmt.Errorf("fig7: m=%d: %w", m, err)
		}
		// Re-determine ε for the projected geometry (subspace distances
		// shrink with m); η stays.
		choice, err := core.DeterminePoissonContext(cfg.context(), proj.Rel, core.ParamOptions{
			SampleRate: 0.25, Seed: cfg.Seed,
		})
		if err == nil && choice.Eps > 0 {
			proj.Eps = choice.Eps
			proj.Eta = choice.Eta
		}
		cfg.progressf("fig7: m=%d (ε=%.3g, η=%d)\n", m, proj.Eps, proj.Eta)
		cons := core.Constraints{Eps: proj.Eps, Eta: proj.Eta}

		score := func(rel *data.Relation) string {
			if rel == nil {
				return "-"
			}
			cl := cluster.DBSCAN(rel, cluster.DBSCANConfig{Eps: proj.Eps, MinPts: proj.Eta})
			return fmtF(eval.F1(cl.Labels, proj.Labels))
		}
		f1Row := []string{fmt.Sprint(m), score(proj.Rel)}
		tcRow := []string{fmt.Sprint(m)}

		start := time.Now()
		discRes, err := core.SaveAllContext(cfg.context(), proj.Rel, cons,
			cfg.discOptions(fmt.Sprintf("fig7: disc m=%d", m),
				core.Options{Kappa: discKappa(ds.Name)}))
		if err != nil {
			return nil, fmt.Errorf("fig7: disc m=%d: %w", m, err)
		}
		cfg.recordStats(discRes)
		f1Row = append(f1Row, score(discRes.Repaired))
		tcRow = append(tcRow, fmtS(time.Since(start).Seconds()),
			fmt.Sprint(discRes.Stats.Nodes))

		if m <= fig7ExactMaxM {
			start = time.Now()
			rel, err := exactRepair(proj, cons, discRes.Detection, 6)
			if err != nil {
				return nil, fmt.Errorf("fig7: exact m=%d: %w", m, err)
			}
			f1Row = append(f1Row, score(rel))
			tcRow = append(tcRow, fmtS(time.Since(start).Seconds()))
		} else {
			f1Row = append(f1Row, "-")
			tcRow = append(tcRow, "-")
		}
		f1.Rows = append(f1.Rows, f1Row)
		tc.Rows = append(tc.Rows, tcRow)
	}
	return &Result{Tables: []Table{f1, tc}}, nil
}

// projectDataset restricts a dataset to its first m attributes, truncating
// the dirty masks accordingly. Tuples whose injected errors all fall
// outside the projection are no longer dirty.
func projectDataset(ds *data.Dataset, m int) (*data.Dataset, error) {
	if m < 1 || m > ds.Rel.Schema.M() {
		return nil, fmt.Errorf("exp: projection to %d of %d attributes", m, ds.Rel.Schema.M())
	}
	schema := &data.Schema{Attrs: append([]data.Attribute(nil), ds.Rel.Schema.Attrs[:m]...), Norm: ds.Rel.Schema.Norm}
	rel := data.NewRelation(schema)
	for _, t := range ds.Rel.Tuples {
		rel.Append(t[:m])
	}
	keep := data.FullMask(m)
	out := &data.Dataset{
		Name:    ds.Name,
		Rel:     rel,
		Labels:  ds.Labels,
		Dirty:   make([]data.AttrMask, ds.N()),
		Natural: ds.Natural,
		Clean:   make([]data.Tuple, ds.N()),
		Eps:     ds.Eps,
		Eta:     ds.Eta,
		Classes: ds.Classes,
	}
	for i := range ds.Dirty {
		out.Dirty[i] = ds.Dirty[i] & keep
		if out.Dirty[i] != 0 {
			out.Clean[i] = ds.Clean[i][:m]
		}
	}
	return out, nil
}
