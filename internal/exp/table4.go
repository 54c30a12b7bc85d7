package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/explain"
)

func init() {
	register(Experiment{
		ID:    "table4",
		Title: "Table 4: parameter determination — Poisson (DISC) vs Normal (DB) vs Optimal, with sampling",
		Run:   runTable4,
	})
}

func runTable4(cfg Config) (*Result, error) {
	t := Table{
		Title: "Parameter determination (sampling rate vs time, chosen (ε,η), clustering F1)",
		Header: []string{"Data", "Rate", "Tuples", "TimeDISC(s)", "TimeDB(s)",
			"ε,η DISC", "ε,η DB", "ε,η Opt", "F1 DISC", "F1 DB", "F1 Opt"},
	}
	type spec struct {
		name  string
		scale float64
		rates []float64
	}
	specs := []spec{
		{name: "Letter", scale: table2Scales["Letter"], rates: []float64{0.01, 0.1, 1}},
		{name: "Flight", scale: table2Scales["Flight"], rates: []float64{0.001, 0.01, 1}},
	}
	for _, sp := range specs {
		ds, err := data.Table1(sp.name, cfg.scale(sp.scale), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("table4: %s: %w", sp.name, err)
		}
		cfg.progressf("table4: %s (n=%d)\n", sp.name, ds.N())

		// The optimal setting: grid-search (ε, η) around the dataset's
		// own constraints, maximizing post-saving clustering F1 — the
		// paper's "found by testing various combinations" (Figure 4).
		optEps, optEta, optF1 := table4Optimal(cfg, ds)

		for _, rate := range sp.rates {
			// DISC: Poisson-based determination over the sampled counts.
			start := time.Now()
			choice, err := core.DeterminePoissonContext(cfg.context(), ds.Rel, core.ParamOptions{
				SampleRate: rate, Seed: cfg.Seed,
			})
			discTime := time.Since(start)
			var discEps float64
			var discEta int
			if err == nil {
				discEps, discEta = choice.Eps, choice.Eta
			}

			// DB: Normal-distribution determination (sampled pairs scale
			// with the rate so the time comparison is honest).
			start = time.Now()
			pairs := int(rate * float64(ds.N()))
			if pairs < 100 {
				pairs = 100
			}
			dbEps, dbEta := explain.DBParams(ds.Rel, explain.DBParamOptions{
				SamplePairs: pairs, Seed: cfg.Seed,
			})
			dbTime := time.Since(start)

			discF1 := saveAndClusterF1(cfg, ds, discEps, discEta)
			dbF1 := saveAndClusterF1(cfg, ds, dbEps, dbEta)
			// "Optimal" means the best setting found by any search
			// (Figure 4's exhaustive testing); the grid around the
			// reference plus both determined settings.
			if discF1 > optF1 {
				optEps, optEta, optF1 = discEps, discEta, discF1
			}
			if dbF1 > optF1 {
				optEps, optEta, optF1 = dbEps, dbEta, dbF1
			}

			sampleN := int(rate * float64(ds.N()))
			if sampleN < 1 {
				sampleN = 1
			}
			t.Rows = append(t.Rows, []string{
				sp.name,
				fmt.Sprintf("%g%%", rate*100),
				fmt.Sprintf("%d", sampleN),
				fmtS(discTime.Seconds()),
				fmtS(dbTime.Seconds()),
				fmt.Sprintf("%.3g, %d", discEps, discEta),
				fmt.Sprintf("%.3g, %d", dbEps, dbEta),
				fmt.Sprintf("%.3g, %d", optEps, optEta),
				fmtF(discF1),
				fmtF(dbF1),
				fmtF(optF1),
			})
		}
	}
	return &Result{Tables: []Table{t}}, nil
}

// table4Optimal grid-searches (ε, η) for the best post-saving DBSCAN F1.
func table4Optimal(cfg Config, ds *data.Dataset) (float64, int, float64) {
	bestEps, bestEta, bestF1 := ds.Eps, ds.Eta, -1.0
	for _, fe := range []float64{0.75, 1, 1.25} {
		for _, fh := range []float64{0.5, 1, 1.5} {
			eps := ds.Eps * fe
			eta := int(float64(ds.Eta)*fh + 0.5)
			if eta < 2 {
				eta = 2
			}
			f1 := saveAndClusterF1(cfg, ds, eps, eta)
			if f1 > bestF1 {
				bestEps, bestEta, bestF1 = eps, eta, f1
			}
		}
	}
	return bestEps, bestEta, bestF1
}

// saveAndClusterF1 saves outliers under (eps, eta) and scores DBSCAN with
// the same constraints; invalid parameters score 0.
func saveAndClusterF1(cfg Config, ds *data.Dataset, eps float64, eta int) float64 {
	if eps <= 0 || eta < 1 {
		return 0
	}
	res, err := core.SaveAllContext(cfg.context(), ds.Rel,
		core.Constraints{Eps: eps, Eta: eta},
		cfg.discOptions("table4: disc "+ds.Name, core.Options{Kappa: discKappa(ds.Name)}))
	if err != nil {
		return 0
	}
	cfg.recordStats(res)
	cl := cluster.DBSCAN(res.Repaired, cluster.DBSCANConfig{Eps: eps, MinPts: eta})
	return eval.F1(cl.Labels, ds.Labels)
}
