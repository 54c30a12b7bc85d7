package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/neighbors"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "Ablations: lower-bound pruning, X-set memoization, κ budget, index choice, parallelism (DESIGN.md §5)",
		Run:   runAblation,
	})
}

func runAblation(cfg Config) (*Result, error) {
	ds, err := data.Table1("Letter", cfg.scale(0.15), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	cons := core.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	cfg.progressf("ablation: Letter (n=%d)\n", ds.N())

	// (1) Algorithm 1 options: nodes expanded and wall time.
	algo := Table{
		Title:  "Ablation: Algorithm 1 options (Letter)",
		Header: []string{"Variant", "Saved", "Natural", "Nodes", "Time(s)", "F1"},
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"kappa=2 (default)", core.Options{Kappa: 2}},
		{"kappa=2, no pruning", core.Options{Kappa: 2, DisablePruning: true}},
		{"kappa=2, no memo", core.Options{Kappa: 2, DisableMemo: true}},
		{"kappa=1", core.Options{Kappa: 1}},
		{"kappa=3", core.Options{Kappa: 3}},
		{"unrestricted", core.Options{}},
		{"sequential (workers=1)", core.Options{Kappa: 2, Workers: 1}},
	}
	for _, v := range variants {
		start := time.Now()
		res, err := core.SaveAllContext(cfg.context(), ds.Rel, cons,
			cfg.discOptions("ablation: "+v.name, v.opts))
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		cfg.recordStats(res)
		elapsed := time.Since(start)
		nodes := 0
		for _, adj := range res.Adjustments {
			nodes += adj.Nodes
		}
		cl := cluster.DBSCAN(res.Repaired, cluster.DBSCANConfig{Eps: ds.Eps, MinPts: ds.Eta})
		algo.Rows = append(algo.Rows, []string{
			v.name,
			fmt.Sprint(res.Saved),
			fmt.Sprint(res.Natural),
			fmt.Sprint(nodes),
			fmtS(elapsed.Seconds()),
			fmtF(eval.F1(cl.Labels, ds.Labels)),
		})
	}

	// (2) Index choice over the Flight geometry, timed on the two queries
	// every pipeline run issues per tuple: detection's ε-count, which
	// stops at η, and KNN(η), which gives the η-radius behind the
	// Proposition 5 bound.
	fds, err := data.Table1("Flight", cfg.scale(0.02), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	idxTable := Table{
		Title:  fmt.Sprintf("Ablation: index query time over Flight (n=%d, η=%d; one capped ε-count and one KNN(η) per tuple)", fds.N(), fds.Eta),
		Header: []string{"Index", "Build(s)", "Count(s)", "KNN(s)"},
	}
	builders := []struct {
		name  string
		build func() neighbors.Index
	}{
		{"brute", func() neighbors.Index { return neighbors.NewBrute(fds.Rel) }},
		{"grid", func() neighbors.Index { return neighbors.NewGrid(fds.Rel, fds.Eps) }},
		{"vptree", func() neighbors.Index { return neighbors.NewVPTree(fds.Rel, 1) }},
	}
	for _, b := range builders {
		start := time.Now()
		idx := b.build()
		buildT := time.Since(start)
		start = time.Now()
		for i, t := range fds.Rel.Tuples {
			idx.CountWithin(t, fds.Eps, i, fds.Eta)
		}
		countT := time.Since(start)
		start = time.Now()
		for i, t := range fds.Rel.Tuples {
			idx.KNN(t, fds.Eta, i)
		}
		knnT := time.Since(start)
		idxTable.Rows = append(idxTable.Rows, []string{b.name, fmtS(buildT.Seconds()), fmtS(countT.Seconds()), fmtS(knnT.Seconds())})
	}

	return &Result{Tables: []Table{algo, idxTable}}, nil
}
