// Quickstart: generate noisy clustered data, save the outliers with DISC,
// and compare DBSCAN clustering before and after — the Figure 1 story of
// the paper in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	disc "repro"
)

func main() {
	// Two Gaussian clusters in 2D with value errors on one attribute:
	// petal measurements recorded in inches instead of centimetres.
	rng := rand.New(rand.NewSource(7))
	rel := disc.NewRelation(disc.NewNumericSchema("petal_length", "petal_width"))
	truth := make([]int, 0, 220)
	for i := 0; i < 100; i++ {
		rel.Append(disc.Tuple{disc.Num(1.5 + rng.NormFloat64()*0.2), disc.Num(0.3 + rng.NormFloat64()*0.1)})
		truth = append(truth, 0)
		rel.Append(disc.Tuple{disc.Num(5.0 + rng.NormFloat64()*0.4), disc.Num(1.8 + rng.NormFloat64()*0.2)})
		truth = append(truth, 1)
	}
	// Ten tuples of the second cluster with width mistakenly in inches
	// (2.54× too small would be ÷2.54; make it a gross unit error).
	for i := 0; i < 10; i++ {
		rel.Append(disc.Tuple{disc.Num(5.0 + rng.NormFloat64()*0.4), disc.Num((1.8 + rng.NormFloat64()*0.2) * 2.54)})
		truth = append(truth, 1)
	}

	cons := disc.Constraints{Eps: 0.5, Eta: 4}

	// Cluster the raw data: the dirty tuples are noise and the clusters
	// lose recall.
	raw := disc.DBSCAN(rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	fmt.Printf("raw:   %d clusters, F1 = %.4f\n", raw.K, disc.PairF1(raw.Labels, truth))

	// Save the outliers: adjust the erroneous width values minimally so
	// the tuples satisfy the distance constraints again.
	res, err := disc.SaveContext(context.Background(), rel, cons, disc.Options{Kappa: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DISC:  %d outliers detected, %d saved, %d natural\n",
		len(res.Detection.Outliers), res.Saved, res.Natural)
	for _, adj := range res.Adjustments {
		if adj.Saved() {
			fmt.Printf("  row %3d: adjusted %v, cost %.3f\n",
				adj.Index, adj.Adjusted.Attrs(rel.Schema.M()), adj.Cost)
		}
	}

	fixed := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	fmt.Printf("fixed: %d clusters, F1 = %.4f\n", fixed.K, disc.PairF1(fixed.Labels, truth))
}
