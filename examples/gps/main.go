// GPS trajectory repair — the Example 1 / Figure 2 scenario of the paper:
// readings with (Time, Longitude, Latitude), an occasional longitude or
// timestamp error splits the trajectory into segments; DISC adjusts only
// the erroneous attribute and the trajectory clusters whole again, while
// device-testing points (natural outliers) are flagged, not altered.
package main

import (
	"context"
	"fmt"
	"log"

	disc "repro"
)

func main() {
	ds, err := disc.Table1("GPS", 0.25, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPS dataset: %d readings, %d trajectories, ε=%.3g η=%d\n",
		ds.N(), ds.Classes, ds.Eps, ds.Eta)
	fmt.Printf("injected: %d dirty readings (one corrupted attribute each), %d device-test points\n\n",
		ds.DirtyCount(), ds.NaturalCount())

	cons := disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	raw := disc.DBSCAN(ds.Rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	fmt.Printf("raw clustering:      %d segments, F1 = %.4f\n", raw.K, disc.PairF1(raw.Labels, ds.Labels))

	// κ = 1: GPS errors hit exactly one attribute; anything needing more
	// adjustment is a genuine anomaly and stays untouched (§1.2).
	res, err := disc.SaveContext(context.Background(), ds.Rel, cons, disc.Options{Kappa: 1})
	if err != nil {
		log.Fatal(err)
	}
	fixed := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
	fmt.Printf("after outlier saving: %d segments, F1 = %.4f\n\n", fixed.K, disc.PairF1(fixed.Labels, ds.Labels))

	// Show a few repairs next to the ground truth, like the t13/t24
	// walkthrough in the paper.
	names := []string{"Time", "Longitude", "Latitude"}
	shown := 0
	for _, adj := range res.Adjustments {
		if !adj.Saved() || shown >= 5 {
			continue
		}
		i := adj.Index
		if ds.Dirty[i] == 0 {
			continue
		}
		errAttr := ds.Dirty[i].Attrs(3)[0]
		fixAttrs := adj.Adjusted.Attrs(3)
		fmt.Printf("reading %4d: %s corrupted (%.1f, truth %.1f); DISC adjusted %v to %.1f (cost %.3g)\n",
			i, names[errAttr],
			ds.Rel.Tuples[i][errAttr].Num, ds.Clean[i][errAttr].Num,
			attrNames(names, fixAttrs), adj.Tuple[fixAttrs[0]].Num, adj.Cost)
		shown++
	}
	fmt.Printf("\n%d natural outliers flagged for verification, values untouched\n", res.Natural)
}

func attrNames(names []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, a := range idx {
		out[i] = names[a]
	}
	return out
}
