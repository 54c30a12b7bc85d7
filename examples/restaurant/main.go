// Record matching with textual repair — the §1.1 / Figure 8 scenario:
// typos (confusable characters, dropped letters) make restaurant records
// outlying under edit-distance constraints and break duplicate detection;
// DISC repairs the corrupted attribute by borrowing the value from a
// near-neighbor record, and the rule-based matcher recovers the pairs.
package main

import (
	"context"
	"fmt"
	"log"

	disc "repro"
)

func main() {
	ds, err := disc.Table1("Restaurant", 0.5, 3)
	if err != nil {
		log.Fatal(err)
	}
	entities := map[int]bool{}
	for _, l := range ds.Labels {
		entities[l] = true
	}
	fmt.Printf("Restaurant dataset: %d records, %d entities (%d duplicate pairs), %d records with typos\n\n",
		ds.N(), len(entities), ds.N()-len(entities), ds.DirtyCount())

	score := func(rel *disc.Relation) (float64, int) {
		pairs := disc.Match(rel, disc.MatchConfig{})
		_, _, f1 := disc.MatchScore(pairs, ds.Labels)
		return f1, len(pairs)
	}
	rawF1, rawPairs := score(ds.Rel)
	fmt.Printf("raw matching:   %3d pairs found, F1 = %.4f\n", rawPairs, rawF1)

	cons := disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	res, err := disc.SaveContext(context.Background(), ds.Rel, cons, disc.Options{Kappa: 2})
	if err != nil {
		log.Fatal(err)
	}
	fixedF1, fixedPairs := score(res.Repaired)
	fmt.Printf("after saving:   %3d pairs found, F1 = %.4f (%d outliers saved)\n\n",
		fixedPairs, fixedF1, res.Saved)

	// Show a few textual repairs (the RH10-OAG → RH10-0AG style).
	shown := 0
	for _, adj := range res.Adjustments {
		if !adj.Saved() || shown >= 5 {
			continue
		}
		i := adj.Index
		if ds.Dirty[i] == 0 {
			continue
		}
		a := ds.Dirty[i].Attrs(5)[0]
		fmt.Printf("record %3d %-5s: %q → %q (truth %q)\n",
			i, ds.Rel.Schema.Attrs[a].Name,
			ds.Rel.Tuples[i][a].Str, adj.Tuple[a].Str, ds.Clean[i][a].Str)
		shown++
	}
}
