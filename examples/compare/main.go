// Method comparison — a miniature Table 2 through the public API: run
// every outlier-handling method over one dataset and score the DBSCAN
// clustering each produces, plus the internal silhouette quality and the
// adjustment accuracy against the injected ground truth.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	disc "repro"
)

func main() {
	name := "WIFI"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	ds, err := disc.Table1(name, 0.5, 7)
	if err != nil {
		log.Fatal(err)
	}
	cons := disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	fmt.Printf("%s: n=%d m=%d classes=%d ε=%.3g η=%d (dirty %d, natural %d)\n\n",
		ds.Name, ds.N(), ds.Rel.Schema.M(), ds.Classes, ds.Eps, ds.Eta,
		ds.DirtyCount(), ds.NaturalCount())

	type method struct {
		name  string
		apply func() (*disc.Relation, error)
	}
	methods := []method{
		{"Raw", func() (*disc.Relation, error) { return ds.Rel, nil }},
		{"DISC", func() (*disc.Relation, error) {
			res, err := disc.SaveContext(context.Background(), ds.Rel, cons, disc.Options{Kappa: 2})
			if err != nil {
				return nil, err
			}
			return res.Repaired, nil
		}},
		{"DORC", func() (*disc.Relation, error) { return (&disc.DORC{Eps: ds.Eps, Eta: ds.Eta}).Clean(ds.Rel) }},
		{"ERACER", func() (*disc.Relation, error) { return (&disc.ERACER{}).Clean(ds.Rel) }},
		{"HoloClean", func() (*disc.Relation, error) { return (&disc.HoloClean{}).Clean(ds.Rel) }},
		{"Holistic", func() (*disc.Relation, error) { return (&disc.Holistic{}).Clean(ds.Rel) }},
		{"SCARE", func() (*disc.Relation, error) { return (&disc.SCARE{Eps: ds.Eps}).Clean(ds.Rel) }},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\ttime\tF1\tNMI\tARI\tsilhouette\tavg Jaccard")
	for _, m := range methods {
		start := time.Now()
		rel, err := m.apply()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t(%v)\n", m.name, err)
			continue
		}
		cl := disc.DBSCAN(rel, disc.DBSCANConfig{Eps: cons.Eps, MinPts: cons.Eta})
		// Adjustment accuracy: how well this method's modified attributes
		// match the injected error attributes.
		jSum, jN := 0.0, 0
		for i := range ds.Rel.Tuples {
			if ds.Dirty[i] == 0 {
				continue
			}
			mask := diffMask(ds.Rel, rel, i)
			jSum += disc.Jaccard(ds.Dirty[i], mask)
			jN++
		}
		jac := 0.0
		if jN > 0 {
			jac = jSum / float64(jN)
		}
		fmt.Fprintf(tw, "%s\t%.3gs\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			m.name, elapsed.Seconds(),
			disc.PairF1(cl.Labels, ds.Labels),
			disc.NMI(cl.Labels, ds.Labels),
			disc.ARI(cl.Labels, ds.Labels),
			disc.Silhouette(rel, cl.Labels),
			jac)
	}
	tw.Flush()
	fmt.Println("\n(try: go run ./examples/compare Letter)")
}

func diffMask(before, after *disc.Relation, i int) disc.AttrMask {
	var m disc.AttrMask
	for a := 0; a < before.Schema.M(); a++ {
		kind := before.Schema.Attrs[a].Kind
		if kind == disc.Text {
			if before.Tuples[i][a].Str != after.Tuples[i][a].Str {
				m = m.With(a)
			}
		} else if before.Tuples[i][a].Num != after.Tuples[i][a].Num {
			m = m.With(a)
		}
	}
	return m
}
