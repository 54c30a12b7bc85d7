package disc_test

import (
	"context"
	"fmt"

	disc "repro"
)

// ExampleSaveContext shows the full DISC pipeline on the Figure 1 scenario: a
// dense cluster, one tuple with a single corrupted attribute, one natural
// outlier.
func ExampleSaveContext() {
	rel := disc.NewRelation(disc.NewNumericSchema("length", "width"))
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			rel.Append(disc.Tuple{disc.Num(float64(i) * 0.5), disc.Num(float64(j) * 0.5)})
		}
	}
	rel.Append(disc.Tuple{disc.Num(10), disc.Num(1.5)}) // length corrupted
	rel.Append(disc.Tuple{disc.Num(40), disc.Num(-40)}) // natural outlier

	res, _ := disc.SaveContext(context.Background(), rel, disc.Constraints{Eps: 1.5, Eta: 3}, disc.Options{Kappa: 1})
	fmt.Printf("outliers=%d saved=%d natural=%d\n",
		len(res.Detection.Outliers), res.Saved, res.Natural)
	for _, adj := range res.Adjustments {
		if adj.Saved() {
			fmt.Printf("adjusted attributes: %v, width kept: %v\n",
				adj.Adjusted.Attrs(2), adj.Tuple[1].Num == 1.5)
		}
	}
	// Output:
	// outliers=2 saved=1 natural=1
	// adjusted attributes: [0], width kept: true
}

// ExampleDetectContext shows the inlier/outlier split under distance
// constraints.
func ExampleDetectContext() {
	rel := disc.NewRelation(disc.NewNumericSchema("x"))
	for i := 0; i < 10; i++ {
		rel.Append(disc.Tuple{disc.Num(float64(i) * 0.1)})
	}
	rel.Append(disc.Tuple{disc.Num(50)})

	det, _ := disc.DetectContext(context.Background(), rel, disc.Constraints{Eps: 0.5, Eta: 2}, nil)
	fmt.Printf("inliers=%d outliers=%d\n", len(det.Inliers), len(det.Outliers))
	// Output:
	// inliers=10 outliers=1
}

// ExampleDBSCAN clusters a repaired relation.
func ExampleDBSCAN() {
	rel := disc.NewRelation(disc.NewNumericSchema("x"))
	for _, v := range []float64{0, 0.1, 0.2, 5, 5.1, 5.2, 99} {
		rel.Append(disc.Tuple{disc.Num(v)})
	}
	res := disc.DBSCAN(rel, disc.DBSCANConfig{Eps: 0.3, MinPts: 1})
	fmt.Printf("clusters=%d noise=%v\n", res.K, res.Labels[6] == -1)
	// Output:
	// clusters=2 noise=true
}

// ExampleJaccard scores adjusted attributes against ground truth (§4.3).
func ExampleJaccard() {
	truth := disc.AttrMask(0).With(1)
	adjusted := disc.AttrMask(0).With(1).With(3)
	fmt.Printf("%.2f\n", disc.Jaccard(truth, adjusted))
	// Output:
	// 0.50
}
