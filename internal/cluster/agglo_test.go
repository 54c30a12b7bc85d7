package cluster

import (
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/eval"
)

// singleLinkKruskal is single-link clustering as a Kruskal pass over all
// pairs (O(n² log n) distance computations), cut at CutDist: the reference
// the DBSCAN-based SingleLink must reproduce label for label. Its edge
// list grows from empty rather than reserving all n(n−1)/2 edges, so its
// memory follows the edges within the cut.
func singleLinkKruskal(rel *data.Relation, cfg AggloConfig) Result {
	n := rel.N()
	labels := make([]int, n)
	if n == 0 {
		return Result{Labels: labels}
	}
	if cfg.MinClusterSize < 1 {
		cfg.MinClusterSize = 1
	}
	type edge struct {
		i, j int
		d    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := rel.Schema.Dist(rel.Tuples[i], rel.Tuples[j])
			if d <= cfg.CutDist {
				edges = append(edges, edge{i: i, j: j, d: d})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].d < edges[b].d })

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ri, rj := find(e.i), find(e.j)
		if ri != rj {
			parent[ri] = rj
		}
	}

	// Canonical labels in first-appearance order.
	next := 0
	canon := map[int]int{}
	sizes := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := canon[r]; !ok {
			canon[r] = next
			next++
		}
		labels[i] = canon[r]
		sizes[labels[i]]++
	}
	if cfg.MinClusterSize > 1 {
		for i, l := range labels {
			if sizes[l] < cfg.MinClusterSize {
				labels[i] = -1
			}
		}
	}
	return Result{Labels: labels, K: countClusters(labels)}
}

// TestSingleLinkMatchesKruskal: SingleLink, DBSCAN with MinPts 0 plus the
// size cut, labels every Table 1 generator at scale 0.02 exactly as the
// all-pairs Kruskal cut does, Restaurant's and the mixed relation's text
// attributes included, at cuts of 0, ε/2, ε and 2ε and minimum cluster
// sizes 1 and 3. Flight runs at scale 0.005 (1,000 tuples, not 4,000), so
// that the reference's n² distances stay a fraction of a second.
func TestSingleLinkMatchesKruskal(t *testing.T) {
	var fx []dbscanFixture
	for _, name := range data.Table1Names() {
		scale := 0.02
		if name == "Flight" {
			scale = 0.005
		}
		ds, err := data.Table1(name, scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		fx = append(fx, dbscanFixture{name: name, rel: ds.Rel, eps: ds.Eps})
	}
	mixed, err := data.GenMixed(data.MixedSpec{Name: "mixed", N: 100, Entities: 75, DirtyFrac: 0.05, Eps: 2, Eta: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fx = append(fx, dbscanFixture{name: "mixed", rel: mixed.Rel, eps: mixed.Eps})
	for _, f := range fx {
		for _, cut := range []float64{0, f.eps / 2, f.eps, 2 * f.eps} {
			for _, size := range []int{1, 3} {
				cfg := AggloConfig{CutDist: cut, MinClusterSize: size}
				if diff := labelDiff(SingleLink(f.rel, cfg), singleLinkKruskal(f.rel, cfg)); diff != "" {
					t.Errorf("%s/cut=%v/size=%d: %s", f.name, cut, size, diff)
				}
			}
		}
	}
}

func TestSingleLinkRecoversBlobs(t *testing.T) {
	rel, truth := blobs(t, 3, 60, 41)
	res := SingleLink(rel, AggloConfig{CutDist: 3})
	if res.K != 3 {
		t.Fatalf("single-link found %d clusters, want 3", res.K)
	}
	if f1 := eval.F1(res.Labels, truth); f1 < 0.95 {
		t.Errorf("single-link F1 = %v", f1)
	}
}

func TestSingleLinkChainingSensitivity(t *testing.T) {
	// The classic single-link failure: one bridge point merges two blobs
	// — exactly the distortion a dirty outlier causes, and what saving
	// it undoes.
	rel, _ := blobs(t, 1, 40, 42)
	for _, tp := range blobs2(40, 43, 12, 0) {
		rel.Append(tp)
	}
	separated := SingleLink(rel, AggloConfig{CutDist: 4})
	if separated.K != 2 {
		t.Fatalf("blobs not separated: K=%d", separated.K)
	}
	for _, x := range []float64{3, 5, 7, 9} { // a chain of bridge points
		rel.Append(tupleXY(x, 0))
	}
	bridged := SingleLink(rel, AggloConfig{CutDist: 4})
	if bridged.K != 1 {
		t.Errorf("bridge chain should merge the blobs: K=%d", bridged.K)
	}
}

func TestSingleLinkMinClusterSize(t *testing.T) {
	rel, _ := blobs(t, 2, 30, 44)
	rel.Append(tupleXY(500, 500))
	res := SingleLink(rel, AggloConfig{CutDist: 4, MinClusterSize: 3})
	if res.Labels[rel.N()-1] != -1 {
		t.Error("isolated point not noise under MinClusterSize")
	}
	if res.K != 2 {
		t.Errorf("K = %d, want 2", res.K)
	}
}

func TestSingleLinkEmpty(t *testing.T) {
	rel := data.NewRelation(data.NewNumericSchema("x"))
	res := SingleLink(rel, AggloConfig{CutDist: 1})
	if len(res.Labels) != 0 || res.K != 0 {
		t.Error("empty relation mishandled")
	}
}
