package cluster

import "repro/internal/data"

// AggloConfig parameterizes single-link agglomerative clustering: merge
// the closest pair of clusters until the merge distance exceeds CutDist
// (equivalently, cut the minimum spanning tree at CutDist). With
// CutDist = ε this is DBSCAN with minPts = 1 counting the point itself
// (DBSCANConfig.MinPts = 0, which excludes it) — another member of the
// density family §5 surveys — and its sensitivity to single noisy points
// is exactly the failure mode outlier saving removes.
type AggloConfig struct {
	// CutDist is the dendrogram cut: links longer than this never merge.
	CutDist float64
	// MinClusterSize relabels smaller final clusters as noise (-1);
	// 1 keeps everything (default).
	MinClusterSize int
}

// SingleLink clusters the relation by cutting the single-link dendrogram
// at CutDist. The clusters of that cut are the connected components of the
// graph joining tuples at distance ≤ CutDist, which is DBSCAN with
// MinPts = 0, where every tuple is core; its labels number the components
// by first appearance. Clusters smaller than MinClusterSize then become
// noise, and the surviving ids keep their gaps.
func SingleLink(rel *data.Relation, cfg AggloConfig) Result {
	res := DBSCAN(rel, DBSCANConfig{Eps: cfg.CutDist, MinPts: 0})
	if cfg.MinClusterSize <= 1 {
		return res
	}
	sizes := make([]int, res.K)
	for _, l := range res.Labels {
		sizes[l]++
	}
	for i, l := range res.Labels {
		if sizes[l] < cfg.MinClusterSize {
			res.Labels[i] = -1
		}
	}
	res.K = countClusters(res.Labels)
	return res
}
