package main

// perLayerMetrics lists the traced run's metrics in BENCHMARK.json order,
// with their units. The prefix before the first dot is the layer: the
// package whose public calls the span or counter sits around. README.md
// maps each one to the end-to-end metric and workload it should move.
var perLayerMetrics = [][2]string{
	{"data.csv_parse_s", "s"},
	{"data.numeric_ns_per_eval", "ns"},
	{"data.text_ns_per_eval", "ns"},
	{"data.text_cache_hit_ratio", "ratio"},
	{"data.text_lookups", "count"},
	{"data.early_exit_ratio", "ratio"},
	{"data.dist_evals", "count"},
	{"neighbors.build_s", "s"},
	{"neighbors.range_queries", "count"},
	{"neighbors.knn_queries", "count"},
	{"neighbors.evals_per_range_query", "count"},
	{"neighbors.evals_per_knn_query", "count"},
	{"neighbors.ns_per_range_query", "ns"},
	{"neighbors.ns_per_knn_query", "ns"},
	{"neighbors.grid_fallbacks", "count"},
	{"neighbors.mutable_insert_ns", "ns"},
	{"core.detect_s", "s"},
	{"core.detect_ns_per_tuple", "ns"},
	{"core.detect_evals_per_tuple", "count"},
	{"core.saver_index_build_s", "s"},
	{"core.eta_radius_s", "s"},
	{"core.pipeline_s", "s"},
	{"core.detect_eta_share", "ratio"},
	{"core.saves", "count"},
	{"core.save_ns_per_outlier", "ns"},
	{"core.save_nodes_per_outlier", "count"},
	{"core.save_candidates_per_outlier", "count"},
	{"core.save_prune_ratio", "ratio"},
	{"core.save_memo_hit_ratio", "ratio"},
	{"core.save_max_outlier_ms", "ms"},
	{"core.saved_frac", "ratio"},
	{"core.budget_trips", "count"},
	{"par.workers", "count"},
	{"par.fanout_s", "s"},
	{"par.fanout_share", "ratio"},
	{"par.save_busy_frac", "ratio"},
	{"cluster.dbscan_s", "s"},
	{"cluster.range_queries", "count"},
	{"cluster.evals_per_query", "count"},
	{"serve.session_build_s", "s"},
	{"serve.hop_save_ms", "ms"},
	{"serve.hop_detect_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.batches", "count"},
	{"serve.batch_size_mean", "count"},
	{"serve.rejected_429", "count"},
	{"serve.index_builds", "count"},
	{"serve.mutations", "count"},
	{"serve.mutate_redetect_touched_per_op", "count"},
	{"serve.mutate_compactions", "count"},
	{"coord.scatters", "count"},
	{"coord.scatter_overhead_ms", "ms"},
	{"coord.detect_overhead_ms", "ms"},
	{"coord.chunks_per_request", "count"},
	{"coord.failovers", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.spans", "count"},
}

var (
	perLayer     []string
	perLayerUnit = map[string]string{}
)

func init() {
	for _, m := range perLayerMetrics {
		perLayer = append(perLayer, m[0])
		perLayerUnit[m[0]] = m[1]
	}
}

// batchOffPath are the layers the batch pipelines never reach.
var batchOffPath = []string{
	"serve.session_build_s", "serve.hop_save_ms", "serve.hop_detect_ms", "serve.queue_wait_p50_ms",
	"serve.batches", "serve.batch_size_mean", "serve.rejected_429", "serve.index_builds",
	"serve.mutations", "serve.mutate_redetect_touched_per_op", "serve.mutate_compactions",
	"coord.scatters", "coord.scatter_overhead_ms", "coord.detect_overhead_ms",
	"coord.chunks_per_request", "coord.failovers",
}

// servingOffPath are the layers the serving workloads never reach: they
// run no DBSCAN and no batch fan-out.
var servingOffPath = []string{
	"cluster.dbscan_s", "cluster.range_queries", "cluster.evals_per_query",
	"core.pipeline_s", "core.detect_eta_share", "par.fanout_s", "par.fanout_share",
}
