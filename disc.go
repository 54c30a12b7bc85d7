// Package disc is a Go implementation of DISC — saving outliers by minimal
// value adjustment under DIStance constraints for better Clustering — from
// "On Saving Outliers for Better Clustering over Noisy Data" (Song, Gao,
// Huang, Wang; SIGMOD 2021).
//
// A tuple violates the distance constraints (ε, η) when it has fewer than
// η neighbors within distance ε; DISC repairs such dirty outliers by
// adjusting as few attribute values as possible until they satisfy the
// constraints again, while leaving natural outliers (true abnormal
// behaviour) untouched. The adjusted data clusters better and improves
// downstream classification and record matching.
//
// Quick start:
//
//	ctx := context.Background()
//	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
//	// ... append tuples ...
//	params, _ := disc.DetermineParamsContext(ctx, rel, disc.ParamOptions{})
//	res, _ := disc.SaveContext(ctx, rel, disc.Constraints{Eps: params.Eps, Eta: params.Eta}, disc.Options{Kappa: 2})
//	clusters := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: params.Eps, MinPts: params.Eta})
//
// Each pipeline operation has one entry point, and it takes a context
// first: DetectContext, SaveContext, NewSaverContext (then Saver.SaveOne),
// DetermineParamsContext and NeighborCountsContext. Pass
// context.Background() when nothing needs cancelling.
//
// The library also ships the paper's complete experimental apparatus: the
// DBSCAN / K-Means / K-Means-- / CCKM / SREM / KMC clustering substrates,
// the DORC / ERACER / Holistic / HoloClean cleaning baselines, the Exact
// enumeration algorithm, SSE outlier explanation, a CART decision tree, a
// rule-based record matcher, synthetic Table 1 datasets, and runners for
// every table and figure of the evaluation (see the repro/internal/exp
// package and cmd/discbench).
package disc

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// Core data model (see internal/data).
type (
	// Schema is an ordered list of attributes plus the Lp aggregation
	// norm (L2 by default, as in the paper).
	Schema = data.Schema
	// Attribute describes one column: numeric or textual, with an
	// optional distance scale and textual distance function.
	Attribute = data.Attribute
	// Kind distinguishes numeric from textual attributes.
	Kind = data.Kind
	// Value is one attribute value.
	Value = data.Value
	// Tuple is one row.
	Tuple = data.Tuple
	// Relation is a set of tuples over a schema.
	Relation = data.Relation
	// AttrMask is a bitset of attribute indexes.
	AttrMask = data.AttrMask
	// Dataset bundles a relation with experiment ground truth.
	Dataset = data.Dataset
)

// Attribute kinds.
const (
	Numeric = data.Numeric
	Text    = data.Text
)

// Norms for multi-attribute distance aggregation.
const (
	L2   = metric.L2
	L1   = metric.L1
	LInf = metric.LInf
)

// Constructors re-exported from the data model.
var (
	// Num wraps a numeric value.
	Num = data.Num
	// Str wraps a textual value.
	Str = data.Str
	// NewRelation returns an empty relation over a schema.
	NewRelation = data.NewRelation
	// NewNumericSchema builds an all-numeric schema.
	NewNumericSchema = data.NewNumericSchema
	// FullMask returns the mask of attributes 0..m-1.
	FullMask = data.FullMask
	// ReadCSV and WriteCSV (de)serialize relations.
	ReadCSV  = data.ReadCSV
	WriteCSV = data.WriteCSV
)

// The DISC contribution (see internal/core).
type (
	// Constraints are the distance constraints (ε, η) of Definition 1.
	Constraints = core.Constraints
	// Options tune Algorithm 1 (κ restriction, pruning, parallelism).
	Options = core.Options
	// Detection is the inlier/outlier split of a relation.
	Detection = core.Detection
	// Adjustment is the result of saving one outlier.
	Adjustment = core.Adjustment
	// SaveResult is the outcome of saving every outlier of a relation.
	SaveResult = core.SaveResult
	// Saver saves outliers against a fixed inlier set.
	Saver = core.Saver
	// ExactSaver is the O(d^m·n) enumeration baseline of §2.3.
	ExactSaver = core.ExactSaver
	// ParamOptions tune the Poisson-based parameter determination.
	ParamOptions = core.ParamOptions
	// ParamChoice is a determined (ε, η) setting.
	ParamChoice = core.ParamChoice
	// SaveError records one outlier a SaveResult could not process.
	SaveError = core.SaveError
)

// Observability (see internal/obs). Wire Options.Progress and
// Options.Logger to receive these; SaveResult carries the merged
// SearchStats and PhaseTimings of the whole pipeline.
type (
	// SearchStats are the Algorithm 1 search counters (nodes expanded,
	// Proposition 3 prunes, memo hits, Proposition 5 witnesses) plus the
	// neighbor-index traffic of a run.
	SearchStats = obs.SearchStats
	// PhaseTimings breaks a Save run into pipeline phases.
	PhaseTimings = obs.PhaseTimings
	// Progress is one snapshot of a running batch, delivered to
	// Options.Progress at a bounded rate.
	Progress = obs.Progress
)

// DetectContext splits a relation into inliers and outliers under the
// constraints. idx must index rel; nil builds one. A caller running
// detection more than once, such as a session-caching layer, passes its
// built index so nothing is rebuilt per call; Detection.IndexBuild stays
// zero on that path. The counting pass stops promptly once ctx is
// cancelled and the cancellation is returned as an error.
func DetectContext(ctx context.Context, rel *Relation, cons Constraints, idx NeighborIndex) (*Detection, error) {
	return core.DetectContext(ctx, rel, cons, idx)
}

// RehydrateDetection reconstructs a Detection from persisted neighbor
// counts and the resolved η, re-deriving the inlier/outlier split without
// re-running the counting pass. It exists for durable session stores that
// checkpoint Detection.Counts: on restart they restore the split from the
// snapshot instead of paying detection again. Counts above η are clamped
// to η in place, so snapshots written before detection capped its counts
// restore into the same state as a fresh build.
func RehydrateDetection(counts []int, eta int) *Detection {
	return core.RehydrateDetection(counts, eta)
}

// SaveContext runs the full DISC pipeline: detect every violation of the
// distance constraints and save each outlier by near-minimal value
// adjustment (Algorithm 1 with the Proposition 3/5 bounds). The input is
// not modified; the repaired copy and the per-outlier adjustments are
// returned.
//
// ctx bounds the whole batch (a deadline on it is the batch budget) and
// Options.MaxNodes/Deadline bound each outlier's search. Instead of
// aborting on an expired budget the pipeline degrades:
// completed saves stand, in-flight saves return best-so-far adjustments
// flagged Exhausted, skipped outliers are listed in SaveResult.Errs, and a
// panic inside one outlier's save is recovered into its Errs entry while
// the remaining outliers are still saved.
func SaveContext(ctx context.Context, rel *Relation, cons Constraints, opts Options) (*SaveResult, error) {
	return core.SaveAllContext(ctx, rel, cons, opts)
}

// NewSaverContext prepares a saver for repeated single-tuple saves
// (Saver.SaveOne) against a fixed outlier-free relation. It builds the
// saver's indexes and issues no neighbor query; an already cancelled ctx
// is returned as an error.
func NewSaverContext(ctx context.Context, r *Relation, cons Constraints, opts Options) (*Saver, error) {
	return core.NewSaverContext(ctx, r, cons, opts)
}

// NewExactSaver prepares the exact value-enumeration baseline; maxDomain
// thins each attribute's candidate domain (0 keeps all observed values).
func NewExactSaver(r *Relation, cons Constraints, maxDomain int) (*ExactSaver, error) {
	return core.NewExactSaver(r, cons, maxDomain)
}

// DetermineParamsContext chooses (ε, η) from the Poisson model of
// ε-neighbor appearance (§2.1.2, Figure 5), optionally from a sample of
// the data. Cancelling ctx degrades to the best choice among the ε
// candidates measured so far (flagged ParamChoice.Exhausted).
func DetermineParamsContext(ctx context.Context, rel *Relation, opts ParamOptions) (ParamChoice, error) {
	return core.DeterminePoissonContext(ctx, rel, opts)
}

// NeighborCountsContext returns the sampled, uncapped #ε-neighbor
// distribution (Figure 5). Cancelling ctx returns (nil, ctx error).
func NeighborCountsContext(ctx context.Context, rel *Relation, eps, sampleRate float64, seed int64) ([]int, error) {
	return core.NeighborCountsContext(ctx, rel, eps, sampleRate, seed, nil)
}

// Clustering substrates (see internal/cluster).
type (
	// ClusterResult is a clustering: one label per tuple, -1 = noise.
	ClusterResult = cluster.Result
	// DBSCANConfig parameterizes DBSCAN.
	DBSCANConfig = cluster.DBSCANConfig
	// KMeansConfig parameterizes the K-Means family.
	KMeansConfig = cluster.KMeansConfig
	// SREMConfig parameterizes the EM mixture clustering.
	SREMConfig = cluster.SREMConfig
	// KMCConfig parameterizes coreset K-Means.
	KMCConfig = cluster.KMCConfig
	// OPTICSConfig parameterizes the OPTICS ordering.
	OPTICSConfig = cluster.OPTICSConfig
	// OPTICSResult is the OPTICS ordering plus extracted clustering.
	OPTICSResult = cluster.OPTICSResult
	// AggloConfig parameterizes single-link agglomerative clustering.
	AggloConfig = cluster.AggloConfig
)

// Clustering algorithms of the paper's evaluation (§4.1.1).
var (
	// DBSCAN is density-based clustering over any metric schema.
	DBSCAN = cluster.DBSCAN
	// DBSCANContext, KMeansContext and SREMContext are the cancellable
	// variants: they stop promptly once the context is cancelled and
	// return the context's error, with every tuple labelled noise
	// (DBSCAN) or with the best-so-far clustering (the restarted ones).
	// DBSCAN and DBSCANContext query DBSCANConfig.Index from GOMAXPROCS
	// goroutines at once, as DetectContext queries its index. Over an
	// index that lists its tuples by cell (the grid, the VP-tree, whose
	// cells are subtrees, and the brute scan as one cell, see
	// neighbors.JoinerOf) they run two passes: detection's capped core
	// test, then a join of cells, first each cell's core tuples among
	// themselves, then each pair of nearby cells whose core tuples are not
	// yet one cluster. Over any other index (a mutable index, a foreign
	// one) they run one full range query per tuple. A
	// cancellation or a panic in any phase labels every tuple noise and
	// returns the error; DBSCAN re-raises it. Both paths give the labels
	// of the serial seed expansion.
	DBSCANContext = cluster.DBSCANContext
	KMeansContext = cluster.KMeansContext
	SREMContext   = cluster.SREMContext
	// KMeans is Lloyd's algorithm with k-means++ seeding and restarts.
	KMeans = cluster.KMeans
	// KMeansMM is K-Means-- (k clusters and l outliers).
	KMeansMM = cluster.KMeansMM
	// CCKM is cardinality-constrained clustering with an outlier cluster.
	CCKM = cluster.CCKM
	// SREM is stability-region EM over Gaussian mixtures.
	SREM = cluster.SREM
	// KMC is coreset K-Means.
	KMC = cluster.KMC
	// OPTICS orders points by density reachability (Ankerst et al.).
	OPTICS = cluster.OPTICS
	// SingleLink is MST-cut agglomerative clustering.
	SingleLink = cluster.SingleLink
)

// NeighborIndex answers ε-range and k-NN queries (see internal/neighbors).
type NeighborIndex = neighbors.Index

// IndexCounters tallies the query traffic of a counting index view: queries
// by kind and the tuple-pair distance evaluations spent answering them. The
// fields are plain int64s — one instance per goroutine, merged only after
// the owner is done.
type IndexCounters = neighbors.Counters

// CountingIndex wraps an index so every query against the view is tallied
// in the supplied counters; the built structure is shared, not copied. It
// is how a serving layer proves its cached index answered a request — query
// counters move while build counters stay put.
var CountingIndex = neighbors.Counting

// MutableIndex is a neighbor index supporting single-tuple inserts and
// deletes: the grid absorbs churn natively via its cell map, the other
// index kinds buffer inserts in a delta scanned alongside the frozen
// base and merged on a size threshold; deletes tombstone rows in place.
// See internal/neighbors.Mutable.
type MutableIndex = neighbors.Mutable

// IndexKind selects a concrete index implementation for NewMutableIndex;
// parse wire names with ParseIndexKind.
type IndexKind = neighbors.IndexKind

// Index kinds: automatic selection, brute scan, grid, vantage-point tree.
// KindAuto picks a grid for numeric data with at most six attributes when
// eps > 0 (eps hints the grid cell size), else a vantage-point tree from
// 64 tuples, else a brute scan.
const (
	KindAuto  = neighbors.KindAuto
	KindBrute = neighbors.KindBrute
	KindGrid  = neighbors.KindGrid
	KindVP    = neighbors.KindVP
)

// ParseIndexKind maps the wire names ("auto", "brute", "grid", "vp") to
// an IndexKind.
var ParseIndexKind = neighbors.ParseIndexKind

// NewMutableIndex builds a mutable neighbor index over rel; kind selects
// the concrete base (KindAuto applies the rule above). The grid
// requires an all-numeric schema.
func NewMutableIndex(rel *Relation, eps float64, kind IndexKind) (*MutableIndex, error) {
	return neighbors.NewMutable(rel, eps, kind)
}
