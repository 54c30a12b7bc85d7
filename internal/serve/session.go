// Package serve is the long-running serving layer over the DISC pipeline: a
// dataset session registry that builds the neighbor index and
// distance-constraint state once and serves many requests against it, a
// micro-batching executor that coalesces concurrent save requests into
// batches over the shared worker pool, and the JSON-over-HTTP surface of
// cmd/discserve.
//
// The point of the subsystem is amortization: the paper's complexity
// analysis (§4) charges O(m^{κ+1}·n) per outlier on top of index
// construction, and the one-shot CLIs pay the construction on every
// invocation. A session pays it once — upload or load a dataset, build its
// index and η-radius table, then detection is a cheap always-on screen and
// repair a budgeted per-request search, both against cached state.
//
// serve deliberately consumes the public disc API (plus internal/par for
// the worker pool and internal/obs for counters) rather than internal/core:
// it is the first out-of-repo-shaped consumer of the library surface.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	disc "repro"
	"repro/internal/obs"
)

// BuildParams select the dataset and constraints of one session.
type BuildParams struct {
	// Eps and Eta are the distance constraints; non-positive values are
	// determined automatically from the Poisson model (§2.1.2).
	Eps float64
	Eta int
	// Kappa bounds adjusted attributes per save (≤ 0: unrestricted).
	Kappa int
	// MaxNodes bounds the search nodes per save (≤ 0: unlimited).
	MaxNodes int
	// Seed feeds the parameter-determination sampling.
	Seed int64
	// Index names the neighbor index kind ("" or "auto" picks one; see
	// disc.ParseIndexKind for the wire names).
	Index string
	// Approx switches the session's build-time detection to the sampled
	// estimator with exact borderline refinement (disc.DetectApprox);
	// ApproxConfidence tunes its certificate confidence (0 picks the
	// default). Warm /detect requests answer from cached counts either way.
	Approx           bool
	ApproxConfidence float64
}

// key canonicalizes the params for load-by-path deduplication.
func (p BuildParams) key(path string) string {
	return fmt.Sprintf("%s|%g|%d|%d|%d|%d|%s|%t|%g", path, p.Eps, p.Eta, p.Kappa, p.MaxNodes, p.Seed, p.Index, p.Approx, p.ApproxConfidence)
}

// Session is one cached dataset: the relation, its detection split, the
// full-relation index answering /detect, and a warm Saver (inlier index +
// η-radius table + arena pool) answering /save — all built once.
type Session struct {
	ID string
	// Name labels the session for humans (upload name, path, or table1
	// spec); Key is the dedup key for path-loaded sessions ("" for
	// uploads, which are never deduplicated).
	Name, Key string
	// Source is the server-side dataset path for path-loaded sessions (""
	// for uploads); Params are the requested build parameters. Both go into
	// the durable snapshot so a corrupt payload can still be rebuilt from
	// source under identical settings.
	Source string
	Params BuildParams
	Rel    *disc.Relation
	Cons   disc.Constraints
	Kappa  int
	Det    *disc.Detection
	// RelIdx indexes the full relation (detection semantics: |r_ε(t)| is
	// counted over the whole dataset); the saver holds its own index over
	// the inlier subset. relMut is the same index as its mutable wrapper,
	// the handle the mutation path inserts/deletes through.
	RelIdx  disc.NeighborIndex
	relMut  *disc.MutableIndex
	Saver   *disc.Saver
	Created time.Time

	// stateMu guards the mutable dataset state: the relation, both
	// indexes, the detection counts, the saver's inlier set and the
	// logical row mapping. Detect and save requests hold it for reading,
	// mutations exclusively. Lock order: stateMu before mu, always.
	stateMu sync.RWMutex
	// schema is the immutable schema pointer, safe to read without
	// stateMu (compaction swaps Rel but never the schema).
	schema *disc.Schema
	// logical maps API row indices (upload order, then insertion order)
	// to physical rows of Rel; -1 marks a deleted row. Updates tombstone
	// the old physical row and repoint the slot, so row handles survive
	// any mutation sequence.
	logical []int
	// fullToSaver maps full-relation physical rows to the saver's
	// physical rows (-1 for outliers and dead rows), maintained as
	// mutations flip tuples across the η threshold.
	fullToSaver []int
	// inliers/outliers are live counts; Det.Inliers/Det.Outliers go stale
	// under mutation and are only rebuilt at compaction.
	inliers, outliers int
	// mstats counts mutation traffic (see SessionInfo).
	mstats mutStats
	// reg points back at the owning registry so mutations can settle the
	// byte ledger; set once at register time.
	reg *Registry
	// Bytes approximates the session's resident footprint (tuples plus
	// index structures) for the registry's byte bound.
	Bytes int64
	// Timings records the one-off build phases, in the same shape SaveAll
	// reports. On a recovered session Detect and Validate are zero — the
	// snapshot skipped both — and Recovered is set.
	Timings   obs.PhaseTimings
	Recovered bool

	batcher *batcher

	mu       sync.Mutex
	lastUsed time.Time
	// persisted marks the session's snapshot as durably on disk; a session
	// that failed to persist (transient IO error) stays dirty and is retried
	// at drain time. unsnapshottable marks sessions that can never persist
	// (custom text metric) so the drain does not retry them forever.
	persisted       bool
	unsnapshottable bool
	// stats accumulates the index and search traffic of every request
	// served against the cached state; indexBuilds counts build events and
	// never moves after construction — the pair is the warm-path proof
	// that queries flow while nothing is rebuilt.
	stats       obs.SearchStats
	indexBuilds int64
	saves       int64
	detects     int64
	// hists is the per-session half of the serving histograms; every
	// observation lands here and in the registry's global bundle.
	hists obs.ServeHists
}

// observeSave records one save's wall time and node count into the
// session's histograms and the registry's global ones. The double record
// costs six atomic adds per save — nothing next to the save itself — and
// keeps both scopes exact without a merge at scrape time.
func (s *Session) observeSave(d time.Duration, nodes int64) {
	s.hists.Save.Observe(int64(d))
	s.hists.SaveNodes.Observe(nodes)
	if s.reg != nil {
		s.reg.hists.Save.Observe(int64(d))
		s.reg.hists.SaveNodes.Observe(nodes)
	}
}

// observeQueueWait records how long one admitted request waited in the
// queue before a dispatch worker picked it up.
func (s *Session) observeQueueWait(d time.Duration) {
	s.hists.QueueWait.Observe(int64(d))
	if s.reg != nil {
		s.reg.hists.QueueWait.Observe(int64(d))
	}
}

// observeBatchSize records one dispatch's batch size.
func (s *Session) observeBatchSize(n int) {
	s.hists.BatchSize.Observe(int64(n))
	if s.reg != nil {
		s.reg.hists.BatchSize.Observe(int64(n))
	}
}

// observeRedetect records one mutation's re-detection footprint (the
// `touched` count also totalled in mstats.redetectTouched).
func (s *Session) observeRedetect(touched int) {
	s.hists.Redetect.Observe(int64(touched))
	if s.reg != nil {
		s.reg.hists.Redetect.Observe(int64(touched))
	}
}

// mutStats counts a session's mutation traffic. Guarded by Session.mu.
type mutStats struct {
	inserted, updated, deleted int64
	// redetectTouched totals the tuples whose ε-neighbor counts were
	// re-examined by mutations (the incremental alternative to n-sized
	// re-detections).
	redetectTouched int64
	// compactions counts full session rebuilds triggered by tombstone
	// pressure.
	compactions int64
}

// touch marks the session used now (LRU recency).
func (s *Session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// addStats folds one request's search/index traffic into the session.
func (s *Session) addStats(st *obs.SearchStats, saves, detects int64) {
	s.mu.Lock()
	s.stats.Add(st)
	s.saves += saves
	s.detects += detects
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// SessionInfo is the JSON view of a session.
type SessionInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Tuples      int     `json:"tuples"`
	Attrs       int     `json:"attrs"`
	Eps         float64 `json:"eps"`
	Eta         int     `json:"eta"`
	Kappa       int     `json:"kappa"`
	Inliers     int     `json:"inliers"`
	Outliers    int     `json:"outliers"`
	Bytes       int64   `json:"bytes"`
	IndexBuilds int64   `json:"index_builds"`
	Saves       int64   `json:"saves"`
	Detects     int64   `json:"detects"`
	Batches     int64   `json:"batches"`
	QueueDepth  int     `json:"queue_depth"`
	Recovered   bool    `json:"recovered"`
	Index       string  `json:"index"`
	Inserted    int64   `json:"tuples_inserted"`
	Updated     int64   `json:"tuples_updated"`
	Deleted     int64   `json:"tuples_deleted"`
	Redetect    int64   `json:"redetect_touched"`
	DeltaMerges int64   `json:"delta_merges"`
	Compactions int64   `json:"compactions"`
	// ApproxBandFrac is the borderline-band fraction of the approximate
	// detection passes served so far: exact refinements over all
	// approx-classified tuples (0 when the session never ran approximate
	// detection). The speed win is roughly 1 − band fraction.
	ApproxBandFrac float64                `json:"approx_band_frac"`
	CreatedAt      time.Time              `json:"created_at"`
	LastUsedAt     time.Time              `json:"last_used_at"`
	Stats          obs.SearchStats        `json:"stats"`
	Timings        obs.PhaseTimings       `json:"timings"`
	Hists          obs.ServeHistsSnapshot `json:"hists"`
}

// Info snapshots the session.
func (s *Session) Info() SessionInfo {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	bandFrac := 0.0
	if tot := s.stats.ApproxSampled + s.stats.ApproxRefined; tot > 0 {
		bandFrac = float64(s.stats.ApproxRefined) / float64(tot)
	}
	return SessionInfo{
		ID: s.ID, Name: s.Name,
		Tuples: s.relMut.Live(), Attrs: s.Rel.Schema.M(),
		Eps: s.Cons.Eps, Eta: s.Cons.Eta, Kappa: s.Kappa,
		Inliers: s.inliers, Outliers: s.outliers,
		Bytes:       s.Bytes,
		IndexBuilds: s.indexBuilds,
		Saves:       s.saves, Detects: s.detects,
		Batches:    s.batcher.batches.Load(),
		QueueDepth: len(s.batcher.queue),
		Recovered:  s.Recovered,
		Index:      s.relMut.Kind().String(),
		Inserted:   s.mstats.inserted, Updated: s.mstats.updated, Deleted: s.mstats.deleted,
		Redetect:       s.mstats.redetectTouched,
		DeltaMerges:    s.relMut.Merges() + s.Saver.Mutable().Merges(),
		Compactions:    s.mstats.compactions,
		ApproxBandFrac: bandFrac,
		CreatedAt:      s.Created, LastUsedAt: s.lastUsed,
		Stats: s.stats, Timings: s.Timings,
		Hists: s.hists.Snapshot(),
	}
}

// newID returns a 16-hex-char random session id. It is a var so the
// collision regression test can force duplicates; register re-checks
// uniqueness regardless of the generator.
var newID = func() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// estimateBytes approximates the resident footprint of a session built over
// rel: tuple storage plus a factor for the two neighbor indexes, the inlier
// copy and the η-radius table. The registry's byte bound is a capacity
// knob, not an accounting ledger, so a consistent estimate beats an exact
// but expensive measurement.
func estimateBytes(rel *disc.Relation) int64 {
	var b int64
	for _, t := range rel.Tuples {
		b += tupleBytes(t)
	}
	return b
}

// tupleBytes is the per-tuple share of estimateBytes, the increment the
// mutation path applies to the session and registry ledgers on insert
// (and subtracts on delete — tombstoned storage lingers until
// compaction, but the ledger tracks the post-compaction footprint the
// estimate always approximated).
func tupleBytes(t disc.Tuple) int64 {
	const tupleOverhead = 48 // slice header + relation bookkeeping
	const valueBytes = 32    // Value struct (float64 + string header)
	b := tupleOverhead + int64(len(t))*valueBytes
	for i := range t {
		b += int64(len(t[i].Str))
	}
	return 3 * b
}

// approxMinN and approxSampleRate pass through to the approximate
// detector's MinN and SampleRate; zero keeps its defaults. Vars so tests
// can drive the sampled path on relations small enough to re-detect from
// scratch after every mutation.
var (
	approxMinN       = 0
	approxSampleRate = 0.0
)

// buildSession runs the one-off pipeline: validate, determine parameters if
// unset, build the full-relation index, detect, and prepare the saver over
// the inliers. Everything a warm request touches is constructed here.
func buildSession(ctx context.Context, id, name, key, source string, rel *disc.Relation, p BuildParams, cfg Config, log *slog.Logger) (*Session, error) {
	start := time.Now()
	if rel.N() == 0 {
		return nil, fmt.Errorf("serve: dataset %q is empty", name)
	}
	if err := disc.ValidateValues(rel); err != nil {
		return nil, err
	}
	validate := time.Since(start)

	cons := disc.Constraints{Eps: p.Eps, Eta: p.Eta}
	if cons.Eps <= 0 || cons.Eta < 1 {
		choice, err := disc.DetermineParamsContext(ctx, rel, disc.ParamOptions{Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("serve: determining (ε, η) for %q: %w", name, err)
		}
		if cons.Eps <= 0 {
			cons.Eps = choice.Eps
		}
		if cons.Eta < 1 {
			cons.Eta = choice.Eta
		}
	}

	kind, err := disc.ParseIndexKind(p.Index)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	t0 := time.Now()
	relMut, err := disc.NewMutableIndex(rel, cons.Eps, kind)
	if err != nil {
		return nil, fmt.Errorf("serve: indexing %q: %w", name, err)
	}
	detIdxBuild := time.Since(t0)
	var det *disc.Detection
	if p.Approx || cfg.ApproxDefault {
		det, err = disc.DetectApproxWithIndex(ctx, rel, cons, relMut,
			disc.ApproxDetectOptions{Confidence: p.ApproxConfidence, Seed: p.Seed,
				MinN: approxMinN, SampleRate: approxSampleRate})
	} else {
		det, err = disc.DetectWithIndex(ctx, rel, cons, relMut)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: detecting over %q: %w", name, err)
	}
	if len(det.Inliers) == 0 {
		return nil, fmt.Errorf("serve: every tuple of %q violates (ε=%g, η=%d); nothing to save against", name, cons.Eps, cons.Eta)
	}
	t0 = time.Now()
	saverMut, err := disc.NewMutableIndex(rel.Subset(det.Inliers), cons.Eps, kind)
	if err != nil {
		return nil, fmt.Errorf("serve: indexing inliers of %q: %w", name, err)
	}
	saverIdxBuild := time.Since(t0)
	saver, err := disc.NewSaverContext(ctx, saverMut.Rel(), cons, disc.Options{
		Kappa:    p.Kappa,
		MaxNodes: p.MaxNodes,
		Index:    saverMut,
		Logger:   cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: preparing saver for %q: %w", name, err)
	}
	setupStats, _, etaRadius := saver.SetupStats()

	s := &Session{
		ID: id, Name: name, Key: key,
		Source: source, Params: p,
		Rel: rel, Cons: cons, Kappa: p.Kappa,
		Det: det, RelIdx: relMut, relMut: relMut, Saver: saver,
		Created: time.Now(), Bytes: estimateBytes(rel),
		Timings: obs.PhaseTimings{
			Validate: validate,
			Detect:   det.Elapsed, DetectIndexBuild: detIdxBuild,
			IndexBuild: saverIdxBuild, EtaRadius: etaRadius,
			Total: time.Since(start),
		},
		lastUsed: time.Now(),
		// Exactly two index builds per session lifetime (compactions
		// aside): the full-relation detection index and the saver's
		// inlier index. Warm requests must never move this counter.
		indexBuilds: 2,
	}
	s.initMutableState()
	s.stats.Add(&det.Stats)
	s.stats.Add(&setupStats)
	s.batcher = newBatcher(s, cfg)
	obs.Logger(log).Info("serve: session built", "id", id, "name", name,
		"tuples", rel.N(), "inliers", len(det.Inliers), "outliers", len(det.Outliers),
		"eps", cons.Eps, "eta", cons.Eta, "bytes", s.Bytes,
		"build", s.Timings.Total)
	return s, nil
}

// Registry is the LRU/TTL-bounded session cache. Uploads always create a
// fresh session; load-by-path requests are deduplicated two ways — an
// existing session with the same (path, params) key is returned directly,
// and concurrent builds of the same key collapse onto one in-flight build
// (singleflight) so a thundering herd pays for one index, not N.
type Registry struct {
	cfg Config
	log *slog.Logger
	// store is the durable side (nil without a data dir); storeErr records
	// a failed store init, surfaced by Server.Recover so New keeps its
	// error-free signature.
	store    *Store
	storeErr error
	// hists aggregates the serving histograms across every session this
	// registry ever held — the global half of the per-session/global pair,
	// monotone across session eviction.
	hists obs.ServeHists

	mu       sync.Mutex
	sessions map[string]*Session
	byKey    map[string]*Session
	inflight map[string]*inflightBuild
	bytes    int64
	closed   bool
	evicted  int64
	expired  int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// inflightBuild is one in-progress load-by-path build; waiters block on
// done and read s/err after it closes.
type inflightBuild struct {
	done chan struct{}
	s    *Session
	err  error
}

// testBuildHook, when non-nil, runs inside every registry build, before the
// session is constructed. Tests use it to hold builds open so concurrent
// loads demonstrably collapse onto one flight.
var testBuildHook func()

// NewRegistry returns an empty registry and starts the TTL janitor when
// cfg.TTL is set.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		cfg:      cfg,
		log:      obs.Logger(cfg.Logger),
		sessions: map[string]*Session{},
		byKey:    map[string]*Session{},
		inflight: map[string]*inflightBuild{},
	}
	if cfg.DataDir != "" {
		r.store, r.storeErr = newStore(cfg.DataDir, cfg.Logger)
	}
	if cfg.TTL > 0 {
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor()
	}
	return r
}

// janitor sweeps idle sessions every TTL/2.
func (r *Registry) janitor() {
	defer close(r.janitorDone)
	tick := time.NewTicker(r.cfg.TTL / 2)
	defer tick.Stop()
	for {
		select {
		case <-r.janitorStop:
			return
		case now := <-tick.C:
			r.Sweep(now)
		}
	}
}

// Sweep evicts sessions idle longer than the TTL; it is the janitor's body,
// exported so tests (and embedders without the janitor) can drive time
// explicitly.
func (r *Registry) Sweep(now time.Time) {
	if r.cfg.TTL <= 0 {
		return
	}
	var drop []*Session
	r.mu.Lock()
	for _, s := range r.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		// A session with queued or in-flight batcher work is not idle no
		// matter what lastUsed says — closing its batcher would cut off
		// admitted requests mid-queue. It will be swept once drained.
		if idle > r.cfg.TTL && !s.batcher.busy() {
			drop = append(drop, s)
		}
	}
	for _, s := range drop {
		r.removeLocked(s)
		r.expired++
	}
	r.mu.Unlock()
	for _, s := range drop {
		r.log.Info("serve: session expired", "id", s.ID, "name", s.Name, "ttl", r.cfg.TTL)
		if r.store != nil {
			r.store.remove(s.ID)
		}
		go s.batcher.close()
	}
}

// Upload builds a session from an already-parsed relation and registers it
// under a fresh id. Uploads are never deduplicated: two identical uploads
// are two sessions.
func (r *Registry) Upload(ctx context.Context, name string, rel *disc.Relation, p BuildParams) (*Session, error) {
	if testBuildHook != nil {
		testBuildHook()
	}
	s, err := buildSession(ctx, newID(), name, "", "", rel, p, r.cfg, r.log)
	if err != nil {
		return nil, err
	}
	return r.register(ctx, s)
}

// OpenPath returns the session for (path, params), loading and building it
// on first use. Concurrent calls for the same key share one build.
func (r *Registry) OpenPath(ctx context.Context, path string, p BuildParams) (*Session, error) {
	key := p.key(path)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	if s, ok := r.byKey[key]; ok {
		r.mu.Unlock()
		s.touch()
		return s, nil
	}
	if fl, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-fl.done:
			return fl.s, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &inflightBuild{done: make(chan struct{})}
	r.inflight[key] = fl
	r.mu.Unlock()

	s, err := r.buildFromPath(ctx, newID(), path, key, p)
	if err == nil {
		s, err = r.register(ctx, s)
	}
	fl.s, fl.err = s, err
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(fl.done)
	return s, err
}

// buildFromPath reads the dataset file (CSV, or a dataset JSON written by
// WriteDatasetJSON, which carries its own (ε, η) defaults) and builds the
// session under the given id. Recovery reuses it to rebuild a session whose
// snapshot was corrupt, keeping the original id so clients' handles stay
// valid.
func (r *Registry) buildFromPath(ctx context.Context, id, path, key string, p BuildParams) (*Session, error) {
	if testBuildHook != nil {
		testBuildHook()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening dataset: %w", err)
	}
	defer f.Close()
	var rel *disc.Relation
	if strings.EqualFold(filepath.Ext(path), ".json") {
		ds, err := disc.ReadDatasetJSON(f)
		if err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
		rel = ds.Rel
		if p.Eps <= 0 {
			p.Eps = ds.Eps
		}
		if p.Eta < 1 {
			p.Eta = ds.Eta
		}
	} else {
		rel, err = disc.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
	}
	return buildSession(ctx, id, path, key, path, rel, p, r.cfg, r.log)
}

// register installs a built session and enforces the count/byte bounds,
// evicting least-recently-used sessions (never the one just added). ctx
// carries the building request's trace, so the registration-time snapshot
// write shows up as a span on dataset-create requests.
func (r *Registry) register(ctx context.Context, s *Session) (*Session, error) {
	var drop []*Session
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		go s.batcher.close()
		return nil, errClosed
	}
	// An id collision would silently shadow the existing session — and
	// store.remove would then delete the survivor's snapshot. Regenerate
	// until unique; 64 random bits make one retry already newsworthy.
	for {
		if _, dup := r.sessions[s.ID]; !dup {
			break
		}
		old := s.ID
		s.ID = newID()
		r.log.Warn("serve: session id collision, regenerated", "old", old, "new", s.ID)
	}
	s.reg = r
	r.sessions[s.ID] = s
	if s.Key != "" {
		r.byKey[s.Key] = s
	}
	r.bytes += s.Bytes
	for r.overLocked() {
		lru := r.lruLocked(s)
		if lru == nil {
			break
		}
		r.removeLocked(lru)
		r.evicted++
		drop = append(drop, lru)
	}
	r.mu.Unlock()
	for _, old := range drop {
		r.log.Info("serve: session evicted", "id", old.ID, "name", old.Name,
			"bytes", old.Bytes, "for", s.ID)
		if r.store != nil {
			r.store.remove(old.ID)
		}
		go old.batcher.close()
	}
	r.persist(ctx, s)
	return s, nil
}

// overLocked reports whether the count or byte bound is exceeded. The
// newest session is always kept even when it alone exceeds MaxBytes —
// evicting what was just built would livelock the cache — hence the
// len > 1 guards.
func (r *Registry) overLocked() bool {
	if r.cfg.MaxSessions > 0 && len(r.sessions) > r.cfg.MaxSessions && len(r.sessions) > 1 {
		return true
	}
	if r.cfg.MaxBytes > 0 && r.bytes > r.cfg.MaxBytes && len(r.sessions) > 1 {
		return true
	}
	return false
}

// lruLocked returns the least-recently-used session other than keep,
// skipping sessions with queued or in-flight batcher work — evicting one
// would cut off admitted requests. When every other session is busy it
// returns nil and the bound stays temporarily exceeded; the next
// register or mutation retries.
func (r *Registry) lruLocked(keep *Session) *Session {
	var lru *Session
	var lruAt time.Time
	for _, s := range r.sessions {
		if s == keep || s.batcher.busy() {
			continue
		}
		s.mu.Lock()
		at := s.lastUsed
		s.mu.Unlock()
		if lru == nil || at.Before(lruAt) {
			lru, lruAt = s, at
		}
	}
	return lru
}

// noteBytes settles a mutation's footprint delta into the session and
// registry ledgers and enforces the byte bound, evicting idle sessions
// (never the mutating one). Called with the session's stateMu held;
// lock order stateMu → r.mu → s.mu.
func (r *Registry) noteBytes(s *Session, delta int64) {
	var drop []*Session
	r.mu.Lock()
	s.mu.Lock()
	s.Bytes += delta
	s.mu.Unlock()
	if _, live := r.sessions[s.ID]; live {
		r.bytes += delta
		for r.overLocked() {
			lru := r.lruLocked(s)
			if lru == nil {
				break
			}
			r.removeLocked(lru)
			r.evicted++
			drop = append(drop, lru)
		}
	}
	r.mu.Unlock()
	for _, old := range drop {
		r.log.Info("serve: session evicted", "id", old.ID, "name", old.Name,
			"bytes", old.Bytes, "for", s.ID)
		if r.store != nil {
			r.store.remove(old.ID)
		}
		go old.batcher.close()
	}
}

// removeLocked unlinks a session from the maps and the byte ledger; the
// caller closes its batcher outside the lock.
func (r *Registry) removeLocked(s *Session) {
	delete(r.sessions, s.ID)
	if s.Key != "" && r.byKey[s.Key] == s {
		delete(r.byKey, s.Key)
	}
	r.bytes -= s.Bytes
}

// Get returns the session and marks it used.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// Delete evicts the session; in-flight requests against it still complete
// (the batcher drains), new ones see 404.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		r.removeLocked(s)
	}
	r.mu.Unlock()
	if ok {
		if r.store != nil {
			r.store.remove(id)
		}
		go s.batcher.close()
	}
	return ok
}

// List snapshots the sessions sorted by id.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Stats returns the registry-level counters for /varz.
func (r *Registry) Stats() (count int, bytes, evicted, expired int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions), r.bytes, r.evicted, r.expired
}

// Close stops admission on every session, drains their queues (in-flight
// and already-queued requests complete), and blocks until every dispatcher
// has exited. The registry rejects new sessions afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	all := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		all = append(all, s)
	}
	r.sessions = map[string]*Session{}
	r.byKey = map[string]*Session{}
	r.bytes = 0
	r.mu.Unlock()
	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}
	// The drain is the last chance to persist sessions whose snapshot write
	// failed earlier (transient IO, injected fault): retry them now so a
	// clean shutdown loses nothing a restart could have recovered.
	for _, s := range all {
		r.persist(context.Background(), s)
	}
	for _, s := range all {
		s.batcher.close()
	}
}
