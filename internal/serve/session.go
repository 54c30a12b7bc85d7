// Package serve is the long-running serving layer over the DISC pipeline: a
// dataset session registry that builds the neighbor index and
// distance-constraint state once and serves many requests against it, a
// per-session admission gate that bounds the saves and mutations each
// session holds and runs at once, and the JSON-over-HTTP surface of
// cmd/discserve.
//
// The point of the subsystem is amortization: the paper's complexity
// analysis (§4) charges O(m^{κ+1}·n) per outlier on top of index
// construction, and the one-shot CLIs pay the construction on every
// invocation. A session pays it once — upload or load a dataset, build its
// indexes, then detection is a cheap always-on screen and repair a
// budgeted per-request search, both against cached state (the saver's
// η-radius table fills as saves read it).
//
// serve deliberately consumes the public disc API (plus internal/obs for
// counters) rather than internal/core: it is the first out-of-repo-shaped
// consumer of the library surface.
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
}

// key is the load-by-path dedup key of a session built from path under p,
// and its only source: OpenPath looks sessions up by it, and every session
// (fresh, rehydrated or rebuilt) derives its own from Source and Params.
// The index is canonicalized, so "" and "auto" share one session. Uploads
// (path "") are never deduplicated and have no key.
func (p BuildParams) key(path string) string {
	if path == "" {
		return ""
	}
	index := p.Index
	if kind, err := disc.ParseIndexKind(index); err == nil {
		index = kind.String()
	}
	return fmt.Sprintf("%s|%g|%d|%d|%d|%d|%s", path, p.Eps, p.Eta, p.Kappa, p.MaxNodes, p.Seed, index)
}

// Session is one cached dataset: the relation, its detection split, the
// full-relation index answering /detect, and a warm Saver (inlier index +
// η-radius table + arena pool) answering /save — all built once, the
// radius table filled on first read.
type Session struct {
	ID string
	// Name labels the session for humans (upload name, path, or table1
	// spec).
	Name string
	// Source is the server-side dataset path for path-loaded sessions (""
	// for uploads); Params are the requested build parameters, verbatim
	// (a dataset file's own (ε, η) defaults resolve into Cons, not here).
	// Together they determine the dedup key, and both go into the durable
	// snapshot so a corrupt payload can still be rebuilt from source under
	// identical settings.
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
	// mutations exclusively. Only readState and writeState touch it.
	// Lock order: stateMu before mu, always.
	stateMu sync.RWMutex
	// schema is the immutable schema pointer, set at construction and
	// safe to read without stateMu (compaction swaps Rel but never the
	// schema).
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
	// Timings records the one-off build phases, in the same shape
	// SaveAllContext reports. On a recovered session Detect and Validate
	// are zero — the snapshot skipped both — and Recovered is set.
	Timings   obs.PhaseTimings
	Recovered bool

	gate *gate

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
	// that queries flow while nothing is rebuilt. stats also holds the
	// saver's η-radius work, taken by each save and mutation.
	stats       obs.SearchStats
	indexBuilds int64
	saves       int64
	detects     int64
	// hists is the per-session half of the serving histograms; every
	// observation lands here and in the registry's global bundle.
	hists obs.ServeHists
	// shape is the live dataset as of the last warmUp or mutation,
	// published under mu so Info never waits on stateMu.
	shape liveShape
}

// liveShape is what Info reports of the state stateMu guards.
type liveShape struct {
	tuples, inliers, outliers int
	// merges counts the delta merges of both Mutable indexes.
	merges int64
	kind   disc.IndexKind
}

// readState runs f holding the state lock for reading, and writeState
// runs it holding the lock exclusively. They are the only code that locks
// stateMu, and both unlock with defer, so a panic inside f (recovered by
// the gate or the HTTP server) can never leave the session locked.
func (s *Session) readState(f func()) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	f()
}

func (s *Session) writeState(f func()) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	f()
}

// publishLocked copies the live shape into s.shape and moves the saver's
// η-radius work into s.stats, both under mu. The caller holds stateMu or
// owns s exclusively.
func (s *Session) publishLocked() {
	radii := s.Saver.TakeRadiusStats()
	s.mu.Lock()
	s.shape = liveShape{
		tuples: s.relMut.Live(), inliers: s.inliers, outliers: s.outliers,
		merges: s.relMut.Merges() + s.Saver.Mutable().Merges(),
		kind:   s.relMut.Kind(),
	}
	s.stats.Add(&radii)
	s.mu.Unlock()
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

// observeQueueWait records how long one admitted request waited for a
// worker slot.
func (s *Session) observeQueueWait(d time.Duration) {
	s.hists.QueueWait.Observe(int64(d))
	if s.reg != nil {
		s.reg.hists.QueueWait.Observe(int64(d))
	}
}

// observeBatchSize records one dispatch's size, always 1: every request
// runs on its own.
func (s *Session) observeBatchSize() {
	s.hists.BatchSize.Observe(1)
	if s.reg != nil {
		s.reg.hists.BatchSize.Observe(1)
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

// key is the session's load-by-path dedup key ("" for uploads).
func (s *Session) key() string { return s.Params.key(s.Source) }

// touch marks the session used now (LRU recency).
func (s *Session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// save runs Algorithm 1 for one tuple and records its span, histograms and
// counters. It holds the state read-lock while it searches, so the save
// sees one consistent version of the mutable state, and takes the saver's
// η-radius work under the same lock, before a compaction can swap the
// saver.
func (s *Session) save(ctx context.Context, t disc.Tuple) disc.Adjustment {
	start := time.Now()
	var adj disc.Adjustment
	var st obs.SearchStats
	s.readState(func() {
		adj = s.Saver.SaveOne(ctx, t)
		st = s.Saver.TakeRadiusStats()
	})
	obs.TraceFrom(ctx).Span("save", start)
	s.observeSave(time.Since(start), adj.Stats.Nodes)
	st.Add(&adj.Stats)
	s.addStats(&st, 1, 0)
	return adj
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
	ID          string                 `json:"id"`
	Name        string                 `json:"name"`
	Tuples      int                    `json:"tuples"`
	Attrs       int                    `json:"attrs"`
	Eps         float64                `json:"eps"`
	Eta         int                    `json:"eta"`
	Kappa       int                    `json:"kappa"`
	Inliers     int                    `json:"inliers"`
	Outliers    int                    `json:"outliers"`
	Bytes       int64                  `json:"bytes"`
	IndexBuilds int64                  `json:"index_builds"`
	Saves       int64                  `json:"saves"`
	Detects     int64                  `json:"detects"`
	Batches     int64                  `json:"batches"`
	QueueDepth  int                    `json:"queue_depth"`
	Recovered   bool                   `json:"recovered"`
	Index       string                 `json:"index"`
	Inserted    int64                  `json:"tuples_inserted"`
	Updated     int64                  `json:"tuples_updated"`
	Deleted     int64                  `json:"tuples_deleted"`
	Redetect    int64                  `json:"redetect_touched"`
	DeltaMerges int64                  `json:"delta_merges"`
	Compactions int64                  `json:"compactions"`
	CreatedAt   time.Time              `json:"created_at"`
	LastUsedAt  time.Time              `json:"last_used_at"`
	Stats       obs.SearchStats        `json:"stats"`
	Timings     obs.PhaseTimings       `json:"timings"`
	Hists       obs.ServeHistsSnapshot `json:"hists"`
}

// Info snapshots the session. It reads only what is published under mu,
// so it never waits behind a save or a mutation.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		ID: s.ID, Name: s.Name,
		Tuples: s.shape.tuples, Attrs: s.schema.M(),
		Eps: s.Cons.Eps, Eta: s.Cons.Eta, Kappa: s.Kappa,
		Inliers: s.shape.inliers, Outliers: s.shape.outliers,
		Bytes:       s.Bytes,
		IndexBuilds: s.indexBuilds,
		Saves:       s.saves, Detects: s.detects,
		Batches:    s.gate.dispatches.Load(),
		QueueDepth: s.gate.depth(),
		Recovered:  s.Recovered,
		Index:      s.shape.kind.String(),
		Inserted:   s.mstats.inserted, Updated: s.mstats.updated, Deleted: s.mstats.deleted,
		Redetect:    s.mstats.redetectTouched,
		DeltaMerges: s.shape.merges,
		Compactions: s.mstats.compactions,
		CreatedAt:   s.Created, LastUsedAt: s.lastUsed,
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

// buildSession runs the one-off pipeline: validate, determine parameters if
// unset, build the full-relation index, detect, and prepare the saver over
// the inliers. Everything a warm request touches is constructed here. dflt
// fills in whichever of ε and η p leaves unset (a dataset file's own
// constraints) before parameter determination does.
func buildSession(ctx context.Context, id, name, source string, rel *disc.Relation, p BuildParams, dflt disc.Constraints, cfg Config, log *slog.Logger) (*Session, error) {
	start := time.Now()
	if rel.N() == 0 {
		return nil, fmt.Errorf("serve: dataset %q is empty", name)
	}
	if err := disc.ValidateValues(rel); err != nil {
		return nil, err
	}
	validate := time.Since(start)

	cons := disc.Constraints{Eps: p.Eps, Eta: p.Eta}
	if cons.Eps <= 0 {
		cons.Eps = dflt.Eps
	}
	if cons.Eta < 1 {
		cons.Eta = dflt.Eta
	}
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
	s := &Session{
		ID: id, Name: name,
		Source: source, Params: p,
		Cons: cons, Kappa: p.Kappa,
		Bytes:  estimateBytes(rel),
		schema: rel.Schema,
	}
	timings, setup, err := s.warmUp(ctx, rel, nil, kind, cfg.Logger)
	if err != nil {
		return nil, fmt.Errorf("serve: building %q: %w", name, err)
	}
	s.Created, s.lastUsed = time.Now(), time.Now()
	s.stats.Add(&setup)
	s.Timings = timings
	s.Timings.Validate = validate
	s.Timings.Total = time.Since(start)
	s.gate = newGate(s, cfg)
	obs.Logger(log).Info("serve: session built", "id", id, "name", name,
		"tuples", rel.N(), "inliers", s.inliers, "outliers", s.outliers,
		"eps", cons.Eps, "eta", cons.Eta, "bytes", s.Bytes,
		"build", s.Timings.Total)
	return s, nil
}

// warmUp builds everything a warm request reads over rel and installs it
// on s: the detection index over the full relation, the detection split
// (det, or a counting pass over that index when det is nil), and the
// saver over the inliers with its own index, an empty η-radius table and
// an arena pool. A fresh build, a snapshot rehydration and a compaction
// differ only in where det comes from, so this is the one place a session
// builds indexes, and the one place index_builds moves: by exactly two
// per call. Warm requests must never move it. On error s is left as it
// was. On success it publishes the new shape.
//
// The returned timings fill the detection and index-build phases; setup
// is the index traffic of detection. Callers decide whether a build
// reports them: a compaction does not.
func (s *Session) warmUp(ctx context.Context, rel *disc.Relation, det *disc.Detection, kind disc.IndexKind, logger *slog.Logger) (timings obs.PhaseTimings, setup obs.SearchStats, err error) {
	t0 := time.Now()
	relMut, err := disc.NewMutableIndex(rel, s.Cons.Eps, kind)
	if err != nil {
		return timings, setup, fmt.Errorf("indexing: %w", err)
	}
	timings.DetectIndexBuild = time.Since(t0)
	if det == nil {
		if det, err = disc.DetectContext(ctx, rel, s.Cons, relMut); err != nil {
			return timings, setup, fmt.Errorf("detecting: %w", err)
		}
	}
	if len(det.Inliers) == 0 {
		return timings, setup, fmt.Errorf("every tuple violates (ε=%g, η=%d); nothing to save against", s.Cons.Eps, s.Cons.Eta)
	}
	t0 = time.Now()
	saverMut, err := disc.NewMutableIndex(rel.Subset(det.Inliers), s.Cons.Eps, kind)
	if err != nil {
		return timings, setup, fmt.Errorf("indexing inliers: %w", err)
	}
	timings.IndexBuild = time.Since(t0)
	saver, err := disc.NewSaverContext(ctx, saverMut.Rel(), s.Cons, disc.Options{
		Kappa:    s.Kappa,
		MaxNodes: s.Params.MaxNodes,
		Index:    saverMut,
		Logger:   logger,
	})
	if err != nil {
		return timings, setup, fmt.Errorf("preparing saver: %w", err)
	}
	setup = det.Stats
	timings.Detect = det.Elapsed

	s.Rel, s.Det, s.RelIdx, s.relMut, s.Saver = rel, det, relMut, relMut, saver
	s.initMutableState()
	s.publishLocked()
	s.mu.Lock()
	s.indexBuilds += 2
	s.mu.Unlock()
	return timings, setup, nil
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
		// A session with admitted, unanswered work is not idle no matter
		// what lastUsed says: the server has accepted that work. It will be
		// swept once drained.
		if idle > r.cfg.TTL && !s.gate.busy() {
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
		go s.gate.close()
	}
}

// Upload builds a session from an already-parsed relation and registers it
// under a fresh id. Uploads are never deduplicated: two identical uploads
// are two sessions.
func (r *Registry) Upload(ctx context.Context, name string, rel *disc.Relation, p BuildParams) (*Session, error) {
	if testBuildHook != nil {
		testBuildHook()
	}
	s, err := buildSession(ctx, newID(), name, "", rel, p, disc.Constraints{}, r.cfg, r.log)
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

	s, err := r.buildFromPath(ctx, newID(), path, p)
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
func (r *Registry) buildFromPath(ctx context.Context, id, path string, p BuildParams) (*Session, error) {
	if testBuildHook != nil {
		testBuildHook()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening dataset: %w", err)
	}
	defer f.Close()
	var rel *disc.Relation
	var dflt disc.Constraints
	if strings.EqualFold(filepath.Ext(path), ".json") {
		ds, err := disc.ReadDatasetJSON(f)
		if err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
		rel, dflt = ds.Rel, disc.Constraints{Eps: ds.Eps, Eta: ds.Eta}
	} else {
		rel, err = disc.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
	}
	return buildSession(ctx, id, path, path, rel, p, dflt, r.cfg, r.log)
}

// register installs a built session and enforces the count/byte bounds,
// evicting least-recently-used sessions (never the one just added). ctx
// carries the building request's trace, so the registration-time snapshot
// write shows up as a span on dataset-create requests.
func (r *Registry) register(ctx context.Context, s *Session) (*Session, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
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
	if k := s.key(); k != "" {
		r.byKey[k] = s
	}
	r.bytes += s.Bytes
	drop := r.evictLocked(s)
	r.mu.Unlock()
	r.dropEvicted(drop, s)
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
// skipping sessions with admitted, unanswered work — evicting one would
// refuse requests the server already accepted. When every other session
// is busy it returns nil and the bound stays temporarily exceeded; the
// next register or mutation retries.
func (r *Registry) lruLocked(keep *Session) *Session {
	var lru *Session
	var lruAt time.Time
	for _, s := range r.sessions {
		if s == keep || s.gate.busy() {
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
		drop = r.evictLocked(s)
	}
	r.mu.Unlock()
	r.dropEvicted(drop, s)
}

// evictLocked removes least-recently-used idle sessions other than keep
// until the count and byte bounds hold or no idle session is left. The
// caller passes the removed sessions to dropEvicted once r.mu is released.
func (r *Registry) evictLocked(keep *Session) []*Session {
	var drop []*Session
	for r.overLocked() {
		lru := r.lruLocked(keep)
		if lru == nil {
			break
		}
		r.removeLocked(lru)
		r.evicted++
		drop = append(drop, lru)
	}
	return drop
}

// dropEvicted finishes the evictions evictLocked made for keep: it logs
// each one, deletes its snapshot and closes its gate.
func (r *Registry) dropEvicted(drop []*Session, keep *Session) {
	for _, old := range drop {
		r.log.Info("serve: session evicted", "id", old.ID, "name", old.Name,
			"bytes", old.Bytes, "for", keep.ID)
		if r.store != nil {
			r.store.remove(old.ID)
		}
		go old.gate.close()
	}
}

// removeLocked unlinks a session from the maps and the byte ledger; the
// caller closes its gate outside the lock.
func (r *Registry) removeLocked(s *Session) {
	delete(r.sessions, s.ID)
	if k := s.key(); k != "" && r.byKey[k] == s {
		delete(r.byKey, k)
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

// Delete evicts the session; admitted requests against it still complete
// (the gate drains), new ones see 404.
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
		go s.gate.close()
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

// Close stops admission on every session and blocks until every admitted
// request has been answered. The registry rejects new sessions afterwards.
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
		s.gate.close()
	}
}
