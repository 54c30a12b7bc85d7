package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	disc "repro"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config tunes the server's capacity knobs. The zero value is usable;
// withDefaults fills the rest.
type Config struct {
	// MaxSessions bounds the registry's session count (LRU eviction;
	// default 8). MaxBytes additionally bounds the approximate resident
	// bytes across sessions (0 = unbounded).
	MaxSessions int
	MaxBytes    int64
	// TTL evicts sessions idle longer than this (0 = never).
	TTL time.Duration
	// MaxQueue bounds each session's admitted, unanswered saves and
	// mutations, waiting for a worker slot or running (default 256);
	// overflow is answered 429 + Retry-After.
	MaxQueue int
	// Workers bounds how many of a session's saves and mutations run at
	// once (0 = GOMAXPROCS).
	Workers int
	// RequestBudget is the per-request save deadline applied when the
	// client sends none (default 30s). Client-requested budgets are capped
	// at this value, so one request cannot hold a queue slot forever.
	RequestBudget time.Duration
	// MaxBodyBytes caps request bodies, uploads included (default 64 MiB).
	MaxBodyBytes int64
	// SlowRequest, when positive, makes the middleware log the full span
	// breakdown (admit, queue, dispatch, save, respond, ...) of any API
	// request whose end-to-end latency reaches the threshold. 0 disables
	// the slow log; the trace ring still retains recent traces either way.
	SlowRequest time.Duration
	// DataDir, when set, makes sessions durable: each build is snapshotted
	// under this directory and a restart replays the snapshots (call
	// Server.Recover) instead of rebuilding from scratch. Empty keeps the
	// registry memory-only.
	DataDir string
	// Logger receives structured request and lifecycle logs (nil = silent).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the HTTP serving layer: the session registry plus the JSON API.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *Registry
	handler http.Handler
	start   time.Time

	draining atomic.Bool
	// ready gates /readyz: false while a data-dir server has not finished
	// its startup snapshot replay (Recover), and false again once a drain
	// begins, so rolling deploys shift traffic before the listener dies.
	ready  atomic.Bool
	panics atomic.Int64

	// endpoints maps the API surface to its admission counters.
	endpoints map[string]*obs.EndpointStats
	// traces retains the most recent API request traces for postmortems.
	traces *obs.TraceRing
}

// traceRingSize bounds the retained request traces: enough to cover a
// burst, small enough that the ring never matters for memory.
const traceRingSize = 256

// New builds a server. Callers serve s.Handler() and must call Shutdown for
// a graceful drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		log:   obs.Logger(cfg.Logger),
		reg:   NewRegistry(cfg),
		start: time.Now(),
		endpoints: map[string]*obs.EndpointStats{
			"datasets": {}, "detect": {}, "save": {}, "repair": {}, "tuples": {},
		},
		traces: obs.NewTraceRing(traceRingSize),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleCreate)
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/datasets/{id}/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/datasets/{id}/save", s.handleSave)
	mux.HandleFunc("POST /v1/datasets/{id}/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/datasets/{id}/tuples", s.handleTupleInsert)
	mux.HandleFunc("PUT /v1/datasets/{id}/tuples/{idx}", s.handleTupleUpdate)
	mux.HandleFunc("DELETE /v1/datasets/{id}/tuples/{idx}", s.handleTupleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.wrap(mux)
	// Without a data dir there is no snapshot replay to wait for; with one,
	// readiness arrives when Recover completes.
	s.ready.Store(cfg.DataDir == "")
	return s
}

// Recover replays the data directory into the registry (sessions rehydrate
// from snapshots; corrupt ones are quarantined and rebuilt from source) and
// then marks the server ready. It must run before traffic is expected —
// /readyz answers 503 until it completes. Without a DataDir it is a no-op.
// The error covers the data directory itself (unreadable, uncreatable, as
// reported at New time); individual bad snapshots never fail recovery.
func (s *Server) Recover(ctx context.Context) error {
	defer s.ready.Store(true)
	if s.reg.storeErr != nil {
		return s.reg.storeErr
	}
	return s.reg.Recover(ctx)
}

// Handler returns the middleware-wrapped API.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the session registry (embedders and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Shutdown drains gracefully: stop admitting (new mutating requests get
// 503), finish every admitted request, and return once all are answered.
// If ctx expires first, Shutdown returns its error with requests possibly
// still running — callers then simply exit.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ready.Store(false)
	s.log.Info("serve: draining", "sessions", len(s.reg.List()))
	done := make(chan struct{})
	go func() {
		s.reg.Close()
		close(done)
	}()
	select {
	case <-done:
		s.logFinalStats()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain cut short: %w", ctx.Err())
	}
}

// logFinalStats flushes the endpoint counters once the drain completes, so
// a terminated process leaves its last numbers in the log.
func (s *Server) logFinalStats() {
	for name, es := range s.endpoints {
		snap := es.Snapshot()
		if snap.Requests == 0 {
			continue
		}
		s.log.Info("serve: final endpoint stats", "endpoint", name,
			"requests", snap.Requests, "admitted", snap.Admitted,
			"rejected", snap.Rejected, "expired", snap.Expired, "drained", snap.Drained)
	}
}

// --- wire format ---
//
// The types below are the JSON API's one definition: the handlers decode
// and encode them, and the client, the coordinator and disccli -remote use
// them as they are. perfbench and curl users read the field names, so a
// renamed tag breaks them; wire_test.go pins every name.

// CreateRequest selects the dataset source (exactly one of csv / path /
// table1) and the constraint parameters.
type CreateRequest struct {
	// Name labels the session (defaults to the source).
	Name string `json:"name"`
	// CSV is an inline dataset in the disccli CSV dialect.
	CSV string `json:"csv"`
	// Path loads a dataset file on the server host (CSV, or dataset JSON
	// with its own (ε, η) defaults). Path loads are cached: same path and
	// params → same session.
	Path string `json:"path"`
	// Table1 instantiates a synthetic Table 1 dataset by name, at Scale
	// (default 1) with Seed.
	Table1 string  `json:"table1"`
	Scale  float64 `json:"scale"`
	Seed   int64   `json:"seed"`

	Eps      float64 `json:"eps"`
	Eta      int     `json:"eta"`
	Kappa    int     `json:"kappa"`
	MaxNodes int     `json:"max_nodes"`
	// Index selects the neighbor index kind: "auto" (default), "brute",
	// "grid" or "vp".
	Index string `json:"index"`
}

// TupleRequest carries one tuple for POST .../save, POST .../tuples
// (insert) and PUT .../tuples/{idx} (update); DELETE takes no body.
type TupleRequest struct {
	Tuple     []any `json:"tuple"`
	TimeoutMS int   `json:"timeout_ms"`
}

// DetectRequest is the /detect body.
type DetectRequest struct {
	Tuples [][]any `json:"tuples"`
	// Member declares the query tuples to be rows of the session's dataset
	// (a remote client re-screening its own data): each tuple's stored copy
	// is excluded from its neighbor count, matching detection semantics.
	// Without it a member tuple counts itself and can pass the η threshold
	// spuriously.
	Member bool `json:"member"`
}

// DetectResponse is the /detect answer: the session's resolved constraints
// and one result per query tuple.
type DetectResponse struct {
	Eps     float64        `json:"eps"`
	Eta     int            `json:"eta"`
	Results []DetectResult `json:"results"`
}

// DetectResult is one tuple's screening answer.
type DetectResult struct {
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// RepairRequest is the /repair body.
type RepairRequest struct {
	Tuples    [][]any `json:"tuples"`
	TimeoutMS int     `json:"timeout_ms"`
}

// Adjustment is one repaired tuple: the /save answer and each entry of a
// /repair answer.
type Adjustment struct {
	Saved     bool     `json:"saved"`
	Natural   bool     `json:"natural"`
	Exhausted bool     `json:"exhausted"`
	Cost      float64  `json:"cost"`
	Tuple     []any    `json:"tuple,omitempty"`
	Adjusted  []string `json:"adjusted,omitempty"`
	Nodes     int      `json:"nodes"`
}

// RepairResponse is the /repair answer.
type RepairResponse struct {
	Adjustments []Adjustment `json:"adjustments"`
	Saved       int          `json:"saved"`
	Natural     int          `json:"natural"`
	Exhausted   int          `json:"exhausted"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	s.endpoints["datasets"].Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	var (
		sess *Session
		err  error
	)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/csv") {
		// Raw CSV body; params ride in the query string.
		q := r.URL.Query()
		p := BuildParams{Kappa: 2}
		p.Eps, _ = strconv.ParseFloat(q.Get("eps"), 64)
		p.Eta, _ = strconv.Atoi(q.Get("eta"))
		if k := q.Get("kappa"); k != "" {
			p.Kappa, _ = strconv.Atoi(k)
		}
		p.Index = q.Get("index")
		rel, rerr := disc.ReadCSV(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if rerr != nil {
			var mbe *http.MaxBytesError
			if errors.As(rerr, &mbe) {
				WriteError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("serve: request body exceeds %d bytes", s.cfg.MaxBodyBytes))
				return
			}
			WriteError(w, http.StatusBadRequest, rerr)
			return
		}
		name := q.Get("name")
		if name == "" {
			name = "upload.csv"
		}
		sess, err = s.reg.Upload(r.Context(), name, rel, p)
	} else {
		var req CreateRequest
		if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
			return
		}
		sources := 0
		for _, set := range []bool{req.CSV != "", req.Path != "", req.Table1 != ""} {
			if set {
				sources++
			}
		}
		if sources != 1 {
			WriteError(w, http.StatusBadRequest,
				errors.New("serve: exactly one of csv, path or table1 must be set"))
			return
		}
		p := BuildParams{Eps: req.Eps, Eta: req.Eta, Kappa: req.Kappa, MaxNodes: req.MaxNodes, Seed: req.Seed, Index: req.Index}
		switch {
		case req.Path != "":
			sess, err = s.reg.OpenPath(r.Context(), req.Path, p)
		case req.Table1 != "":
			scale := req.Scale
			if scale <= 0 {
				scale = 1
			}
			ds, derr := disc.Table1(req.Table1, scale, req.Seed)
			if derr != nil {
				WriteError(w, http.StatusBadRequest, derr)
				return
			}
			if p.Eps <= 0 {
				p.Eps = ds.Eps
			}
			if p.Eta < 1 {
				p.Eta = ds.Eta
			}
			name := req.Name
			if name == "" {
				name = fmt.Sprintf("table1:%s@%g", req.Table1, scale)
			}
			sess, err = s.reg.Upload(r.Context(), name, ds.Rel, p)
		default:
			rel, rerr := disc.ReadCSV(strings.NewReader(req.CSV))
			if rerr != nil {
				WriteError(w, http.StatusBadRequest, rerr)
				return
			}
			name := req.Name
			if name == "" {
				name = "upload.csv"
			}
			sess, err = s.reg.Upload(r.Context(), name, rel, p)
		}
	}
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, errClosed) {
			status = http.StatusServiceUnavailable
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		s.writeFailure(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.Info()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Delete(r.PathValue("id")) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDetect is the cheap always-on screen: count ε-neighbors of each
// query tuple against the cached full-relation index — no search, no
// queueing, just range queries.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.endpoints["detect"].Requests.Add(1)
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req DetectRequest
	if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("serve: tuples must be non-empty"))
		return
	}
	tuples := make([]disc.Tuple, len(req.Tuples))
	for i, raw := range req.Tuples {
		t, err := ParseTuple(sess.schema, raw)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: tuple %d: %w", i, err))
			return
		}
		tuples[i] = t
	}
	// One counting view per request: the counters are goroutine-owned
	// while the queries run, then merged into the session — the cached
	// index answers, and the traffic proves it. The state read-lock keeps
	// the queries consistent against concurrent mutations.
	var qc disc.IndexCounters
	resp := DetectResponse{Eps: sess.Cons.Eps, Eta: sess.Cons.Eta,
		Results: make([]DetectResult, len(tuples))}
	sess.readState(func() {
		view := disc.CountingIndex(sess.RelIdx, &qc)
		for i, t := range tuples {
			// cap at η: the split only needs "≥ η or not", so the count
			// stops early exactly like the detection pass would. Member
			// tuples match their own stored copy, so the cap grows by one
			// and the self-match is subtracted back out.
			capN := sess.Cons.Eta
			if req.Member {
				capN++
			}
			n := view.CountWithin(t, sess.Cons.Eps, -1, capN)
			if req.Member && n > 0 {
				n--
			}
			resp.Results[i] = DetectResult{Neighbors: n, Outlier: n < sess.Cons.Eta}
		}
	})
	var st obs.SearchStats
	qc.AddTo(&st)
	sess.addStats(&st, 0, int64(len(req.Tuples)))
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSave repairs one tuple through the session's admission gate.
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	es := s.endpoints["save"]
	es.Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req TupleRequest
	if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	t, err := ParseTuple(sess.schema, req.Tuple)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	if err := sess.gate.admit(es, 1); err != nil {
		writeAdmitErr(w, err)
		return
	}
	// The admit span covers decode, tuple parsing and admission —
	// everything between route match and the request entering the gate.
	tr.Span("admit", hStart)
	var adj disc.Adjustment
	if err := sess.gate.run(ctx, es, "save", func(ctx context.Context) error {
		adj = sess.save(ctx, t)
		return nil
	}); err != nil {
		s.writeFailure(w, http.StatusGatewayTimeout, err)
		return
	}
	rs := time.Now()
	s.writeJSON(w, http.StatusOK, adjustmentToJSON(sess.schema, adj))
	tr.Span("respond", rs)
}

// handleRepair saves many tuples, one goroutine each, through the same
// gate; admission is all-or-nothing so a 429 never splits a repair.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	es := s.endpoints["repair"]
	es.Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req RepairRequest
	if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("serve: tuples must be non-empty"))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	tuples := make([]disc.Tuple, len(req.Tuples))
	for i, raw := range req.Tuples {
		t, err := ParseTuple(sess.schema, raw)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: tuple %d: %w", i, err))
			return
		}
		tuples[i] = t
	}
	if err := sess.gate.admit(es, len(tuples)); err != nil {
		writeAdmitErr(w, err)
		return
	}
	tr.Span("admit", hStart)
	adjs := make([]disc.Adjustment, len(tuples))
	errs := make([]error, len(tuples))
	var wg sync.WaitGroup
	for i, t := range tuples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sess.gate.run(ctx, es, "repair", func(ctx context.Context) error {
				adjs[i] = sess.save(ctx, t)
				return nil
			})
		}()
	}
	wg.Wait()
	rs := time.Now()
	resp := RepairResponse{Adjustments: make([]Adjustment, len(tuples))}
	for i, adj := range adjs {
		if errs[i] != nil {
			s.writeFailure(w, http.StatusGatewayTimeout, fmt.Errorf("serve: tuple %d: %w", i, errs[i]))
			return
		}
		aj := adjustmentToJSON(sess.schema, adj)
		resp.Adjustments[i] = aj
		switch {
		case aj.Saved:
			resp.Saved++
		case aj.Natural:
			resp.Natural++
		}
		if aj.Exhausted {
			resp.Exhausted++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	tr.Span("respond", rs)
}

// handleTupleInsert appends one tuple to the session's live dataset,
// maintaining the indexes and detection state incrementally. The mutation
// passes the session's admission gate like a save, and the state lock
// orders it against detect and save work. Answers 201 with the new row's
// logical handle.
func (s *Server) handleTupleInsert(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req TupleRequest
	if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	t, err := ParseTuple(sess.schema, req.Tuple)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "insert", tuple: t}, req.TimeoutMS, http.StatusCreated)
}

// handleTupleUpdate replaces the tuple at a logical row handle (tombstone
// the old value, append the new one; the handle follows the new value).
func (s *Server) handleTupleUpdate(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad row index %q", r.PathValue("idx")))
		return
	}
	var req TupleRequest
	if !DecodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	t, perr := ParseTuple(sess.schema, req.Tuple)
	if perr != nil {
		WriteError(w, http.StatusBadRequest, perr)
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "update", index: idx, tuple: t}, req.TimeoutMS, http.StatusOK)
}

// handleTupleDelete tombstones the tuple at a logical row handle. The
// handle becomes a hole; other handles are unaffected.
func (s *Server) handleTupleDelete(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad row index %q", r.PathValue("idx")))
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "delete", index: idx}, 0, http.StatusOK)
}

// runMutation admits one mutation through the session's gate and runs it,
// sharing handleSave's deadline and error mapping.
func (s *Server) runMutation(w http.ResponseWriter, r *http.Request, sess *Session, m *mutation, timeoutMS, okStatus int) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	es := s.endpoints["tuples"]
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	if err := sess.gate.admit(es, 1); err != nil {
		writeAdmitErr(w, err)
		return
	}
	tr.Span("admit", hStart)
	var mres MutateResponse
	if err := sess.gate.run(ctx, es, "tuples", func(context.Context) error {
		mstart := time.Now()
		var err error
		mres, err = sess.applyMutation(m)
		tr.Span("redetect", mstart)
		if err == nil {
			sess.observeRedetect(mres.Touched)
		}
		return err
	}); err != nil {
		status := http.StatusGatewayTimeout
		if errors.Is(err, errNoSuchRow) {
			status = http.StatusNotFound
		}
		s.writeFailure(w, status, err)
		return
	}
	rs := time.Now()
	s.writeJSON(w, okStatus, mres)
	tr.Span("respond", rs)
}

// handleHealthz is the legacy combined probe, kept for existing monitors;
// /livez and /readyz are the split it predates.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Load balancers stop routing to a draining replica.
		status, code = "draining", http.StatusServiceUnavailable
	}
	count, _, _, _ := s.reg.Stats()
	s.writeJSON(w, code, map[string]any{
		"status":   status,
		"sessions": count,
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleLivez answers 200 whenever the process can serve HTTP at all — a
// restart fixes nothing a liveness probe can see here, so it never goes
// unhealthy short of the process dying.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz answers whether the replica should receive traffic: 503
// while the startup snapshot replay is still running and again once a drain
// has begun, 200 in between.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "recovering", http.StatusServiceUnavailable
	}
	count, _, _, _ := s.reg.Stats()
	s.writeJSON(w, code, map[string]any{
		"status":   status,
		"sessions": count,
	})
}

// handleVarz exports every counter the server keeps: endpoint admission
// stats, registry capacity state, and the per-session SearchStats and
// PhaseTimings of the DISC pipeline (docs/OBSERVABILITY.md).
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	count, bytes, evicted, expired := s.reg.Stats()
	endpoints := make(map[string]obs.EndpointSnapshot, len(s.endpoints))
	for name, es := range s.endpoints {
		endpoints[name] = es.Snapshot()
	}
	sessions := s.reg.List()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.Info()
	}
	vars := map[string]any{
		"uptime_s":         time.Since(s.start).Seconds(),
		"ready":            s.ready.Load(),
		"draining":         s.draining.Load(),
		"panics_recovered": s.panics.Load(),
		"registry": map[string]any{
			"sessions":     count,
			"bytes":        bytes,
			"max_sessions": s.cfg.MaxSessions,
			"max_bytes":    s.cfg.MaxBytes,
			"evicted":      evicted,
			"expired":      expired,
		},
		"endpoints": endpoints,
		"sessions":  infos,
		// hists is the global half of the per-session/global histogram
		// pair: queue wait, batch size, save latency and nodes, and
		// re-detection footprint across every session this process served.
		"hists":  s.reg.hists.Snapshot(),
		"traces": s.traces.Total(),
	}
	if st := s.reg.store; st != nil {
		vars["store"] = map[string]any{
			"data_dir": st.Dir(),
			"stats":    st.Stats(),
		}
	}
	s.writeJSON(w, http.StatusOK, vars)
}

// --- plumbing ---

// DecodeJSON reads one JSON request body into v with the full hardening
// set: the body is capped at maxBytes (413, not a mid-stream decode
// error), unknown fields are rejected (a typoed "kapa" should fail loudly,
// not silently use the default), and trailing garbage after the value is a
// 400. It writes the error response itself and reports whether the handler
// should continue.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// The value must end the body. Token answers io.EOF at a clean end
		// (trailing whitespace included), and a token or an error after it,
		// a stray } or ] among them.
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: request body exceeds %d bytes", maxBytes))
		return false
	}
	WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err))
	return false
}

// requestCtx derives the per-request save deadline: the client's timeout_ms
// capped by the server's RequestBudget, on top of the connection context.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestBudget
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < budget {
			budget = d
		}
	}
	return context.WithTimeout(r.Context(), budget)
}

// refuseDraining answers 503 + Retry-After on mutating endpoints once the
// drain has begun; reads stay available until the listener closes.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, errClosed)
	return true
}

// writeAdmitErr maps admission failures, each with Retry-After: 1: a full
// session → 429, a draining one → 503.
func writeAdmitErr(w http.ResponseWriter, err error) {
	status := http.StatusTooManyRequests
	if errors.Is(err, errClosed) {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", "1")
	WriteError(w, status, err)
}

// writeJSON is WriteJSON with an encoding failure logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := WriteJSON(w, status, v); err != nil {
		s.log.Warn("serve: encoding response", "err", err)
	}
}

// WriteJSON writes v as the compact JSON body of a response with the given
// status. The error is the encoder's; the status is already sent by then,
// so callers can only log it.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeFailure answers a request whose work failed. A panic recovered on
// the way, in the gate or in a worker pool, is logged here once, with the
// request id and the panicking goroutine's stack; the client's body is
// WriteError's and carries no stack.
func (s *Server) writeFailure(w http.ResponseWriter, status int, err error) {
	var pe *par.PanicError
	if errors.As(err, &pe) {
		s.log.Error("serve: request panicked", "request_id", w.Header().Get("X-Request-ID"),
			"err", err, "stack", string(pe.Stack))
	}
	WriteError(w, status, err)
}

// WriteError writes the uniform error body. Its request id is the one the
// middleware echoed into the X-Request-ID response header.
func WriteError(w http.ResponseWriter, status int, err error) {
	// Two strings always encode, so Encode fails only on a client that has
	// gone away, and then there is no one left to tell.
	_ = WriteJSON(w, status, ErrorResponse{Error: err.Error(), RequestID: w.Header().Get("X-Request-ID")})
}

// ParseTuple decodes one JSON tuple ([1.5, "abc", ...]) against a schema:
// numbers for numeric attributes, strings for text.
func ParseTuple(sch *disc.Schema, raw []any) (disc.Tuple, error) {
	if len(raw) != sch.M() {
		return nil, fmt.Errorf("serve: tuple has %d values, schema has %d attributes", len(raw), sch.M())
	}
	t := make(disc.Tuple, len(raw))
	for i, v := range raw {
		if sch.Attrs[i].Kind == disc.Text {
			sv, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("serve: attribute %q is text, got %T", sch.Attrs[i].Name, v)
			}
			t[i] = disc.Str(sv)
			continue
		}
		fv, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("serve: attribute %q is numeric, got %T", sch.Attrs[i].Name, v)
		}
		if math.IsNaN(fv) || math.IsInf(fv, 0) {
			return nil, fmt.Errorf("serve: attribute %q is not finite", sch.Attrs[i].Name)
		}
		t[i] = disc.Num(fv)
	}
	return t, nil
}

// TupleJSON is ParseTuple's inverse.
func TupleJSON(sch *disc.Schema, t disc.Tuple) []any {
	out := make([]any, len(t))
	for i := range t {
		if sch.Attrs[i].Kind == disc.Text {
			out[i] = t[i].Str
		} else {
			out[i] = t[i].Num
		}
	}
	return out
}

// adjustmentToJSON shapes one Adjustment for the wire. Cost is emitted only
// for saved tuples — an unsaved adjustment's +Inf cost is not a JSON value.
func adjustmentToJSON(sch *disc.Schema, adj disc.Adjustment) Adjustment {
	aj := Adjustment{
		Saved:     adj.Saved(),
		Natural:   adj.Natural,
		Exhausted: adj.Exhausted,
		Nodes:     adj.Nodes,
	}
	if adj.Saved() {
		aj.Cost = adj.Cost
		aj.Tuple = TupleJSON(sch, adj.Tuple)
		for _, a := range adj.Adjusted.Attrs(sch.M()) {
			aj.Adjusted = append(aj.Adjusted, sch.Attrs[a].Name)
		}
	}
	return aj
}
