package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	disc "repro"
	"repro/internal/snapshot"
)

func randTuple2D(rng *rand.Rand, scale float64) disc.Tuple {
	return randTuple(rng, 2, scale)
}

// randTuple draws dims coordinates uniformly from [0, scale).
func randTuple(rng *rand.Rand, dims int, scale float64) disc.Tuple {
	t := make(disc.Tuple, dims)
	for a := range t {
		t[a] = disc.Num(rng.Float64() * scale)
	}
	return t
}

func tupleAny(t disc.Tuple) []any {
	out := make([]any, len(t))
	for i := range t {
		out[i] = t[i].Num
	}
	return out
}

// randLiveHandle picks a uniformly random non-deleted logical handle.
func randLiveHandle(rng *rand.Rand, mirror []disc.Tuple) int {
	for {
		h := rng.Intn(len(mirror))
		if mirror[h] != nil {
			return h
		}
	}
}

// TestMutateDifferential is the acceptance property of the mutation path.
// After every random insert, update and delete, each stored count equals
// min(|r_ε|, η) from a from-scratch DetectContext over the live rows and
// the Saver holds exactly that rebuild's inliers; at the end the mutated
// session answers /detect and /save exactly like a session built from
// scratch. It runs across all three index kinds, for freshly built sessions
// ("exact") and for sessions snapshotted and recovered before the first
// mutation ("restart"), so recovery × mutation is pinned too. Run under
// -race this also exercises the mutation/query locking. The 2-D sessions
// save unrestricted (κ ≥ m); "restart-groups" runs a 4-D session at κ = 1,
// whose saver screens through its attribute-group indexes, so the groups
// must track every mutation across recovery too.
func TestMutateDifferential(t *testing.T) {
	for _, kind := range []string{"brute", "grid", "vp"} {
		t.Run(kind, func(t *testing.T) {
			for _, mode := range []string{"exact", "restart"} {
				t.Run(mode, func(t *testing.T) { mutateDifferential(t, kind, mode, 2, 2) })
			}
			t.Run("restart-groups", func(t *testing.T) { mutateDifferential(t, kind, "restart", 4, 1) })
		})
	}
}

func mutateDifferential(t *testing.T, kind, mode string, dims, kappa int) {
	rng := rand.New(rand.NewSource(42))
	cfg := Config{BatchWindow: -1, Workers: 2}
	if mode == "restart" {
		cfg.DataDir = t.TempDir()
	}

	// 60 rows spread over the unit cube, with counts on both sides of
	// η, plus a dense core of inliers. Beyond two attributes the core
	// splits into four clusters half a unit apart on every attribute, so
	// each attribute's ε-hit rate among the inliers stays near 1/4 and the
	// saver's attribute groups pay.
	names := []string{"x", "y", "z", "w"}[:dims]
	rel := disc.NewRelation(disc.NewNumericSchema(names...))
	for i := 0; i < 60; i++ {
		rel.Append(randTuple(rng, dims, 1))
	}
	for i := 0; i < 30; i++ {
		center := 0.4
		if dims > 2 {
			center = 0.5 * float64(i%4)
		}
		core := make(disc.Tuple, dims)
		for a := range core {
			core[a] = disc.Num(center + rng.Float64()*0.15)
		}
		rel.Append(core)
	}
	var buf bytes.Buffer
	if err := disc.WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	create := createRequest{Name: "mut", CSV: buf.String(), Eps: 0.25, Eta: 3, Kappa: kappa, Index: kind}

	var s *Server
	if mode == "restart" {
		s = New(cfg)
		if err := s.Recover(context.Background()); err != nil {
			t.Fatalf("first Recover: %v", err)
		}
	} else {
		s = newTestServer(t, cfg)
	}
	w := do(t, s, "POST", "/v1/datasets", create)
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
	}
	info := decode[SessionInfo](t, w)
	if info.Index != kind {
		t.Fatalf("session index = %q, want %q", info.Index, kind)
	}
	sess, _ := s.Registry().Get(info.ID)
	checkCountInvariant(t, sess, "after build")
	if mode == "restart" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		s = recoverServer(t, cfg)
		var ok bool
		if sess, ok = s.Registry().Get(info.ID); !ok || !sess.Recovered {
			t.Fatalf("session %s not recovered from its snapshot", info.ID)
		}
		checkCountInvariant(t, sess, "after restart")
	}
	if groups := sess.Saver.AttributeGroups(); (kappa < dims) != (len(groups) > 0) {
		t.Fatalf("κ=%d over %d attributes: saver groups %v", kappa, dims, groups)
	}

	// mirror tracks the logical row handles client-side: nil = hole.
	mirror := make([]disc.Tuple, rel.N())
	copy(mirror, rel.Tuples)
	live := rel.N()

	for op := 0; op < 45; op++ {
		switch {
		case live < 60 || rng.Intn(3) == 0: // insert
			scale := 1.0
			if rng.Intn(4) == 0 {
				// Far outside the initial bounding box: on grid this
				// refuses the native cell insert and lands in the
				// delta buffer.
				scale = 50
			}
			tp := randTuple(rng, dims, scale)
			w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples",
				mutateRequest{Tuple: tupleAny(tp)})
			if w.Code != http.StatusCreated {
				t.Fatalf("insert: status %d, body %s", w.Code, w.Body.String())
			}
			mres := decode[mutationResponse](t, w)
			if mres.Index != len(mirror) {
				t.Fatalf("insert handle = %d, want %d", mres.Index, len(mirror))
			}
			mirror = append(mirror, tp)
			live++
			if mres.Tuples != live {
				t.Fatalf("insert reported %d live tuples, want %d", mres.Tuples, live)
			}
		case rng.Intn(2) == 0: // update
			h := randLiveHandle(rng, mirror)
			tp := randTuple(rng, dims, 1)
			w := do(t, s, "PUT", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h),
				mutateRequest{Tuple: tupleAny(tp)})
			if w.Code != http.StatusOK {
				t.Fatalf("update %d: status %d, body %s", h, w.Code, w.Body.String())
			}
			mirror[h] = tp
		default: // delete
			h := randLiveHandle(rng, mirror)
			w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil)
			if w.Code != http.StatusOK {
				t.Fatalf("delete %d: status %d, body %s", h, w.Code, w.Body.String())
			}
			mirror[h] = nil
			live--
			// A deleted handle is a hole: every op on it answers 404.
			if w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil); w.Code != http.StatusNotFound {
				t.Fatalf("double delete %d: status %d, want 404", h, w.Code)
			}
		}
		checkCountInvariant(t, sess, fmt.Sprintf("op %d", op))
	}

	// From-scratch rebuild over the surviving rows in logical order.
	fresh := disc.NewRelation(rel.Schema)
	for _, tp := range mirror {
		if tp != nil {
			fresh.Append(tp)
		}
	}
	fs, err := s.Registry().Upload(context.Background(), "fresh", fresh,
		BuildParams{Eps: 0.25, Eta: 3, Kappa: kappa, Index: kind})
	if err != nil {
		t.Fatalf("fresh rebuild: %v", err)
	}

	mutInfo := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	freshInfo := fs.Info()
	if mutInfo.Tuples != freshInfo.Tuples || mutInfo.Inliers != freshInfo.Inliers || mutInfo.Outliers != freshInfo.Outliers {
		t.Fatalf("mutated split (n=%d in=%d out=%d) != rebuild (n=%d in=%d out=%d)",
			mutInfo.Tuples, mutInfo.Inliers, mutInfo.Outliers,
			freshInfo.Tuples, freshInfo.Inliers, freshInfo.Outliers)
	}
	if mutInfo.Inserted+mutInfo.Updated+mutInfo.Deleted != 45 {
		t.Fatalf("mutation counters %d+%d+%d, want 45 total",
			mutInfo.Inserted, mutInfo.Updated, mutInfo.Deleted)
	}
	if mutInfo.Redetect == 0 {
		t.Fatal("redetect_touched stayed zero across 45 mutations")
	}

	// Detect parity: every live row (member mode) plus fresh probes.
	var probes [][]any
	for _, tp := range mirror {
		if tp != nil {
			probes = append(probes, tupleAny(tp))
		}
	}
	dm := decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
		detectRequest{Tuples: probes, Member: true}))
	df := decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
		detectRequest{Tuples: probes, Member: true}))
	if !reflect.DeepEqual(dm.Results, df.Results) {
		t.Fatalf("member detect diverged from rebuild:\nmutated: %+v\nrebuild: %+v", dm.Results, df.Results)
	}
	probes = probes[:0]
	for i := 0; i < 8; i++ {
		probes = append(probes, tupleAny(randTuple(rng, dims, 1.4)))
	}
	dm = decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
		detectRequest{Tuples: probes}))
	df = decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
		detectRequest{Tuples: probes}))
	if !reflect.DeepEqual(dm.Results, df.Results) {
		t.Fatalf("probe detect diverged from rebuild:\nmutated: %+v\nrebuild: %+v", dm.Results, df.Results)
	}

	// Save parity: repair the same outlier-ish probes on both sessions and
	// require identical adjustments (random float data makes the min-cost
	// adjustment unique, so iteration order — the only thing the mutated
	// and rebuilt sessions differ in — must not show through).
	// Beyond two attributes the probe stays inside the core on all but
	// the first, so a κ save adjusts that one.
	for i := 0; i < 3; i++ {
		probe := tupleAny(disc.Tuple{disc.Num(1.2 + 0.3*float64(i) + rng.Float64()/8), disc.Num(1.3 + rng.Float64()/8)})
		if dims > 2 {
			probe[1] = 0.4 + rng.Float64()*0.15
			for a := 2; a < dims; a++ {
				probe = append(probe, 0.4+rng.Float64()*0.15)
			}
		}
		am := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", saveRequest{Tuple: probe})
		af := do(t, s, "POST", "/v1/datasets/"+fs.ID+"/save", saveRequest{Tuple: probe})
		if am.Code != http.StatusOK || af.Code != http.StatusOK {
			t.Fatalf("save probe %d: mutated %d, rebuild %d", i, am.Code, af.Code)
		}
		jm := decode[adjustmentJSON](t, am)
		jf := decode[adjustmentJSON](t, af)
		if !reflect.DeepEqual(jm, jf) {
			t.Fatalf("save probe %d diverged from rebuild:\nmutated: %+v\nrebuild: %+v", i, jm, jf)
		}
	}
}

// checkCountInvariant compares a session against a from-scratch detection
// over its live rows in logical order: every stored count must be
// min(|r_ε|, η) as DetectContext computes it, the live split totals must
// match, and the Saver's live inlier rows must be exactly the rebuild's
// inliers.
func checkCountInvariant(t *testing.T, s *Session, when string) {
	t.Helper()
	s.stateMu.RLock()
	live := disc.NewRelation(s.Rel.Schema)
	var got []int
	for _, phys := range s.logical {
		if phys < 0 {
			continue
		}
		live.Append(s.Rel.Tuples[phys])
		got = append(got, s.Det.Counts[phys])
	}
	gotIn, gotOut := s.inliers, s.outliers
	mut := s.Saver.Mutable()
	var saverRows []string
	for i, tp := range mut.Rel().Tuples {
		if mut.Alive(i) {
			saverRows = append(saverRows, fmt.Sprint(tp))
		}
	}
	s.stateMu.RUnlock()

	ref, err := disc.DetectContext(context.Background(), live, s.Cons, nil)
	if err != nil {
		t.Fatalf("%s: reference detect: %v", when, err)
	}
	if !reflect.DeepEqual(got, ref.Counts) {
		t.Fatalf("%s: counts diverged from min(count, η) of a rebuild:\nsession: %v\nrebuild: %v", when, got, ref.Counts)
	}
	if gotIn != len(ref.Inliers) || gotOut != len(ref.Outliers) {
		t.Fatalf("%s: split (%d, %d) != rebuild (%d, %d)", when, gotIn, gotOut, len(ref.Inliers), len(ref.Outliers))
	}
	wantRows := make([]string, len(ref.Inliers))
	for k, i := range ref.Inliers {
		wantRows[k] = fmt.Sprint(live.Tuples[i])
	}
	sort.Strings(saverRows)
	sort.Strings(wantRows)
	if !reflect.DeepEqual(saverRows, wantRows) {
		t.Fatalf("%s: saver holds %d live inliers, rebuild %d, or they differ", when, len(saverRows), len(wantRows))
	}
}

// FuzzMutate drives applyMutation with arbitrary op streams and checks the
// incremental neighbor counts against a from-scratch detection after every
// stream. Each op is 3 bytes: opcode, then two coordinate/index bytes.
func FuzzMutate(f *testing.F) {
	f.Add([]byte{0, 10, 10, 0, 200, 200, 2, 3, 0, 1, 5, 9})
	f.Add([]byte{2, 0, 0, 2, 1, 0, 2, 2, 0, 0, 40, 40})
	f.Add([]byte{1, 0, 99, 1, 200, 1, 0, 0, 0, 2, 0, 0})
	f.Add(bytes.Repeat([]byte{2, 7, 0}, 30)) // delete churn
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRegistry(Config{BatchWindow: -1}.withDefaults())
		defer r.Close()
		s, err := r.Upload(context.Background(), "fuzz", testRelation(), testParams)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		for i := 0; i+2 < len(ops) && i < 3*40; i += 3 {
			a, b := ops[i+1], ops[i+2]
			tp := disc.Tuple{disc.Num(float64(a) / 64), disc.Num(float64(b) / 64)}
			switch ops[i] % 3 {
			case 0:
				s.applyMutation(&mutation{op: "insert", tuple: tp})
			case 1:
				s.applyMutation(&mutation{op: "update", index: int(a), tuple: tp})
			case 2:
				s.applyMutation(&mutation{op: "delete", index: int(b)})
			}
		}

		s.stateMu.RLock()
		liveRel := disc.NewRelation(s.Rel.Schema)
		var gotCounts []int
		for _, phys := range s.logical {
			if phys < 0 {
				continue
			}
			liveRel.Append(s.Rel.Tuples[phys])
			gotCounts = append(gotCounts, s.Det.Counts[phys])
		}
		gotIn, gotOut := s.inliers, s.outliers
		s.stateMu.RUnlock()

		if liveRel.N() == 0 {
			if gotIn != 0 || gotOut != 0 {
				t.Fatalf("empty session reports %d inliers, %d outliers", gotIn, gotOut)
			}
			return
		}
		idx, err := disc.NewMutableIndex(liveRel, s.Cons.Eps, disc.KindBrute)
		if err != nil {
			t.Fatalf("reference index: %v", err)
		}
		det, err := disc.DetectContext(context.Background(), liveRel, s.Cons, idx)
		if err != nil {
			t.Fatalf("reference detect: %v", err)
		}
		if gotIn != len(det.Inliers) || gotOut != len(det.Outliers) {
			t.Fatalf("incremental split (%d, %d) != reference (%d, %d)",
				gotIn, gotOut, len(det.Inliers), len(det.Outliers))
		}
		for i, want := range det.Counts {
			if gotCounts[i] != want {
				t.Fatalf("live row %d: incremental count %d, reference %d", i, gotCounts[i], want)
			}
		}
	})
}

// TestSweepSkipsBusySessions is the regression test for TTL eviction
// racing a saturated queue: a session with admitted-but-unanswered work
// must never be swept, no matter how stale its lastUsed is.
func TestSweepSkipsBusySessions(t *testing.T) {
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1, TTL: time.Minute, MaxQueue: 8})
	info := uploadSession(t, s)
	sess, ok := s.Registry().Get(info.ID)
	if !ok {
		t.Fatal("session vanished")
	}

	// Hold the state lock so dispatched saves block inside the batch,
	// keeping the queue saturated while the sweeps run.
	sess.stateMu.Lock()
	var reqs sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save",
				saveRequest{Tuple: tupleAny(outlierTuple())})
			codes <- w.Code
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sess.batcher.busy() {
		if time.Now().After(deadline) {
			sess.stateMu.Unlock()
			t.Fatal("queue never became busy")
		}
		time.Sleep(time.Millisecond)
	}

	future := time.Now().Add(time.Hour) // every session looks idle-expired
	var sweeps sync.WaitGroup
	for i := 0; i < 4; i++ {
		sweeps.Add(1)
		go func() {
			defer sweeps.Done()
			s.Registry().Sweep(future)
		}()
	}
	sweeps.Wait()
	if _, ok := s.Registry().Get(info.ID); !ok {
		sess.stateMu.Unlock()
		t.Fatal("session with a saturated queue was swept")
	}

	sess.stateMu.Unlock()
	reqs.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued save answered %d after the sweep", code)
		}
	}

	// Drained and idle, the same sweep may now evict it.
	deadline = time.Now().Add(10 * time.Second)
	for sess.batcher.busy() {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	s.Registry().Sweep(time.Now().Add(time.Hour))
	if _, ok := s.Registry().Get(info.ID); ok {
		t.Fatal("idle expired session survived the sweep")
	}
}

// TestSessionIDCollisionRegenerated forces newID to repeat itself and
// asserts register detects the duplicate and re-rolls instead of silently
// shadowing the existing session.
func TestSessionIDCollisionRegenerated(t *testing.T) {
	orig := newID
	defer func() { newID = orig }()
	calls := 0
	newID = func() string {
		calls++
		if calls <= 2 {
			return "feedfacefeedface" // both uploads draw the same id
		}
		return orig()
	}

	s := newTestServer(t, Config{BatchWindow: -1})
	a := uploadSession(t, s)
	b := uploadSession(t, s)
	if a.ID != "feedfacefeedface" {
		t.Fatalf("first session id = %q, want the forced id", a.ID)
	}
	if b.ID == a.ID {
		t.Fatalf("collision not regenerated: both sessions hold %q", a.ID)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, ok := s.Registry().Get(id); !ok {
			t.Fatalf("session %q lost after collision handling", id)
		}
	}
}

// TestByteBoundEvictionAfterGrowth asserts Session.Bytes moves with
// mutations: inserts grow the ledger until the registry's byte bound
// evicts the idle session, without any new session registering.
func TestByteBoundEvictionAfterGrowth(t *testing.T) {
	base := estimateBytes(testRelation())
	s := newTestServer(t, Config{BatchWindow: -1, MaxBytes: 2*base + base/2, MaxSessions: 10})
	a := uploadSession(t, s)
	b := uploadSession(t, s)

	bs, _ := s.Registry().Get(b.ID)
	rng := rand.New(rand.NewSource(7))
	grewPast := false
	for i := 0; i < 40 && !grewPast; i++ {
		w := do(t, s, "POST", "/v1/datasets/"+b.ID+"/tuples",
			mutateRequest{Tuple: tupleAny(randTuple2D(rng, 2))})
		if w.Code != http.StatusCreated {
			t.Fatalf("insert %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		bs.mu.Lock()
		grewPast = bs.Bytes > base+base/2 // b alone now exceeds the headroom
		bs.mu.Unlock()
	}
	if !grewPast {
		t.Fatal("40 inserts never grew the session past the eviction point")
	}
	if _, ok := s.Registry().Get(a.ID); ok {
		t.Fatal("byte bound exceeded by mutation growth, but the idle session was not evicted")
	}
	if _, ok := s.Registry().Get(b.ID); !ok {
		t.Fatal("the growing session itself was evicted")
	}
}

// TestCompactionAfterDeleteChurn drives tombstones past the compaction
// threshold and asserts the rebuilt session keeps its logical handles,
// detection results, and honest index-build accounting.
func TestCompactionAfterDeleteChurn(t *testing.T) {
	origMin := compactMinDead
	compactMinDead = 4
	defer func() { compactMinDead = origMin }()

	s := newTestServer(t, Config{BatchWindow: -1})
	info := uploadSession(t, s) // 36 tuples, all inliers
	for h := 0; h < 20; h++ {
		w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, h), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("delete %d: status %d, body %s", h, w.Code, w.Body.String())
		}
	}
	mi := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil))
	if mi.Compactions == 0 {
		t.Fatalf("20/36 deletes with threshold 4 never compacted: %+v", mi)
	}
	if mi.Tuples != 16 {
		t.Fatalf("live tuples = %d after 20 deletes, want 16", mi.Tuples)
	}
	if want := 2 + 2*mi.Compactions; mi.IndexBuilds != want {
		t.Fatalf("index builds = %d, want %d (2 + 2 per compaction)", mi.IndexBuilds, want)
	}

	// Handles survive compaction: deleted ones stay holes, live ones resolve.
	if w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, 3), nil); w.Code != http.StatusNotFound {
		t.Fatalf("deleted handle resolved after compaction: status %d", w.Code)
	}
	w := do(t, s, "PUT", fmt.Sprintf("/v1/datasets/%s/tuples/%d", info.ID, 30),
		mutateRequest{Tuple: []any{0.55, 0.55}})
	if w.Code != http.StatusOK {
		t.Fatalf("update of surviving handle: status %d, body %s", w.Code, w.Body.String())
	}

	// The compacted session still answers like a from-scratch build.
	rel := testRelation()
	fresh := disc.NewRelation(rel.Schema)
	for i := 20; i < 36; i++ {
		if i == 30 {
			fresh.Append(disc.Tuple{disc.Num(0.55), disc.Num(0.55)})
			continue
		}
		fresh.Append(rel.Tuples[i])
	}
	fs, err := s.Registry().Upload(context.Background(), "fresh", fresh, testParams)
	if err != nil {
		t.Fatalf("fresh rebuild: %v", err)
	}
	probes := [][]any{{0.4, 0.4}, {1.9, 1.9}, {25.0, 25.0}, {0.55, 0.55}}
	dm := decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
		detectRequest{Tuples: probes}))
	df := decode[detectResponse](t, do(t, s, "POST", "/v1/datasets/"+fs.ID+"/detect",
		detectRequest{Tuples: probes}))
	if !reflect.DeepEqual(dm.Results, df.Results) {
		t.Fatalf("post-compaction detect diverged:\ncompacted: %+v\nrebuild:   %+v", dm.Results, df.Results)
	}
}

// TestRestartFromUncappedSnapshot restarts from a snapshot written before
// detection capped its counts, so every stored count is the full |r_ε|.
// Recovery must clamp them to min(|r_ε|, η), and deleting a neighbor of a
// tuple that then sits exactly at η must flip it exactly as a from-scratch
// rebuild does.
func TestRestartFromUncappedSnapshot(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, BatchWindow: -1, Workers: 2}

	// The test cluster (every count well above η = 3) plus an isolated
	// square with a center point: a, b, c, d and e each see 4 neighbors.
	rel := testRelation()
	base := rel.N()
	for _, p := range [][2]float64{{10, 10}, {10.5, 10}, {10, 10.5}, {10.5, 10.5}, {10.25, 10.25}} {
		rel.Append(disc.Tuple{disc.Num(p[0]), disc.Num(p[1])})
	}
	a, b, d := base, base+1, base+3
	idx, err := disc.NewMutableIndex(rel, testParams.Eps, disc.KindBrute)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := make([]int, rel.N())
	for i, tp := range rel.Tuples {
		uncapped[i] = idx.CountWithin(tp, testParams.Eps, i, 0)
	}
	const id = "0123456789abcdef"
	err = snapshot.Write(filepath.Join(dataDir, id+snapshot.Ext), &snapshot.Snapshot{
		ID: id, Name: "old",
		Params: snapshot.Params{Eps: testParams.Eps, Eta: testParams.Eta, Kappa: testParams.Kappa},
		Eps:    testParams.Eps, Eta: testParams.Eta,
		Rel: rel, Counts: append([]int(nil), uncapped...), CreatedAt: time.Now(),
	})
	if err != nil {
		t.Fatalf("writing the old-format snapshot: %v", err)
	}

	s := recoverServer(t, cfg)
	sess, ok := s.Registry().Get(id)
	if !ok || !sess.Recovered {
		t.Fatal("session not recovered from the snapshot")
	}
	for i, c := range uncapped {
		if want := min(c, testParams.Eta); sess.Det.Counts[i] != want {
			t.Fatalf("row %d: recovered count %d, want min(%d, η) = %d", i, sess.Det.Counts[i], c, want)
		}
	}
	checkCountInvariant(t, sess, "after restart")

	// Deleting b leaves a at exactly η: still an inlier.
	w := do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", id, b), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete b: status %d, body %s", w.Code, w.Body.String())
	}
	if res := decode[mutationResponse](t, w); res.Flipped != 0 {
		t.Fatalf("deleting b flipped %d tuples, want 0", res.Flipped)
	}
	checkCountInvariant(t, sess, "after deleting b")

	// Deleting d drops a, c and e below η: all three flip, as in a rebuild.
	w = do(t, s, "DELETE", fmt.Sprintf("/v1/datasets/%s/tuples/%d", id, d), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete d: status %d, body %s", w.Code, w.Body.String())
	}
	if res := decode[mutationResponse](t, w); res.Flipped != 3 {
		t.Fatalf("deleting d flipped %d tuples, want 3 (a, c, e)", res.Flipped)
	}
	checkCountInvariant(t, sess, "after deleting d")
	sess.stateMu.RLock()
	gotA := sess.Det.Counts[sess.logical[a]]
	sess.stateMu.RUnlock()
	if gotA != 2 {
		t.Fatalf("a's count after both deletes = %d, want 2", gotA)
	}
}
