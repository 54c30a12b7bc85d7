package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	disc "repro"
	"repro/internal/fault"
	"repro/internal/snapshot"
)

// recoverServer builds a server over the data dir and runs its startup
// replay, failing the test if the replay itself errors.
func recoverServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newTestServer(t, cfg)
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s
}

// writeTestCSVFile puts the test relation on disk for path-loaded sessions.
func writeTestCSVFile(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte(testCSV(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openPathSession(t *testing.T, s *Server, path string) SessionInfo {
	t.Helper()
	w := do(t, s, "POST", "/v1/datasets", CreateRequest{Path: path, Eps: 1, Eta: 3, Kappa: 2})
	if w.Code != http.StatusCreated {
		t.Fatalf("open path: status %d, body %s", w.Code, w.Body.String())
	}
	return decode[SessionInfo](t, w)
}

// TestRestartRecoversWarmSessions is the tentpole acceptance test: build →
// shutdown → restart over the same data dir → the sessions are back under
// their ids, marked recovered, with detection demonstrably skipped (zero
// detect time, the index-build counter still pinned at 2) — and they serve
// saves immediately.
func TestRestartRecoversWarmSessions(t *testing.T) {
	dataDir := t.TempDir()
	srcDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Workers: 2}
	csvPath := writeTestCSVFile(t, srcDir)

	s1 := New(cfg)
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	up := uploadSession(t, s1)
	byPath := openPathSession(t, s1, csvPath)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2 := recoverServer(t, cfg)
	for _, id := range []string{up.ID, byPath.ID} {
		w := do(t, s2, "GET", "/v1/datasets/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("session %s not recovered: status %d, body %s", id, w.Code, w.Body.String())
		}
		info := decode[SessionInfo](t, w)
		if !info.Recovered {
			t.Errorf("session %s: recovered = false, want true", id)
		}
		// The no-re-detection proof: a recovered session spent zero time in
		// the detection phase and built exactly the two in-memory indexes —
		// full build would show Detect > 0.
		if info.Timings.Detect != 0 {
			t.Errorf("session %s: Timings.Detect = %v, want 0 (detection must be skipped)", id, info.Timings.Detect)
		}
		if info.IndexBuilds != 2 {
			t.Errorf("session %s: index builds = %d, want 2", id, info.IndexBuilds)
		}
		if info.Tuples != up.Tuples || info.Inliers != up.Inliers || info.Outliers != up.Outliers {
			t.Errorf("session %s: shape %d/%d/%d, want %d/%d/%d", id,
				info.Tuples, info.Inliers, info.Outliers, up.Tuples, up.Inliers, up.Outliers)
		}
	}
	// The recovered session is warm: a save works without any rebuild.
	w := do(t, s2, "POST", "/v1/datasets/"+up.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
	if w.Code != http.StatusOK {
		t.Fatalf("save on recovered session: status %d, body %s", w.Code, w.Body.String())
	}
	if adj := decode[Adjustment](t, w); !adj.Saved {
		t.Fatalf("outlier not saved on recovered session: %+v", adj)
	}
	if got := s2.reg.store.Stats(); got.RecoveredSessions != 2 || got.SnapshotLoads != 2 {
		t.Errorf("store stats = %+v, want 2 loads and 2 recovered", got)
	}
}

// TestRecoveredSessionKeyDerived: a recovered path-loaded session takes its
// dedup key from its source path and params, never from a key string the
// snapshot carries. testdata/old-approx-session.snap was written by the
// serving layer as it stood before sampled detection was removed, for
// testdata/old-approx-session.csv opened with approx=1: its hint holds a
// key in the old format and params naming the removed mode. It must
// recover with the exact detection's counts (that mode's split and counts
// were bit-identical to exact), and the next OpenPath with the same
// params must return it instead of building another. A dataset JSON path
// loaded with ε and η left to the file's defaults dedups across a restart
// too: the requested params are kept verbatim.
func TestRecoveredSessionKeyDerived(t *testing.T) {
	const (
		oldPath = "testdata/old-approx-session.csv"
		oldSnap = "testdata/old-approx-session.snap"
		oldID   = "da00d69d3b78d0f4" // the id inside oldSnap
	)
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Workers: 2}
	jsonPath := filepath.Join(t.TempDir(), "iris.json")
	ds, err := disc.Table1("Iris", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := disc.WriteDatasetJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(s *Server, req CreateRequest) SessionInfo {
		t.Helper()
		w := do(t, s, "POST", "/v1/datasets", req)
		if w.Code != http.StatusCreated {
			t.Fatalf("open %s: status %d, body %s", req.Path, w.Code, w.Body.String())
		}
		return decode[SessionInfo](t, w)
	}
	oldReq := CreateRequest{Path: oldPath, Eps: 0.5, Eta: 4, Kappa: 2}
	jsonReq := CreateRequest{Path: jsonPath, Kappa: 2}

	s1 := New(cfg)
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	byJSON := open(s1, jsonReq)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	old, err := os.ReadFile(oldSnap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, oldID+snapshot.Ext), old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := recoverServer(t, cfg)
	got, ok := s2.Registry().Get(oldID)
	if !ok || !got.Recovered {
		t.Fatalf("session %s not recovered from %s", oldID, oldSnap)
	}
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := disc.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := disc.DetectContext(context.Background(), rel, disc.Constraints{Eps: oldReq.Eps, Eta: oldReq.Eta}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Det.Counts, exact.Counts) {
		t.Fatalf("recovered counts %v, want the exact detection's %v", got.Det.Counts, exact.Counts)
	}
	if again := open(s2, oldReq); again.ID != oldID || !again.Recovered {
		t.Errorf("OpenPath %s after restart returned session %s (recovered=%v), want recovered %s",
			oldPath, again.ID, again.Recovered, oldID)
	}
	if again := open(s2, jsonReq); again.ID != byJSON.ID || !again.Recovered {
		t.Errorf("OpenPath %s after restart returned session %s (recovered=%v), want recovered %s",
			jsonPath, again.ID, again.Recovered, byJSON.ID)
	}
	if n := len(s2.Registry().List()); n != 2 {
		t.Errorf("registry holds %d sessions after the repeat opens, want 2", n)
	}
}

// TestCreateRefusesRetiredKDIndex: "kd" is no longer an index kind. A
// create request naming it gets the status any unknown kind gets, whether
// the kind rides in the JSON body or in a raw CSV upload's query string,
// and the error lists the kinds that remain.
func TestCreateRefusesRetiredKDIndex(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for _, index := range []string{"kd", "rtree"} {
		w := do(t, s, "POST", "/v1/datasets", CreateRequest{
			Name: "test", CSV: testCSV(t), Eps: 1, Eta: 3, Kappa: 2, Index: index,
		})
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("JSON create with index %q: status %d, want 422", index, w.Code)
		}
		if want := "want auto, brute, grid or vp"; !strings.Contains(w.Body.String(), want) {
			t.Errorf("JSON create with index %q: body %s does not list the kinds (%s)", index, w.Body.String(), want)
		}
		req := httptest.NewRequest("POST", "/v1/datasets?eps=1&eta=3&index="+index, strings.NewReader(testCSV(t)))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("CSV create with index %q: status %d, want 422", index, rec.Code)
		}
	}
	if n := len(s.Registry().List()); n != 0 {
		t.Errorf("refused creates left %d sessions", n)
	}
}

// TestRetiredKDSnapshotRecoversAsAuto: a snapshot whose params name the
// retired "kd" index kind still recovers, under the automatic choice, on
// both recovery paths. A valid snapshot rehydrates; a payload-corrupt one
// is rebuilt from its source path. Either way the session holds the counts
// a fresh detection gives, and the next OpenPath with index "" returns it.
func TestRetiredKDSnapshotRecoversAsAuto(t *testing.T) {
	rel := testRelation()
	rel.Append(outlierTuple())
	rel.Append(disc.Tuple{disc.Num(-20), disc.Num(3)})
	var buf bytes.Buffer
	if err := disc.WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cons := disc.Constraints{Eps: 1, Eta: 3}
	fresh, err := disc.DetectContext(context.Background(), rel, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Outliers) != 2 {
		t.Fatalf("setup: %d outliers, want 2", len(fresh.Outliers))
	}
	auto, err := disc.NewMutableIndex(rel, cons.Eps, disc.KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"rehydrate", "rebuild"} {
		t.Run(mode, func(t *testing.T) {
			const id = "6b64000000000001"
			dataDir := t.TempDir()
			path := filepath.Join(dataDir, id+snapshot.Ext)
			err := snapshot.Write(path, &snapshot.Snapshot{
				ID: id, Name: csvPath, SourcePath: csvPath,
				Params: snapshot.Params{Eps: cons.Eps, Eta: cons.Eta, Kappa: 2, Index: "kd"},
				Eps:    cons.Eps, Eta: cons.Eta,
				Rel: rel, Counts: fresh.Counts,
				CreatedAt: time.Now(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if mode == "rebuild" {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)-8] ^= 0x01 // payload corrupt, hint intact
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := recoverServer(t, Config{DataDir: dataDir, Workers: 2})
			got, ok := s.Registry().Get(id)
			if !ok {
				t.Fatalf("session %s not recovered", id)
			}
			if got.Recovered != (mode == "rehydrate") {
				t.Errorf("recovered = %v, want %v", got.Recovered, mode == "rehydrate")
			}
			if !reflect.DeepEqual(got.Det.Counts, fresh.Counts) {
				t.Errorf("counts %v, want the fresh detection's %v", got.Det.Counts, fresh.Counts)
			}
			if info := got.Info(); info.Index != auto.Kind().String() {
				t.Errorf("index %q, want the automatic choice %q", info.Index, auto.Kind())
			}
			w := do(t, s, "POST", "/v1/datasets", CreateRequest{Path: csvPath, Eps: cons.Eps, Eta: cons.Eta, Kappa: 2})
			if w.Code != http.StatusCreated {
				t.Fatalf("open path: status %d, body %s", w.Code, w.Body.String())
			}
			if again := decode[SessionInfo](t, w); again.ID != id {
				t.Errorf("OpenPath with index \"\" returned session %s, want the recovered %s", again.ID, id)
			}
			if n := len(s.Registry().List()); n != 1 {
				t.Errorf("registry holds %d sessions after the repeat open, want 1", n)
			}
		})
	}
}

// TestCorruptSnapshotQuarantinedAndRebuilt: a bit-flipped snapshot must not
// crash recovery or produce a wrong session — it is quarantined (bytes
// preserved) and the session rebuilt from its source path under the same
// id; an upload session, whose data existed only in the payload, is lost
// but the server stays healthy.
func TestCorruptSnapshotQuarantinedAndRebuilt(t *testing.T) {
	dataDir := t.TempDir()
	srcDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Workers: 2}
	csvPath := writeTestCSVFile(t, srcDir)

	s1 := New(cfg)
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatalf("first Recover: %v", err)
	}
	up := uploadSession(t, s1)
	byPath := openPathSession(t, s1, csvPath)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Flip one payload bit in both snapshots.
	for _, id := range []string{up.ID, byPath.ID} {
		path := filepath.Join(dataDir, id+snapshot.Ext)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading snapshot: %v", err)
		}
		b[len(b)-8] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := recoverServer(t, cfg)
	// The path-loaded session is back (full rebuild from source) under its
	// original id; the checksum caught the corruption, so the flipped data
	// never reached a session.
	w := do(t, s2, "GET", "/v1/datasets/"+byPath.ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("rebuilt session missing: status %d, body %s", w.Code, w.Body.String())
	}
	info := decode[SessionInfo](t, w)
	if info.Recovered {
		t.Error("rebuilt-from-source session marked recovered; it went through the full build")
	}
	if info.Tuples != byPath.Tuples || info.Outliers != byPath.Outliers {
		t.Errorf("rebuilt session shape %d/%d, want %d/%d",
			info.Tuples, info.Outliers, byPath.Tuples, byPath.Outliers)
	}
	// The upload session is gone — nothing to rebuild from.
	if w := do(t, s2, "GET", "/v1/datasets/"+up.ID, nil); w.Code != http.StatusNotFound {
		t.Errorf("corrupt upload session: status %d, want 404", w.Code)
	}
	// Both corrupt files are preserved in quarantine, counted in the stats.
	q, err := os.ReadDir(filepath.Join(dataDir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Errorf("%d files in quarantine, want 2", len(q))
	}
	got := s2.reg.store.Stats()
	if got.SnapshotCorrupt != 2 || got.RebuiltSessions != 1 || got.RecoveredSessions != 0 {
		t.Errorf("store stats = %+v, want corrupt=2 rebuilt=1 recovered=0", got)
	}
}

// TestDrainPersistsDirtySessions: a session whose snapshot write failed at
// build time (transient fault) is retried during the graceful drain, so a
// clean shutdown still leaves a recoverable snapshot.
func TestDrainPersistsDirtySessions(t *testing.T) {
	t.Cleanup(fault.Reset)
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Workers: 2}

	fault.SetHook(fault.SnapshotWrite, func() error { return fault.ErrInjected })
	s1 := New(cfg)
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	up := uploadSession(t, s1)
	if got := s1.reg.store.Stats(); got.SnapshotWrites != 0 || got.SnapshotWriteErrors == 0 {
		t.Fatalf("store stats with write fault = %+v, want zero writes and some errors", got)
	}
	// The fault clears (transient disk pressure, say) before the SIGTERM.
	fault.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s1.reg.store.Stats(); got.SnapshotWrites != 1 {
		t.Fatalf("store stats after drain = %+v, want the dirty session persisted", got)
	}

	s2 := recoverServer(t, cfg)
	w := do(t, s2, "GET", "/v1/datasets/"+up.ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("drain-persisted session not recovered: status %d", w.Code)
	}
	if info := decode[SessionInfo](t, w); !info.Recovered {
		t.Error("drain-persisted session not marked recovered")
	}
}

// TestDeleteRemovesSnapshot: an explicit delete must not resurrect at the
// next restart.
func TestDeleteRemovesSnapshot(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Workers: 2}
	s1 := New(cfg)
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	up := uploadSession(t, s1)
	if w := do(t, s1, "DELETE", "/v1/datasets/"+up.ID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := recoverServer(t, cfg)
	if w := do(t, s2, "GET", "/v1/datasets/"+up.ID, nil); w.Code != http.StatusNotFound {
		t.Errorf("deleted session resurrected: status %d", w.Code)
	}
}

// TestReadyzLifecycle: /livez is always 200; /readyz is 503 before the
// startup replay completes, 200 once recovered, and 503 again during the
// drain.
func TestReadyzLifecycle(t *testing.T) {
	cfg := Config{DataDir: t.TempDir()}
	s := New(cfg)
	if w := do(t, s, "GET", "/livez", nil); w.Code != http.StatusOK {
		t.Fatalf("/livez before recovery: %d, want 200", w.Code)
	}
	if w := do(t, s, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before recovery: %d, want 503", w.Code)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", w.Code)
	}
	if w := do(t, s, "GET", "/livez", nil); w.Code != http.StatusOK {
		t.Fatalf("/livez while draining: %d, want 200", w.Code)
	}
	// A server without a data dir has no replay to wait for.
	s2 := newTestServer(t, Config{})
	if w := do(t, s2, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("/readyz without data dir: %d, want 200 immediately", w.Code)
	}
}

// TestJSONHardening: malformed bodies, unknown fields, trailing garbage and
// oversize payloads are client errors (400/413), never 500s.
func TestJSONHardening(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 512})
	raw := func(method, path, body, ct string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{"csv": `, http.StatusBadRequest},
		{"unknown field", `{"csv": "x\n1", "kapa": 3}`, http.StatusBadRequest},
		{"trailing garbage", `{"csv": "x\n1"} extra`, http.StatusBadRequest},
		{"wrong type", `{"csv": 42}`, http.StatusBadRequest},
		{"oversize", `{"csv": "` + strings.Repeat("a", 2048) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if got := raw("POST", "/v1/datasets", tc.body, "application/json"); got != tc.want {
			t.Errorf("create %s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	// Oversize raw CSV upload takes the 413 path too.
	if got := raw("POST", "/v1/datasets", "x\n"+strings.Repeat("1\n", 2048), "text/csv"); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize CSV: status %d, want 413", got)
	}
	// The hardened decode also guards the per-session endpoints.
	info := uploadSessionSmall(t, s)
	if got := raw("POST", "/v1/datasets/"+info.ID+"/detect", `{"tuples": [[0.0, 0.0]], "bogus": 1}`, "application/json"); got != http.StatusBadRequest {
		t.Errorf("detect unknown field: status %d, want 400", got)
	}
	if got := raw("POST", "/v1/datasets/"+info.ID+"/save", `{"tuple": }`, "application/json"); got != http.StatusBadRequest {
		t.Errorf("save malformed: status %d, want 400", got)
	}
}

// uploadSessionSmall uploads a dataset that fits under a tight MaxBodyBytes.
func uploadSessionSmall(t *testing.T, s *Server) SessionInfo {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&sb, "%g,%g\n", float64(i)*0.4, float64(j)*0.4)
		}
	}
	w := do(t, s, "POST", "/v1/datasets", CreateRequest{Name: "small", CSV: sb.String(), Eps: 1, Eta: 3, Kappa: 2})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
	}
	return decode[SessionInfo](t, w)
}

// TestDetectMemberMode: a tuple that is a row of the dataset matches its
// own stored copy; without member semantics the self-match can push a true
// outlier over the η threshold.
func TestDetectMemberMode(t *testing.T) {
	// E has exactly 2 true neighbors (B, D) under (ε=1, η=3): an outlier.
	// A naive count of E's row includes E itself → 3 → spuriously inlier.
	csv := "x,y\n0,0\n0.5,0\n0,0.5\n0.25,0.25\n1.2,0\n"
	s := newTestServer(t, Config{})
	w := do(t, s, "POST", "/v1/datasets", CreateRequest{Name: "m", CSV: csv, Eps: 1, Eta: 3, Kappa: 2})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	info := decode[SessionInfo](t, w)
	if info.Outliers != 1 {
		t.Fatalf("detection split found %d outliers, want 1", info.Outliers)
	}
	e := []any{1.2, 0.0}
	// Non-member screening of the member row: the self-match hides the
	// violation.
	w = do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", DetectRequest{Tuples: [][]any{e}})
	if got := decode[DetectResponse](t, w); got.Results[0].Outlier {
		t.Fatalf("non-member screening flagged the row (neighbors=%d); self-match should hide it", got.Results[0].Neighbors)
	}
	// Member screening matches the session's own detection split.
	w = do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", DetectRequest{Tuples: [][]any{e}, Member: true})
	got := decode[DetectResponse](t, w)
	if !got.Results[0].Outlier || got.Results[0].Neighbors != 2 {
		t.Fatalf("member screening = %+v, want outlier with 2 neighbors", got.Results[0])
	}
}

// TestChaosRegistryRestarts is the in-process chaos loop: sessions are
// built and the registry restarted repeatedly while snapshot writes, reads
// and index rebuilds fail probabilistically. The invariant under every
// fault pattern: recovery never errors, every listed session answers
// requests, and a session is either recovered warm, rebuilt from source, or
// absent — never present-but-broken.
func TestChaosRegistryRestarts(t *testing.T) {
	t.Cleanup(fault.Reset)
	dataDir := t.TempDir()
	srcDir := t.TempDir()
	csvPath := writeTestCSVFile(t, srcDir)
	cfg := Config{DataDir: dataDir, Workers: 2}

	for round := 0; round < 5; round++ {
		// Faults active while building and persisting...
		if err := fault.Configure("snapshot.write:error:0.5,snapshot.read:error:0.3,index.build:error:0.3,batch.dispatch:error:0.2", int64(round)); err != nil {
			t.Fatal(err)
		}
		s := New(cfg)
		if err := s.Recover(context.Background()); err != nil {
			t.Fatalf("round %d: Recover under faults: %v", round, err)
		}
		openPathSession(t, s, csvPath)
		uploadSession(t, s)
		// Every listed session must answer detect and save requests even
		// with dispatch faults active (errors are clean 5xx, not hangs).
		for _, info := range s.reg.List() {
			w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
			if w.Code != http.StatusOK && w.Code != http.StatusGatewayTimeout {
				t.Fatalf("round %d: save on %s: unexpected status %d: %s", round, info.ID, w.Code, w.Body.String())
			}
			if w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", DetectRequest{Tuples: [][]any{{25.0, 25.0}}}); w.Code != http.StatusOK {
				t.Fatalf("round %d: detect on %s: status %d", round, info.ID, w.Code)
			}
		}
		// ...and during the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			cancel()
			t.Fatalf("round %d: Shutdown under faults: %v", round, err)
		}
		cancel()
		fault.Reset()
	}

	// A final clean restart: whatever snapshots survived the chaos must
	// recover or quarantine cleanly, and recovered sessions must serve.
	s := recoverServer(t, cfg)
	for _, info := range s.reg.List() {
		w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
		if w.Code != http.StatusOK {
			t.Fatalf("final: save on %s: status %d: %s", info.ID, w.Code, w.Body.String())
		}
	}
	got := s.reg.store.Stats()
	if got.SnapshotLoads == 0 && got.SnapshotCorrupt == 0 && len(s.reg.List()) > 0 {
		t.Errorf("final recovery did no snapshot work yet has sessions: %+v", got)
	}
}

// TestChaosBatchDispatchPanic: an injected panic inside a save worker is
// recovered by the pool and answered as an error — the caller never hangs
// and the server keeps serving. The server logs the panic once, with the
// request id and the stack of the panicking frame; the 504 body names the
// panic but carries no stack.
func TestChaosBatchDispatchPanic(t *testing.T) {
	t.Cleanup(fault.Reset)
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelError}))
	s := newTestServer(t, Config{Workers: 2, Logger: log})
	info := uploadSession(t, s)
	if err := fault.Configure("batch.dispatch:panic", 1); err != nil {
		t.Fatal(err)
	}
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("save under panic injection: status %d, want 504", w.Code)
	}
	var body ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if want := "serve: save request failed: panic: fault: injected panic at batch.dispatch"; body.Error != want {
		t.Errorf("504 body error %q, want %q", body.Error, want)
	}
	if strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("504 body carries a stack: %s", w.Body.String())
	}
	logged := logBuf.String()
	if n := strings.Count(logged, "request panicked"); n != 1 {
		t.Errorf("panic logged %d times, want once:\n%s", n, logged)
	}
	if !strings.Contains(logged, "request_id="+body.RequestID) || body.RequestID == "" {
		t.Errorf("panic log lacks the request id %q:\n%s", body.RequestID, logged)
	}
	if !strings.Contains(logged, "fault.Inject") {
		t.Errorf("panic log's stack does not name the panicking frame:\n%s", logged)
	}
	fault.Reset()
	w = do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: []any{25.0, 25.0}})
	if w.Code != http.StatusOK {
		t.Fatalf("save after panic: status %d, want 200 (server must survive)", w.Code)
	}
}
