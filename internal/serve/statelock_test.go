package serve

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	disc "repro"
)

// TestStateLockOnlyThroughHelpers keeps the session state lock behind
// readState and writeState, whose deferred unlocks a panic cannot skip:
// no other function in the package's non-test files may lock or unlock
// stateMu.
func TestStateLockOnlyThroughHelpers(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				inner, ok := sel.X.(*ast.SelectorExpr)
				if !ok || inner.Sel.Name != "stateMu" {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
				default:
					return true
				}
				calls++
				if fn.Name.Name != "readState" && fn.Name.Name != "writeState" {
					t.Errorf("%s: %s calls stateMu.%s; lock the state through readState or writeState",
						fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	if calls != 4 {
		t.Errorf("found %d stateMu lock calls, want the helpers' 4: the scan no longer sees them", calls)
	}
}

// within runs req on its own goroutine and fails the test unless it
// answers within d.
func within(t *testing.T, d time.Duration, what string, req func() *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- req() }()
	select {
	case w := <-done:
		return w
	case <-time.After(d):
		t.Fatalf("%s did not answer within %v", what, d)
		return nil
	}
}

// TestMutationPanicDoesNotWedge panics a mutation while it holds the state
// lock exclusively. The gate answers it as an error, and the lock must be
// released: a following /detect answers promptly.
func TestMutationPanicDoesNotWedge(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	applyHook = func(string) { panic("injected mutation panic") }
	t.Cleanup(func() { applyHook = nil })
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples", TupleRequest{Tuple: []any{0.2, 0.2}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("panicking insert: status %d, want 504; body %s", w.Code, w.Body.String())
	}
	applyHook = nil
	w = within(t, time.Second, "/detect after a mutation panic", func() *httptest.ResponseRecorder {
		return do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect",
			DetectRequest{Tuples: [][]any{{0.2, 0.2}}})
	})
	if w.Code != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", w.Code, w.Body.String())
	}
	if got := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil)).Tuples; got != info.Tuples {
		t.Errorf("a mutation that panicked before applying changed tuples %d -> %d", info.Tuples, got)
	}
}

// TestMutationPanicRollsBack panics an insert, an update and a delete
// right after their first structural change. Each is answered 504 and
// rolled back: the tuple count is unchanged, the rollback counts as one
// compaction (two index builds), the next insert answers 201, and /detect
// of every live row equals a from-scratch detection over the live rows.
func TestMutationPanicRollsBack(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	sess, _ := s.Registry().Get(info.ID)
	t.Cleanup(func() { changeHook = nil })
	path := "/v1/datasets/" + info.ID
	for i, m := range []struct {
		method, path string
		body         any
	}{
		{"POST", path + "/tuples", TupleRequest{Tuple: []any{0.2, 0.2}}},
		{"PUT", path + "/tuples/3", TupleRequest{Tuple: []any{9, 9}}},
		{"DELETE", path + "/tuples/5", nil},
	} {
		before := decode[SessionInfo](t, do(t, s, "GET", path, nil))
		changeHook = func() { panic("injected mid-mutation panic") }
		w := do(t, s, m.method, m.path, m.body)
		changeHook = nil
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s %s: status %d, want 504; body %s", m.method, m.path, w.Code, w.Body.String())
		}
		after := decode[SessionInfo](t, do(t, s, "GET", path, nil))
		if after.Tuples != before.Tuples {
			t.Errorf("%s: tuples %d -> %d after a rolled-back mutation", m.method, before.Tuples, after.Tuples)
		}
		if after.Compactions != before.Compactions+1 || after.IndexBuilds != 2+2*after.Compactions {
			t.Errorf("%s: compactions %d -> %d, index_builds %d; want one more compaction and 2 + 2·compactions builds",
				m.method, before.Compactions, after.Compactions, after.IndexBuilds)
		}
		if w := do(t, s, "POST", path+"/tuples", TupleRequest{Tuple: []any{0.3, 0.1 * float64(i)}}); w.Code != http.StatusCreated {
			t.Fatalf("%s: next insert: status %d, body %s", m.method, w.Code, w.Body.String())
		}

		var live *disc.Relation
		sess.readState(func() {
			live = disc.NewRelation(sess.Rel.Schema)
			for _, phys := range sess.logical {
				if phys >= 0 {
					live.Append(sess.Rel.Tuples[phys])
				}
			}
		})
		ref, err := disc.DetectContext(context.Background(), live, sess.Cons, nil)
		if err != nil {
			t.Fatal(err)
		}
		probes := make([][]any, live.N())
		for r, tp := range live.Tuples {
			probes[r] = tupleAny(tp)
		}
		got := decode[DetectResponse](t, do(t, s, "POST", path+"/detect", DetectRequest{Tuples: probes, Member: true}))
		for r, res := range got.Results {
			if res.Neighbors != ref.Counts[r] || res.Outlier != (ref.Counts[r] < sess.Cons.Eta) {
				t.Fatalf("%s: live row %d detects %+v, a from-scratch detection counts %d", m.method, r, res, ref.Counts[r])
			}
		}
	}
}

// TestMutationRollbackFailureDeletesSession makes the rollback's rebuild
// fail: the mutation is still answered 504, and the session is deleted
// rather than left half-applied.
func TestMutationRollbackFailureDeletesSession(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	sess, _ := s.Registry().Get(info.ID)
	t.Cleanup(func() { changeHook = nil })
	changeHook = func() {
		sess.Cons.Eta = 1 << 20 // every row an outlier: the rebuild finds nothing to save against
		panic("injected mid-mutation panic")
	}
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples", TupleRequest{Tuple: []any{0.2, 0.2}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "GET", "/v1/datasets/"+info.ID, nil); w.Code != http.StatusNotFound {
		t.Fatalf("session after a failed rollback: status %d, want 404", w.Code)
	}
}

// panicCount is a detection index whose count panics.
type panicCount struct{ disc.NeighborIndex }

func (panicCount) CountWithin(disc.Tuple, float64, int, int) int { panic("injected count panic") }

// TestDetectPanicDoesNotWedge panics a /detect while it holds the state
// lock for reading. The handler's panic is answered 500, and the lock must
// be released: a following insert answers promptly.
func TestDetectPanicDoesNotWedge(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	sess, _ := s.Registry().Get(info.ID)
	idx := sess.RelIdx
	sess.RelIdx = panicCount{idx}
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", DetectRequest{Tuples: [][]any{{0.2, 0.2}}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking detect: status %d, want 500; body %s", w.Code, w.Body.String())
	}
	sess.RelIdx = idx
	w = within(t, time.Second, "insert after a detect panic", func() *httptest.ResponseRecorder {
		return do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples", TupleRequest{Tuple: []any{0.2, 0.2}})
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("insert: status %d, body %s", w.Code, w.Body.String())
	}
}

// TestInfoNotBlockedByWriter holds the state read lock, as a long save
// does, while an insert waits for the write lock. Go's RWMutex queues new
// readers behind a waiting writer, so session info must read nothing
// under the state lock to answer.
func TestInfoNotBlockedByWriter(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	sess, _ := s.Registry().Get(info.ID)

	held, release := make(chan struct{}), make(chan struct{})
	go sess.readState(func() {
		close(held)
		<-release
	})
	<-held
	inserted := make(chan int, 1)
	go func() {
		inserted <- do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples", TupleRequest{Tuple: []any{0.2, 0.2}}).Code
	}()
	for deadline := time.Now().Add(5 * time.Second); !sess.gate.busy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the insert was never admitted")
		}
	}
	time.Sleep(50 * time.Millisecond) // let the insert reach the write lock

	for _, path := range []string{"/varz", "/metrics", "/v1/datasets", "/v1/datasets/" + info.ID} {
		w := within(t, 100*time.Millisecond, "GET "+path+" behind a waiting writer", func() *httptest.ResponseRecorder {
			return do(t, s, "GET", path, nil)
		})
		if w.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, w.Code)
		}
	}
	close(release)
	if code := <-inserted; code != http.StatusCreated {
		t.Fatalf("insert: status %d", code)
	}
	if got := sess.Info().Tuples; got != info.Tuples+1 {
		t.Errorf("tuples after the insert = %d, want %d", got, info.Tuples+1)
	}
}

// TestSessionCountsEtaRadii: a fresh session has computed no η-radius;
// a save reads some, and the session's stats report them with their KNN
// queries, while the save's own counters do not.
func TestSessionCountsEtaRadii(t *testing.T) {
	s := newTestServer(t, Config{})
	info := uploadSession(t, s)
	if info.Stats.EtaRadii != 0 {
		t.Fatalf("fresh session computed %d η-radii, want none", info.Stats.EtaRadii)
	}
	w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", TupleRequest{Tuple: tupleAny(outlierTuple())})
	if w.Code != http.StatusOK {
		t.Fatalf("save: status %d, body %s", w.Code, w.Body.String())
	}
	after := decode[SessionInfo](t, do(t, s, "GET", "/v1/datasets/"+info.ID, nil)).Stats
	if after.EtaRadii == 0 {
		t.Fatal("a save read η-radii but the session counted none")
	}
	if after.KNNQueries < after.EtaRadii {
		t.Errorf("session stats: %d KNN queries for %d η-radii", after.KNNQueries, after.EtaRadii)
	}
}
