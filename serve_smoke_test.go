package disc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	disc "repro"
	"repro/internal/obs/promtest"
)

// TestServeSmoke drives a real discserve process through the whole session
// lifecycle: upload a dataset, detect, save, batch-repair, overflow the
// admission queue into a 429, read /varz, scrape /metrics, and drain on
// SIGTERM — the scripted round-trip `make serve-smoke` runs in CI. With
// -slow-request set to 1ns every API request is "slow", so the drain tail
// also asserts the span-breakdown log line fired.
func TestServeSmoke(t *testing.T) {
	discserve := buildTool(t, "discserve")

	// Tight capacity so the overflow leg is reachable: one worker and two
	// queue slots.
	cmd := exec.Command(discserve,
		"-addr", "127.0.0.1:0",
		"-max-queue", "2",
		"-workers", "1",
		"-slow-request", "1ns",
		"-log-level", "warn",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting discserve: %v", err)
	}
	waitErr := make(chan error, 1)
	defer cmd.Process.Kill()

	// The first stderr line announces the bound address. One goroutine
	// owns the pipe end to end: scan stderr to EOF, then reap the
	// process. Wait closes the pipe the moment the child exits, so
	// calling it concurrently races the final lines — the drain
	// announcement — out from under the scanner.
	sc := bufio.NewScanner(stderr)
	var base string
	lines := make(chan string, 64)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		waitErr <- cmd.Wait()
	}()
	select {
	case line := <-lines:
		const prefix = "discserve: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first stderr line %q", line)
		}
		base = "http://" + strings.TrimPrefix(line, prefix)
	case err := <-waitErr:
		t.Fatalf("discserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("discserve never announced its address")
	}

	client := &http.Client{Timeout: 30 * time.Second}
	postJSON := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}

	// Upload: a small synthetic cluster as inline CSV.
	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			rel.Append(disc.Tuple{disc.Num(float64(i) * 0.4), disc.Num(float64(j) * 0.4)})
		}
	}
	var csvBuf bytes.Buffer
	if err := disc.WriteCSV(&csvBuf, rel); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON("/v1/datasets", map[string]any{
		"name": "smoke", "csv": csvBuf.String(), "eps": 1.0, "eta": 3, "kappa": 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
	}
	var session struct {
		ID          string `json:"id"`
		IndexBuilds int64  `json:"index_builds"`
		Stats       struct {
			DistEvals int64 `json:"dist_evals"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &session); err != nil {
		t.Fatalf("decode session: %v\n%s", err, body)
	}
	if session.ID == "" || session.IndexBuilds != 2 {
		t.Fatalf("session = %s, index_builds = %d, want id + 2 builds", session.ID, session.IndexBuilds)
	}
	sessPath := "/v1/datasets/" + session.ID

	// Detect: one inlier, one outlier.
	resp, body = postJSON(sessPath+"/detect", map[string]any{
		"tuples": [][]float64{{0.4, 0.4}, {25, 25}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", resp.StatusCode, body)
	}
	var det struct {
		Results []struct {
			Outlier bool `json:"outlier"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.Results) != 2 || det.Results[0].Outlier || !det.Results[1].Outlier {
		t.Fatalf("detect results = %s", body)
	}

	// Save one outlier.
	resp, body = postJSON(sessPath+"/save", map[string]any{"tuple": []float64{25, 25}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save: status %d, body %s", resp.StatusCode, body)
	}
	var adj struct {
		Saved bool `json:"saved"`
	}
	if err := json.Unmarshal(body, &adj); err != nil {
		t.Fatal(err)
	}
	if !adj.Saved {
		t.Fatalf("outlier not saved: %s", body)
	}

	// Batch repair.
	resp, body = postJSON(sessPath+"/repair", map[string]any{
		"tuples": [][]float64{{20, -3}, {0.8, 0.8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: status %d, body %s", resp.StatusCode, body)
	}
	var rep struct {
		Saved int `json:"saved"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Saved != 2 {
		t.Fatalf("repair saved = %d, want 2: %s", rep.Saved, body)
	}

	// Overflow: a 3-tuple repair cannot fit the 2-slot queue, and admission
	// is all-or-nothing, so this 429 is deterministic.
	resp, body = postJSON(sessPath+"/repair", map[string]any{
		"tuples": [][]float64{{30, 30}, {31, 31}, {32, 32}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized repair: status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// A concurrent burst of single saves: each must resolve to either a
	// completed save or a clean backpressure refusal, never an error.
	var wg sync.WaitGroup
	var burstOK, burst429 atomic.Int64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(sessPath+"/save", map[string]any{
				"tuple": []float64{25 + float64(i), 25},
			})
			switch resp.StatusCode {
			case http.StatusOK:
				burstOK.Add(1)
			case http.StatusTooManyRequests:
				burst429.Add(1)
			default:
				t.Errorf("burst save %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if burstOK.Load() == 0 {
		t.Error("burst: no save completed")
	}

	// Varz: admissions and rejections are visible, no warm-path rebuilds.
	var varz struct {
		Endpoints map[string]struct {
			Admitted int64 `json:"admitted"`
			Rejected int64 `json:"rejected"`
		} `json:"endpoints"`
		Sessions []struct {
			IndexBuilds int64 `json:"index_builds"`
			Stats       struct {
				DistEvals int64 `json:"dist_evals"`
			} `json:"stats"`
		} `json:"sessions"`
	}
	getJSON("/varz", &varz)
	if varz.Endpoints["save"].Admitted == 0 {
		t.Errorf("varz save endpoint = %+v, want admissions", varz.Endpoints["save"])
	}
	if varz.Endpoints["repair"].Rejected == 0 {
		t.Errorf("varz repair endpoint = %+v, want the overflow rejection", varz.Endpoints["repair"])
	}
	if len(varz.Sessions) != 1 || varz.Sessions[0].IndexBuilds != 2 {
		t.Errorf("varz sessions = %+v, want one session with 2 index builds", varz.Sessions)
	}
	if varz.Sessions[0].Stats.DistEvals <= session.Stats.DistEvals {
		t.Errorf("dist evals did not grow across warm requests (%d -> %d)",
			session.Stats.DistEvals, varz.Sessions[0].Stats.DistEvals)
	}

	// Scrape /metrics mid-run: the exposition must parse under the strict
	// validator and the save-latency histogram must have real samples.
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mresp.StatusCode)
	}
	fams, err := promtest.Parse(bytes.NewReader(mbody))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, mbody)
	}
	var saveCount float64
	if f := fams["disc_save_seconds"]; f == nil {
		t.Error("/metrics missing the disc_save_seconds histogram")
	} else {
		for _, smp := range f.Samples {
			if smp.Name == "disc_save_seconds_count" {
				saveCount += smp.Value
			}
		}
	}
	if saveCount < 1 {
		t.Errorf("disc_save_seconds recorded %v samples, want >= 1 after the saves", saveCount)
	}
	if f := fams["disc_endpoint_requests_total"]; f == nil || f.Type != "counter" {
		t.Error("/metrics missing the endpoint request counters")
	}

	// Graceful drain: SIGTERM, then the process announces the drain and
	// exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("discserve exited nonzero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("discserve did not exit after SIGTERM")
	}
	// Drain the remaining stderr: the drain announcement must be there,
	// and so must at least one slow-request span breakdown (the 1ns
	// threshold makes every API request slow).
	var sawDrain, sawSlow bool
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, open := <-lines:
			if !open {
				if !sawDrain {
					t.Error("no drain announcement on stderr")
				}
				if !sawSlow {
					t.Error("no slow-request span breakdown on stderr (-slow-request 1ns)")
				}
				return
			}
			if strings.Contains(line, "drained") {
				sawDrain = true
			}
			if strings.Contains(line, "slow request") && strings.Contains(line, "spans=") {
				sawSlow = true
			}
		case <-deadline:
			t.Fatal("stderr never closed after exit")
		}
	}
}
