package disc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	disc "repro"
	"repro/internal/obs/promtest"
)

// smokeProc is one discserve process under test: its command, announced
// base URL, and the stderr plumbing (one goroutine owns the pipe end to
// end — scan to EOF, then reap — so drain lines are never raced away).
type smokeProc struct {
	cmd     *exec.Cmd
	base    string
	lines   chan string
	waitErr chan error
}

func startSmokeProc(t *testing.T, bin string, args ...string) *smokeProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting discserve: %v", err)
	}
	p := &smokeProc{cmd: cmd, lines: make(chan string, 64), waitErr: make(chan error, 1)}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stderr)
	go func() {
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
		p.waitErr <- cmd.Wait()
	}()
	select {
	case line := <-p.lines:
		const prefix = "discserve: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected first stderr line %q", line)
		}
		p.base = "http://" + strings.TrimPrefix(line, prefix)
	case err := <-p.waitErr:
		t.Fatalf("discserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("discserve never announced its address")
	}
	return p
}

// drain sends SIGTERM and asserts a clean exit with the drained
// announcement on stderr.
func (p *smokeProc) drain(t *testing.T, who string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.waitErr:
		if err != nil {
			t.Fatalf("%s exited nonzero after SIGTERM: %v", who, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM", who)
	}
	sawDrain := false
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, open := <-p.lines:
			if !open {
				if !sawDrain {
					t.Errorf("%s: no drain announcement on stderr", who)
				}
				return
			}
			if strings.Contains(line, "drained") {
				sawDrain = true
			}
		case <-deadline:
			t.Fatalf("%s: stderr never closed after exit", who)
		}
	}
}

// TestShardSmoke drives a real coordinator over three real worker
// processes through the scripted round-trip `make shard-smoke` runs in
// CI: upload → detect → save → repair, then kill one owner worker and
// assert the save path still answers (failover, degraded placement in
// /varz, labeled per-shard stats in /metrics), then kill the last owner
// and assert the honest 503, then drain everything on SIGTERM.
func TestShardSmoke(t *testing.T) {
	discserve := buildTool(t, "discserve")

	workers := []*smokeProc{
		startSmokeProc(t, discserve, "-addr", "127.0.0.1:0", "-log-level", "warn"),
		startSmokeProc(t, discserve, "-addr", "127.0.0.1:0", "-log-level", "warn"),
		startSmokeProc(t, discserve, "-addr", "127.0.0.1:0", "-log-level", "warn"),
	}
	byURL := map[string]*smokeProc{}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.base
		byURL[w.base] = w
	}
	coord := startSmokeProc(t, discserve,
		"-coordinator",
		"-workers", strings.Join(urls, ","),
		"-replicas", "2",
		"-addr", "127.0.0.1:0",
		"-log-level", "warn",
	)

	client := &http.Client{Timeout: 30 * time.Second}
	postJSON := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(coord.base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := client.Get(coord.base + path)
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

	// Upload through the coordinator: the body fans out to both owners.
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
		"name": "shard-smoke", "csv": csvBuf.String(), "eps": 1.0, "eta": 3, "kappa": 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
	}
	var session struct {
		ID     string `json:"id"`
		Tuples int    `json:"tuples"`
		Owners []struct {
			Worker string `json:"worker"`
		} `json:"owners"`
	}
	if err := json.Unmarshal(body, &session); err != nil {
		t.Fatalf("decode session: %v\n%s", err, body)
	}
	if session.ID == "" || session.Tuples != rel.N() || len(session.Owners) != 2 {
		t.Fatalf("session = %s, want an id, %d tuples and 2 owners", body, rel.N())
	}
	sessPath := "/v1/datasets/" + session.ID

	// Detect: one inlier, one outlier, scattered across the owners.
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
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.Results) != 2 || det.Results[0].Outlier || !det.Results[1].Outlier || det.Partial {
		t.Fatalf("detect results = %s", body)
	}

	// Save one outlier through the proxy.
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

	// Batch repair, fault-free baseline.
	repairBody := map[string]any{"tuples": [][]float64{{20, -3}, {0.8, 0.8}}}
	resp, body = postJSON(sessPath+"/repair", repairBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: status %d, body %s", resp.StatusCode, body)
	}
	var rep struct {
		Saved   int  `json:"saved"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Saved != 2 || rep.Partial {
		t.Fatalf("repair = %s, want 2 saved, not partial", body)
	}

	// Kill the placement's first owner (SIGKILL: a crash, not a drain).
	dead := byURL[session.Owners[0].Worker]
	if dead == nil {
		t.Fatalf("owner %q is not one of the started workers", session.Owners[0].Worker)
	}
	if err := dead.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-dead.waitErr

	// The save path still answers through the surviving replica.
	resp, body = postJSON(sessPath+"/save", map[string]any{"tuple": []float64{26, 25}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save after killed worker: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &adj); err != nil {
		t.Fatal(err)
	}
	if !adj.Saved {
		t.Fatalf("save after killed worker did not save: %s", body)
	}
	resp, body = postJSON(sessPath+"/repair", repairBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair after killed worker: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Saved != 2 {
		t.Fatalf("repair after killed worker saved %d, want 2: %s", rep.Saved, body)
	}

	// /varz: the failover is counted, the placement is degraded, and the
	// merged per-shard stats carry real work.
	var varz struct {
		Coord struct {
			Failovers    int64 `json:"failovers"`
			WorkerErrors int64 `json:"worker_errors"`
		} `json:"coord"`
		Placements []struct {
			ID     string `json:"id"`
			Owners []struct {
				Worker string `json:"worker"`
				Live   bool   `json:"live"`
			} `json:"owners"`
			Stats struct {
				Nodes     int64 `json:"nodes"`
				DistEvals int64 `json:"dist_evals"`
			} `json:"stats"`
			Degraded bool `json:"degraded"`
		} `json:"placements"`
	}
	getJSON("/varz", &varz)
	if varz.Coord.Failovers == 0 || varz.Coord.WorkerErrors == 0 {
		t.Errorf("varz coord = %+v, want failovers and worker errors after the kill", varz.Coord)
	}
	if len(varz.Placements) != 1 || !varz.Placements[0].Degraded {
		t.Fatalf("varz placements = %+v, want one degraded placement", varz.Placements)
	}
	if varz.Placements[0].Stats.Nodes == 0 || varz.Placements[0].Stats.DistEvals == 0 {
		t.Errorf("varz merged placement stats = %+v, want nonzero nodes and dist evals",
			varz.Placements[0].Stats)
	}
	live := 0
	for _, o := range varz.Placements[0].Owners {
		if o.Live {
			live++
		}
	}
	if live != 1 {
		t.Errorf("varz live owners = %d, want 1 after the kill", live)
	}

	// /metrics: valid exposition text with the coordinator families and
	// the per-shard labeled search counters.
	mresp, err := client.Get(coord.base + "/metrics")
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
	if f := fams["disc_coord_failovers_total"]; f == nil || f.Type != "counter" {
		t.Error("/metrics missing disc_coord_failovers_total")
	}
	if f := fams["disc_coord_worker_client_requests_total"]; f == nil {
		t.Error("/metrics missing the per-worker client counters")
	} else if len(f.Samples) != 3 {
		t.Errorf("per-worker client requests have %d series, want 3", len(f.Samples))
	}
	if f := fams["disc_coord_shard_search_nodes_total"]; f == nil || len(f.Samples) == 0 {
		t.Error("/metrics missing the per-shard labeled search counters")
	} else {
		for _, smp := range f.Samples {
			if smp.Labels["session"] != session.ID || smp.Labels["worker"] == "" {
				t.Errorf("per-shard series labels = %v, want session and worker", smp.Labels)
			}
		}
	}

	// Kill the second owner too: every owner of the placement is gone, so
	// the coordinator answers an honest 503 — even though a third, healthy
	// worker is still up (it holds no replica).
	dead2 := byURL[session.Owners[1].Worker]
	if err := dead2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-dead2.waitErr
	resp, body = postJSON(sessPath+"/save", map[string]any{"tuple": []float64{27, 25}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("save with all owners dead: status %d, want 503; body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(sessPath+"/repair", repairBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("repair with all owners dead: status %d, want 503; body %s", resp.StatusCode, body)
	}

	// Drain the coordinator and the surviving worker on SIGTERM.
	coord.drain(t, "coordinator")
	for _, w := range workers {
		if w != dead && w != dead2 {
			w.drain(t, "worker")
		}
	}
}
