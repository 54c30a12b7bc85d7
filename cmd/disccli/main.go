// Command disccli detects and saves outliers in a CSV file with the DISC
// algorithm, writing the adjusted CSV to stdout or -out.
//
// The CSV header may type columns as "name:numeric" or "name:text";
// untyped columns are inferred. With -eps/-eta omitted, the distance
// constraints are determined automatically from the Poisson model of
// ε-neighbor appearance (§2.1.2 of the paper).
//
// Saving an outlier is NP-hard, so the run can be bounded: -timeout caps
// the whole run, -max-nodes caps the search nodes per outlier. When a
// budget trips — or the run is interrupted with SIGINT — the pipeline
// degrades instead of aborting: outliers already saved keep their
// adjustments, budget-tripped saves keep their best-so-far answer (marked
// "exhausted" in the -report), skipped outliers are reported, the partial
// repair is still written, and the exit status is nonzero.
//
// The run can be observed while it happens: -progress prints rate-limited
// progress snapshots to stderr, -log-level enables structured slog output
// for the pipeline phases and degradation events, and -stats-json dumps the
// merged search counters and phase timings (see docs/OBSERVABILITY.md for
// the counter semantics).
//
// Usage:
//
//	disccli -in data.csv -out repaired.csv [-eps 3 -eta 18] [-kappa 2]
//	        [-timeout 30s] [-deadline 200ms] [-max-nodes 100000] [-workers 8]
//	        [-report] [-progress] [-stats-json -] [-log-level info]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	disc "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

func main() {
	var (
		in           = flag.String("in", "", "input CSV file (required)")
		out          = flag.String("out", "", "output CSV file (default stdout)")
		eps          = flag.Float64("eps", 0, "distance threshold ε (0 = determine automatically)")
		eta          = flag.Int("eta", 0, "neighbor threshold η (0 = determine automatically)")
		kappa        = flag.Int("kappa", 2, "max adjusted attributes per outlier (≤0 = unrestricted)")
		seed         = flag.Int64("seed", 1, "seed for sampling during parameter determination")
		report       = flag.Bool("report", false, "print a per-outlier adjustment report to stderr")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry the partial repair is written")
		deadline     = flag.Duration("deadline", 0, "wall-clock budget per outlier (0 = none); tripped saves keep their best-so-far adjustment")
		maxNodes     = flag.Int("max-nodes", 0, "search-node budget per outlier (0 = unlimited); tripped saves keep their best-so-far adjustment")
		workers      = flag.Int("workers", 0, "parallel saves (0 = GOMAXPROCS)")
		progress     = flag.Bool("progress", false, "print rate-limited progress snapshots to stderr while saving")
		statsJSON    = flag.String("stats-json", "", "write search counters and phase timings as JSON to this file (\"-\" = stderr)")
		trace        = flag.Bool("trace", false, "print a per-phase span timeline of the run to stderr (local runs)")
		logLevel     = flag.String("log-level", "", "emit structured pipeline logs to stderr at this level (debug|info|warn|error)")
		remote       = flag.String("remote", "", "run the pipeline against a discserve instance at this base URL (e.g. http://127.0.0.1:8080); if the server is unreachable the run falls back to local execution")
		remoteCommit = flag.Bool("remote-commit", false, "with -remote: write the repaired tuples back into the server session (PUT per saved row, keyed by upload row order) and keep the session alive instead of deleting it")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "disccli: -in is required")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context instead of killing the process:
	// the save degrades to its partial result, which is flushed below. A
	// second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	raw, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	rel, err := disc.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	if err := disc.ValidateValues(rel); err != nil {
		fatal(err)
	}

	if *remote != "" {
		cstats := &obs.ClientStats{}
		cl := client.New(client.Config{BaseURL: *remote, Stats: cstats,
			// Print each minted request id so a failed remote run can be
			// joined against the server's request log by grep.
			OnRequest: func(id, method, path string) {
				fmt.Fprintf(os.Stderr, "disccli: request %s %s %s\n", id, method, path)
			},
		})
		p := serve.BuildParams{Eps: *eps, Eta: *eta, Kappa: *kappa, MaxNodes: *maxNodes, Seed: *seed}
		repaired, rerr := runRemote(ctx, cl, filepath.Base(*in), string(raw), rel, p, *timeout, *report, *remoteCommit)
		switch {
		case rerr == nil:
			if *out == "" {
				if err := disc.WriteCSV(os.Stdout, repaired); err != nil {
					fatal(err)
				}
			} else if err := writeFile(*out, repaired); err != nil {
				fatal(err)
			}
			return
		case errors.Is(rerr, client.ErrUnavailable):
			// The server is unreachable, not wrong: the same pipeline runs
			// locally instead, so a flaky serving tier degrades the run's
			// latency, never its outcome.
			cstats.Fallbacks.Add(1)
			snap := cstats.Snapshot()
			fmt.Fprintf(os.Stderr, "disccli: remote unavailable after %d request(s), %d retr(ies): %v\n",
				snap.Requests, snap.Retries, rerr)
			fmt.Fprintln(os.Stderr, "disccli: falling back to local execution")
		default:
			fatal(rerr)
		}
	}

	cons := disc.Constraints{Eps: *eps, Eta: *eta}
	if cons.Eps <= 0 || cons.Eta < 1 {
		choice, err := disc.DetermineParamsContext(ctx, rel, disc.ParamOptions{Seed: *seed})
		if err != nil {
			fatal(fmt.Errorf("parameter determination failed: %w (pass -eps and -eta)", err))
		}
		if cons.Eps <= 0 {
			cons.Eps = choice.Eps
		}
		if cons.Eta < 1 {
			cons.Eta = choice.Eta
		}
		note := ""
		if choice.Exhausted {
			note = " (interrupted: best of the candidates measured so far)"
		}
		fmt.Fprintf(os.Stderr, "disccli: determined ε=%.4g η=%d (λ=%.1f, violation rate %.3f)%s\n",
			choice.Eps, choice.Eta, choice.Lambda, choice.OutlierRate, note)
	}

	opts := disc.Options{
		Kappa:    *kappa,
		MaxNodes: *maxNodes,
		Deadline: *deadline,
		Workers:  *workers,
	}
	if *progress {
		opts.Progress = func(p disc.Progress) {
			line := fmt.Sprintf("disccli: saving %d/%d (saved %d, natural %d", p.Done, p.Total, p.Saved, p.Natural)
			if p.Exhausted > 0 {
				line += fmt.Sprintf(", exhausted %d", p.Exhausted)
			}
			if p.Failed > 0 {
				line += fmt.Sprintf(", failed %d", p.Failed)
			}
			line += ")"
			if p.ETA > 0 && p.Done < p.Total {
				line += fmt.Sprintf(" eta %s", p.ETA.Round(100*time.Millisecond))
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
		}
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	res, err := disc.SaveContext(ctx, rel, cons, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "disccli: %d tuples, %d outliers, %d saved, %d left as natural",
		rel.N(), len(res.Detection.Outliers), res.Saved, res.Natural)
	if res.Exhausted > 0 {
		fmt.Fprintf(os.Stderr, ", %d exhausted a budget", res.Exhausted)
	}
	if res.Failed() > 0 {
		fmt.Fprintf(os.Stderr, ", %d not processed", res.Failed())
	}
	fmt.Fprintln(os.Stderr)
	if *report {
		failed := make(map[int]error, len(res.Errs))
		for _, se := range res.Errs {
			failed[se.Index] = se.Err
		}
		for _, adj := range res.Adjustments {
			switch {
			case failed[adj.Index] != nil:
				fmt.Fprintf(os.Stderr, "  row %d: not processed: %v\n", adj.Index+1, failed[adj.Index])
			case adj.Saved() && adj.Exhausted:
				fmt.Fprintf(os.Stderr, "  row %d: adjusted attributes %v, cost %.4g (exhausted: best-so-far)\n",
					adj.Index+1, adj.Adjusted.Attrs(rel.Schema.M()), adj.Cost)
			case adj.Saved():
				fmt.Fprintf(os.Stderr, "  row %d: adjusted attributes %v, cost %.4g\n",
					adj.Index+1, adj.Adjusted.Attrs(rel.Schema.M()), adj.Cost)
			case adj.Natural:
				fmt.Fprintf(os.Stderr, "  row %d: natural outlier, left unchanged\n", adj.Index+1)
			default:
				fmt.Fprintf(os.Stderr, "  row %d: no adjustment found before the budget tripped\n", adj.Index+1)
			}
		}
		fmt.Fprintf(os.Stderr, "disccli: report: %d saved, %d natural, %d exhausted, %d not processed\n",
			res.Saved, res.Natural, res.Exhausted, res.Failed())
	}
	if *statsJSON != "" {
		if err := writeStats(*statsJSON, *in, rel, cons, *kappa, res); err != nil {
			fatal(err)
		}
	}
	if *trace {
		writeTrace(os.Stderr, res.Timings)
	}

	if *out == "" {
		if err := disc.WriteCSV(os.Stdout, res.Repaired); err != nil {
			fatal(err)
		}
	} else if err := writeFile(*out, res.Repaired); err != nil {
		fatal(err)
	}

	if ctx.Err() != nil || res.Failed() > 0 {
		fmt.Fprintln(os.Stderr, "disccli: run interrupted; the written repair is partial")
		os.Exit(1)
	}
}

// writeFile writes the repaired relation to path, removing the partial
// file when the write fails midway — a truncated CSV silently dropping
// tuples is worse for downstream consumers than no file at all.
func writeFile(path string, rel *disc.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := disc.WriteCSV(f, rel)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		return fmt.Errorf("writing %s: %w (partial file removed)", path, werr)
	}
	return nil
}

// writeTrace renders the pipeline's phase timings as the same span timeline
// the server logs for slow requests, so a local run and a served run read
// alike. Phases run sequentially, so each span starts where the previous
// ended; detect_index_build nests inside detect at its start.
func writeTrace(w *os.File, t disc.PhaseTimings) {
	tr := obs.NewTrace("local")
	off := time.Duration(0)
	add := func(name string, d time.Duration) {
		tr.AddSpan(name, off, d)
		off += d
	}
	add("validate", t.Validate)
	tr.AddSpan("detect_index_build", off, t.DetectIndexBuild)
	add("detect", t.Detect)
	add("index_build", t.IndexBuild)
	add("eta_radius", t.EtaRadius)
	add("save", t.Save)
	tr.WriteTimeline(w)
}

// writeStats dumps the run's observability record — the merged Algorithm 1
// search counters and the per-phase wall times — as one JSON document.
// path "-" selects stderr (stdout may be carrying the repaired CSV).
func writeStats(path, input string, rel *disc.Relation, cons disc.Constraints, kappa int, res *disc.SaveResult) error {
	doc := struct {
		Input     string            `json:"input"`
		Tuples    int               `json:"tuples"`
		Attrs     int               `json:"attrs"`
		Eps       float64           `json:"eps"`
		Eta       int               `json:"eta"`
		Kappa     int               `json:"kappa"`
		Outliers  int               `json:"outliers"`
		Saved     int               `json:"saved"`
		Natural   int               `json:"natural"`
		Exhausted int               `json:"exhausted"`
		Failed    int               `json:"failed"`
		Stats     disc.SearchStats  `json:"stats"`
		Timings   disc.PhaseTimings `json:"timings"`
	}{
		Input: input, Tuples: rel.N(), Attrs: rel.Schema.M(),
		Eps: cons.Eps, Eta: cons.Eta, Kappa: kappa,
		Outliers: len(res.Detection.Outliers),
		Saved:    res.Saved, Natural: res.Natural,
		Exhausted: res.Exhausted, Failed: res.Failed(),
		Stats: res.Stats, Timings: res.Timings,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stderr.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disccli:", err)
	os.Exit(1)
}
