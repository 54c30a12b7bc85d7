package main

import (
	"context"
	"fmt"
	"os"
	"time"

	disc "repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// runRemote executes the detect-and-repair pipeline against a discserve
// instance instead of locally: upload the CSV as a session, screen every
// row against the server's cached index (member mode, so each row's stored
// copy does not count itself as a neighbor), repair the outliers, and
// splice the adjusted tuples back into the relation. The session is deleted
// best-effort afterwards — the CLI is one-shot.
//
// Failures the client classifies as the server being unreachable surface as
// client.ErrUnavailable, which the caller treats as "fall back to a local
// run"; anything else (the server refusing the dataset, a tuple the schema
// rejects) is definitive and aborts.
// With commit, each saved adjustment is also written back into the server
// session (PUT /tuples/{row}, keyed by upload row order — an uploaded CSV's
// logical handles are exactly its row indices) and the session is kept
// alive for follow-up queries instead of being deleted.
func runRemote(ctx context.Context, cl *client.Client, name, csvText string, rel *disc.Relation, p serve.BuildParams, timeout time.Duration, report, commit bool) (*disc.Relation, error) {
	info, err := cl.CreateDatasetCSV(ctx, name, csvText, p)
	if err != nil {
		return nil, err
	}
	defer func() {
		if commit {
			return // the repaired session outlives the CLI
		}
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cl.Delete(dctx, info.ID)
	}()
	fmt.Fprintf(os.Stderr, "disccli: remote session %s (ε=%.4g η=%d, %d inliers, %d outliers)\n",
		info.ID, info.Eps, info.Eta, info.Inliers, info.Outliers)

	tuples := make([][]any, rel.N())
	for i, t := range rel.Tuples {
		tuples[i] = serve.TupleJSON(rel.Schema, t)
	}
	det, err := cl.Detect(ctx, info.ID, tuples, true)
	if err != nil {
		return nil, err
	}
	if len(det.Results) != rel.N() {
		return nil, fmt.Errorf("disccli: server screened %d tuples, sent %d", len(det.Results), rel.N())
	}
	var outIdx []int
	for i, res := range det.Results {
		if res.Outlier {
			outIdx = append(outIdx, i)
		}
	}

	repaired := disc.NewRelation(rel.Schema)
	for _, t := range rel.Tuples {
		repaired.Append(t)
	}
	saved, natural, exhausted := 0, 0, 0
	if len(outIdx) > 0 {
		outTuples := make([][]any, len(outIdx))
		for i, idx := range outIdx {
			outTuples[i] = tuples[idx]
		}
		rep, err := cl.Repair(ctx, info.ID, outTuples, int(timeout/time.Millisecond))
		if err != nil {
			return nil, err
		}
		if len(rep.Adjustments) != len(outIdx) {
			return nil, fmt.Errorf("disccli: server repaired %d tuples, sent %d", len(rep.Adjustments), len(outIdx))
		}
		saved, natural, exhausted = rep.Saved, rep.Natural, rep.Exhausted
		for i, adj := range rep.Adjustments {
			row := outIdx[i]
			if adj.Saved && adj.Tuple != nil {
				t, err := serve.ParseTuple(rel.Schema, adj.Tuple)
				if err != nil {
					return nil, fmt.Errorf("disccli: row %d: server returned a bad tuple: %w", row+1, err)
				}
				repaired.Tuples[row] = t
			}
			if report {
				switch {
				case adj.Saved && adj.Exhausted:
					fmt.Fprintf(os.Stderr, "  row %d: adjusted attributes %v, cost %.4g (exhausted: best-so-far)\n",
						row+1, adj.Adjusted, adj.Cost)
				case adj.Saved:
					fmt.Fprintf(os.Stderr, "  row %d: adjusted attributes %v, cost %.4g\n",
						row+1, adj.Adjusted, adj.Cost)
				case adj.Natural:
					fmt.Fprintf(os.Stderr, "  row %d: natural outlier, left unchanged\n", row+1)
				default:
					fmt.Fprintf(os.Stderr, "  row %d: no adjustment found before the budget tripped\n", row+1)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "disccli: remote: %d tuples, %d outliers, %d saved, %d left as natural",
		rel.N(), len(outIdx), saved, natural)
	if exhausted > 0 {
		fmt.Fprintf(os.Stderr, ", %d exhausted a budget", exhausted)
	}
	fmt.Fprintln(os.Stderr)
	if commit {
		committed := 0
		for _, row := range outIdx {
			if sameTuple(rel.Schema, repaired.Tuples[row], rel.Tuples[row]) {
				continue // natural or unsaved: nothing to write back
			}
			if _, err := cl.UpdateTuple(ctx, info.ID, row, serve.TupleJSON(rel.Schema, repaired.Tuples[row]), int(timeout/time.Millisecond)); err != nil {
				return nil, fmt.Errorf("disccli: committing row %d: %w", row+1, err)
			}
			committed++
		}
		fmt.Fprintf(os.Stderr, "disccli: remote: committed %d repaired tuple(s) back to session %s\n",
			committed, info.ID)
	}
	return repaired, nil
}

// sameTuple reports value equality under the schema's attribute kinds.
func sameTuple(sch *disc.Schema, a, b disc.Tuple) bool {
	for i := range a {
		if !a[i].Equal(b[i], sch.Attrs[i].Kind) {
			return false
		}
	}
	return true
}
