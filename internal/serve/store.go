package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	disc "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Store is the registry's durable side: one snapshot file per session under
// the data directory, written after a session builds and read back on
// startup so a restart serves warm without re-running relation parse or
// detection. Snapshots that fail validation are moved — never deleted — to a
// quarantine subdirectory for postmortems, and the session is rebuilt from
// its source path when the snapshot's hint still identifies one.
type Store struct {
	dir        string
	quarantine string
	log        *slog.Logger
	stats      obs.StoreStats
}

// quarantineDir is where corrupt snapshots are preserved.
const quarantineDir = "quarantine"

// newStore prepares the data directory (and its quarantine subdirectory).
func newStore(dir string, log *slog.Logger) (*Store, error) {
	q := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(q, 0o755); err != nil {
		return nil, fmt.Errorf("serve: preparing data dir %s: %w", dir, err)
	}
	return &Store{dir: dir, quarantine: q, log: obs.Logger(log)}, nil
}

// path returns the snapshot file for a session id.
func (st *Store) path(id string) string {
	return filepath.Join(st.dir, id+snapshot.Ext)
}

// persist writes the session's snapshot. ErrUnsupported (a custom text
// metric that cannot be named in the file) is returned so the caller can
// stop retrying; any other failure leaves the previous snapshot, if any,
// intact and is worth retrying at drain time.
func (st *Store) persist(s *Session) error {
	// snapshotView densifies tombstoned rows: the file holds only live
	// tuples in logical order, so logical handles do not survive a restart
	// after deletes.
	rel, counts := s.snapshotView()
	snap := &snapshot.Snapshot{
		ID: s.ID, Name: s.Name, SourcePath: s.Source,
		Params: snapshot.Params(s.Params),
		Eps:    s.Cons.Eps, Eta: s.Cons.Eta,
		Rel: rel, Counts: counts,
		CreatedAt: s.Created,
	}
	t0 := time.Now()
	err := snapshot.Write(st.path(s.ID), snap)
	// Write latency is recorded for failures too: a disk going slow before
	// it goes bad is exactly what this histogram is for.
	st.stats.SnapshotWriteNS.ObserveSince(t0)
	if err != nil {
		st.stats.SnapshotWriteErrors.Add(1)
		return err
	}
	st.stats.SnapshotWrites.Add(1)
	return nil
}

// remove deletes the session's snapshot (explicit delete, eviction, or TTL
// expiry — the disk mirrors the registry, so a restart does not resurrect
// sessions the server decided to drop).
func (st *Store) remove(id string) {
	if err := os.Remove(st.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		st.log.Warn("serve: removing snapshot", "id", id, "err", err)
	}
}

// quarantineFile moves a rejected snapshot aside, preserving its bytes.
func (st *Store) quarantineFile(path string, reason error) {
	st.stats.SnapshotCorrupt.Add(1)
	dst := filepath.Join(st.quarantine, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		st.log.Warn("serve: quarantining snapshot", "path", path, "err", err)
		return
	}
	st.log.Warn("serve: snapshot quarantined", "path", path, "to", dst, "reason", reason)
}

// Stats snapshots the store counters for /varz.
func (st *Store) Stats() obs.StoreSnapshot { return st.stats.Snapshot() }

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

// persist writes the session's snapshot when a store is configured. A
// failed write leaves the session dirty so the SIGTERM drain retries it; an
// unserializable schema (custom text metric) marks the session permanently
// memory-only instead. The write is recorded as a span on ctx's trace when
// the persisting request carries one.
func (r *Registry) persist(ctx context.Context, s *Session) {
	if r.store == nil {
		return
	}
	s.mu.Lock()
	skip := s.persisted || s.unsnapshottable
	s.mu.Unlock()
	if skip {
		return
	}
	t0 := time.Now()
	err := r.store.persist(s)
	obs.TraceFrom(ctx).Span("snapshot_write", t0)
	s.mu.Lock()
	switch {
	case err == nil:
		s.persisted = true
	case errors.Is(err, snapshot.ErrUnsupported):
		s.unsnapshottable = true
	}
	s.mu.Unlock()
	switch {
	case err == nil:
	case errors.Is(err, snapshot.ErrUnsupported):
		r.log.Info("serve: session not snapshottable", "id", s.ID, "err", err)
	default:
		r.log.Warn("serve: persisting session", "id", s.ID, "err", err)
	}
}

// Recover replays the data directory into the registry: leftover temp files
// from torn writes are removed, then each snapshot is read, verified and
// rehydrated — relation parse and detection skipped, only the in-memory
// indexes rebuilt. A corrupt or version-mismatched snapshot is quarantined
// and, when its hint still names a readable source path, the session is
// rebuilt from source under its original id and parameters; otherwise it is
// logged and skipped. Recovery never fails the startup for one bad
// snapshot — the error return is reserved for the data directory itself
// being unreadable.
func (r *Registry) Recover(ctx context.Context) error {
	if r.store == nil {
		return nil
	}
	st := r.store
	if n, err := snapshot.CleanTemp(st.dir); err != nil {
		return fmt.Errorf("serve: cleaning data dir: %w", err)
	} else if n > 0 {
		r.log.Info("serve: removed torn snapshot writes", "count", n)
	}
	paths, err := snapshot.List(st.dir)
	if err != nil {
		return fmt.Errorf("serve: listing snapshots: %w", err)
	}
	for _, path := range paths {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap, hint, err := snapshot.Read(path)
		if err == nil {
			st.stats.SnapshotLoads.Add(1)
			s, rerr := r.rehydrate(ctx, snap)
			if rerr == nil {
				s.persisted = true // its snapshot is the file just read
				if _, rerr = r.register(ctx, s); rerr == nil {
					st.stats.RecoveredSessions.Add(1)
					continue
				}
			}
			// Rehydration can fail even on a valid snapshot (injected index
			// fault, cancelled context); fall back to a full rebuild below.
			r.log.Warn("serve: rehydration failed, rebuilding", "path", path, "err", rerr)
			hint = snap.Hint()
		} else if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) {
			st.quarantineFile(path, err)
		} else {
			// IO-level failure: the file may be fine, leave it for the next
			// restart.
			r.log.Warn("serve: reading snapshot", "path", path, "err", err)
			continue
		}
		r.rebuildFromHint(ctx, hint)
	}
	return nil
}

// rebuildFromHint runs the full build pipeline for a session whose snapshot
// was unusable but whose hint survived and names a source path. Uploads
// (no source path) cannot be rebuilt — their data existed only in the
// payload — so they are logged as lost.
func (r *Registry) rebuildFromHint(ctx context.Context, hint *snapshot.Hint) {
	if hint == nil || hint.SourcePath == "" {
		if hint != nil {
			r.log.Warn("serve: upload session lost with its snapshot", "id", hint.ID, "name", hint.Name)
		}
		return
	}
	s, err := r.buildFromPath(ctx, hint.ID, hint.SourcePath, buildParams(hint.Params))
	if err != nil {
		r.log.Warn("serve: rebuilding session from source", "id", hint.ID,
			"path", hint.SourcePath, "err", err)
		return
	}
	if _, err := r.register(ctx, s); err != nil {
		return
	}
	r.store.stats.RebuiltSessions.Add(1)
	r.log.Info("serve: session rebuilt from source", "id", s.ID, "path", hint.SourcePath)
}

// buildParams converts persisted build parameters, the one place a
// snapshot's params enter the serving layer. Snapshots name their index
// kind; "kd" named an index kind this program no longer has, and such a
// session recovers under the automatic choice instead.
func buildParams(p snapshot.Params) BuildParams {
	if p.Index == "kd" {
		p.Index = "auto"
	}
	return BuildParams(p)
}

// rehydrate reconstructs a warm session from a verified snapshot: the
// detection split is re-derived from the persisted neighbor counts (no
// counting pass), and only the in-memory structures — the full-relation
// index and the saver's inlier index, η-radius table and arena pool — are
// rebuilt. Timings.Detect stays zero: that, with Recovered, is how a warm
// restart proves it skipped detection.
func (r *Registry) rehydrate(ctx context.Context, snap *snapshot.Snapshot) (*Session, error) {
	if err := fault.Inject(fault.IndexBuild); err != nil {
		return nil, fmt.Errorf("serve: rebuilding indexes for %q: %w", snap.ID, err)
	}
	start := time.Now()
	p := buildParams(snap.Params)
	kind, err := disc.ParseIndexKind(p.Index)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %q: %w", snap.ID, err)
	}
	s := &Session{
		ID: snap.ID, Name: snap.Name, Source: snap.SourcePath,
		Params: p,
		Cons:   disc.Constraints{Eps: snap.Eps, Eta: snap.Eta}, Kappa: p.Kappa,
		Created: snap.CreatedAt, Bytes: estimateBytes(snap.Rel),
		Recovered: true,
	}
	det := disc.RehydrateDetection(snap.Counts, snap.Eta)
	timings, setup, err := s.warmUp(ctx, snap.Rel, det, kind, r.cfg.Logger)
	if err != nil {
		return nil, fmt.Errorf("serve: recovering %q: %w", snap.ID, err)
	}
	s.lastUsed = time.Now()
	s.stats.Add(&setup)
	s.Timings = timings
	s.Timings.Total = time.Since(start)
	s.gate = newGate(s, r.cfg)
	r.log.Info("serve: session recovered", "id", s.ID, "name", s.Name,
		"tuples", s.Rel.N(), "inliers", s.inliers, "outliers", s.outliers,
		"rebuild", s.Timings.Total)
	return s, nil
}
