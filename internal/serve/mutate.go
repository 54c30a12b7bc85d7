package serve

import (
	"context"
	"errors"
	"fmt"

	disc "repro"
)

// errNoSuchRow marks a mutation addressing a logical row that does not
// exist or was already deleted; the handlers map it to 404.
var errNoSuchRow = errors.New("serve: no such row")

// compactMinDead is the tombstone floor below which a session never
// compacts; above it, compaction triggers once dead rows outnumber live
// ones (so the full rebuild is amortized against at least as many O(ball)
// mutations). A var so tests can force compaction on small datasets.
var compactMinDead = 256

// mutation is one admitted tuple mutation. It passes the same admission
// gate as saves; the state lock orders it against detect and save work.
type mutation struct {
	op    string // "insert" | "update" | "delete"
	index int    // logical row for update/delete
	tuple disc.Tuple
}

// MutateResponse is the answer to a tuple mutation: the affected logical
// row handle, the live totals after the mutation, and the incremental
// maintenance it did.
type MutateResponse struct {
	Op string `json:"op"`
	// Index is the affected logical row: the new row's handle for
	// insert, the addressed row for update/delete. Handles are stable
	// across every mutation (deletes leave holes, updates keep the
	// handle), but not across a server restart after deletes — the
	// snapshot stores the live rows reindexed densely.
	Index int `json:"index"`
	// Tuples/Inliers/Outliers are the live totals after the mutation.
	Tuples   int `json:"tuples"`
	Inliers  int `json:"inliers"`
	Outliers int `json:"outliers"`
	// Flipped counts existing tuples whose inlier/outlier status crossed
	// η; Touched counts the tuples whose neighbor counts were
	// re-examined (the ε-balls of the old and new values).
	Flipped int `json:"flipped"`
	Touched int `json:"touched"`
	// Neighbors and Outlier describe the inserted/updated tuple itself
	// (absent for delete).
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// initMutableState derives the logical row mapping, the full→saver row
// mapping and the live split counts from a freshly built (or compacted)
// session. Counts and mappings are physical-row-indexed.
func (s *Session) initMutableState() {
	n := s.Rel.N()
	s.logical = make([]int, n)
	s.fullToSaver = make([]int, n)
	for i := range s.logical {
		s.logical[i] = i
		s.fullToSaver[i] = -1
	}
	for si, fi := range s.Det.Inliers {
		s.fullToSaver[fi] = si
	}
	s.inliers = len(s.Det.Inliers)
	s.outliers = len(s.Det.Outliers)
}

// applyHook, when non-nil, runs inside applyMutation while it holds the
// state lock, before the mutation changes anything; changeHook runs right
// after the mutation's first structural change (the index insert or
// tombstone). Tests use them to panic mid-apply.
var (
	applyHook  func(op string)
	changeHook func()
)

// applyMutation runs one mutation under the session's exclusive state
// lock (see mutateLocked), then settles the byte ledger, counts the
// mutation and marks the snapshot dirty. A panic in the middle of the
// mutation is rolled back (see rollbackLocked) before it reaches the
// gate, which answers it 504: a 504 mutation was not applied.
func (s *Session) applyMutation(m *mutation) (resp MutateResponse, err error) {
	var bytesDelta int64
	s.writeState(func() {
		// A mutation changes the logical row map in place only at
		// m.index; insert appends past len(logical), and a compaction
		// installs a new map. So the header and one slot restore it.
		rel, logical, prev := s.Rel, s.logical, -1
		if m.index >= 0 && m.index < len(logical) {
			prev = logical[m.index]
		}
		defer func() {
			if rec := recover(); rec != nil {
				if prev >= 0 {
					logical[m.index] = prev
				}
				s.rollbackLocked(rel, logical)
				panic(rec)
			}
		}()
		resp, bytesDelta, err = s.mutateLocked(m)
	})
	if err != nil {
		return resp, err
	}

	// Ledger and dirty marks, after the state lock drops (lock order:
	// stateMu → registry.mu → session.mu; noteBytes is safe either way
	// but the mutation is already visible, so don't hold readers off).
	if s.reg != nil && bytesDelta != 0 {
		s.reg.noteBytes(s, bytesDelta)
	}
	s.mu.Lock()
	switch m.op {
	case "insert":
		s.mstats.inserted++
	case "update":
		s.mstats.updated++
	case "delete":
		s.mstats.deleted++
	}
	s.mstats.redetectTouched += int64(resp.Touched)
	// A mutation only marks the snapshot dirty; it is rewritten at the
	// SIGTERM drain, so a crash before then loses the mutation.
	s.persisted = false
	s.mu.Unlock()
	return resp, nil
}

// mutateLocked applies m with the state lock held: update the
// relation/kernel/indexes incrementally, re-examine only the tuples whose
// ε-neighborhoods the mutation touched, sync the saver's inlier set and
// η-radii, and publish the new shape. Returns the answer and the byte
// ledger's delta.
func (s *Session) mutateLocked(m *mutation) (resp MutateResponse, bytesDelta int64, err error) {
	if applyHook != nil {
		applyHook(m.op)
	}
	resp = MutateResponse{Op: m.op, Index: m.index}
	var changed []disc.Tuple // where inlier membership changed
	var flips []int
	touched := 0

	switch m.op {
	case "insert":
		phys, nbr, f := s.insertRowLocked(m.tuple)
		s.logical = append(s.logical, phys)
		resp.Index = len(s.logical) - 1
		resp.Neighbors, resp.Outlier = nbr, s.Det.Counts[phys] < s.Cons.Eta
		flips = f
		touched = nbr + 1
		bytesDelta = tupleBytes(m.tuple)
		changed = append(changed, m.tuple)

	case "delete":
		phys, err := s.resolveRowLocked(m.index)
		if err != nil {
			return resp, 0, err
		}
		old, ball, f := s.deleteRowLocked(phys)
		s.logical[m.index] = -1
		flips = f
		touched = ball + 1
		bytesDelta = -tupleBytes(old)
		changed = append(changed, old)

	case "update":
		phys, err := s.resolveRowLocked(m.index)
		if err != nil {
			return resp, 0, err
		}
		old, ball, f1 := s.deleteRowLocked(phys)
		newPhys, nbr, f2 := s.insertRowLocked(m.tuple)
		s.logical[m.index] = newPhys
		resp.Neighbors, resp.Outlier = nbr, s.Det.Counts[newPhys] < s.Cons.Eta
		flips = append(f1, f2...)
		touched = ball + nbr + 2
		bytesDelta = tupleBytes(m.tuple) - tupleBytes(old)
		changed = append(changed, old, m.tuple)

	default:
		return resp, 0, fmt.Errorf("serve: unknown mutation op %q", m.op)
	}

	// Saver η-radius maintenance: every location where inlier membership
	// changed (the mutated values and each flipped tuple) bounds the rows
	// whose radii can have moved; the saver recomputes those it had
	// cached, so save results stay rebuild-exact.
	for _, i := range flips {
		changed = append(changed, s.Rel.Tuples[i])
	}
	touched += s.Saver.InvalidateRadii(changed...)
	resp.Flipped, resp.Touched = len(flips), touched
	resp.Tuples, resp.Inliers, resp.Outliers = s.relMut.Live(), s.inliers, s.outliers
	s.publishLocked()

	if dead := s.relMut.DeadCount(); dead > compactMinDead && dead > s.relMut.Live() {
		s.compactLocked()
	}
	return resp, bytesDelta, nil
}

// resolveRowLocked maps a logical row handle to its live physical row.
func (s *Session) resolveRowLocked(li int) (int, error) {
	if li < 0 || li >= len(s.logical) {
		return -1, fmt.Errorf("%w: index %d out of range [0,%d)", errNoSuchRow, li, len(s.logical))
	}
	phys := s.logical[li]
	if phys < 0 {
		return -1, fmt.Errorf("%w: row %d was deleted", errNoSuchRow, li)
	}
	return phys, nil
}

// insertRowLocked appends t through the kernel and index, seeds its
// neighbor count from its ε-ball, bumps the counts of the ball members,
// and syncs inlier membership (the new row's own and any flips).
// Returns the new physical row, its neighbor count, and the flipped
// physical rows.
//
// Counts keep the Detection.Counts invariant, min(|r_ε(t)|, η): the new
// row stores its capped ball size, and a member already at η stays there.
func (s *Session) insertRowLocked(t disc.Tuple) (phys, nbr int, flips []int) {
	eta := s.Cons.Eta
	// The ball is queried before the insert, so the new row's count
	// excludes itself — exactly the |r_ε(t)| detection uses.
	ball := s.relMut.Within(t, s.Cons.Eps, -1)
	phys = s.relMut.Insert(t)
	if changeHook != nil {
		changeHook()
	}
	s.Det.Counts = append(s.Det.Counts, min(len(ball), eta))
	s.fullToSaver = append(s.fullToSaver, -1)
	for _, nb := range ball {
		j := nb.Idx
		if s.Det.Counts[j] == eta {
			continue // saturated
		}
		s.Det.Counts[j]++
		if s.Det.Counts[j] == eta { // crossed up
			flips = append(flips, j)
		}
	}
	if len(ball) >= eta {
		s.fullToSaver[phys] = s.Saver.InsertInlier(t)
		s.inliers++
	} else {
		s.outliers++
	}
	s.applyFlipsLocked(flips)
	return phys, len(ball), flips
}

// deleteRowLocked tombstones physical row phys, decrements its ball's
// neighbor counts, and syncs inlier membership. Returns the removed
// tuple, its ball size, and the flipped physical rows.
//
// A count below η is exact, so it simply decrements. A count at η only
// says "at least η": the member is recounted, capped at η, after the
// tombstone, and flips when the recount falls below η.
func (s *Session) deleteRowLocked(phys int) (old disc.Tuple, ball int, flips []int) {
	eta := s.Cons.Eta
	old = s.Rel.Tuples[phys]
	nbs := s.relMut.Within(old, s.Cons.Eps, phys)
	s.relMut.Delete(phys)
	if changeHook != nil {
		changeHook()
	}
	for _, nb := range nbs {
		j := nb.Idx
		if s.Det.Counts[j] < eta {
			s.Det.Counts[j]--
			continue
		}
		s.Det.Counts[j] = s.relMut.CountWithin(s.Rel.Tuples[j], s.Cons.Eps, j, eta)
		if s.Det.Counts[j] < eta { // crossed down
			flips = append(flips, j)
		}
	}
	if si := s.fullToSaver[phys]; si >= 0 {
		s.Saver.RemoveInlier(si)
		s.fullToSaver[phys] = -1
		s.inliers--
	} else {
		s.outliers--
	}
	s.applyFlipsLocked(flips)
	return old, len(nbs), flips
}

// applyFlipsLocked moves each flipped tuple across the inlier/outlier
// split, inserting into or tombstoning from the saver's inlier set.
func (s *Session) applyFlipsLocked(flips []int) {
	eta := s.Cons.Eta
	for _, j := range flips {
		if s.Det.Counts[j] >= eta {
			s.fullToSaver[j] = s.Saver.InsertInlier(s.Rel.Tuples[j])
			s.inliers++
			s.outliers--
		} else {
			s.Saver.RemoveInlier(s.fullToSaver[j])
			s.fullToSaver[j] = -1
			s.inliers--
			s.outliers++
		}
	}
}

// compactLocked rebuilds the session over only its live rows, in logical
// order: tombstoned storage in the relation, kernel and saver is
// reclaimed, the detection counts are remapped (not recomputed), and
// both indexes plus the saver (its η-radius table starting empty) are
// rebuilt from scratch. On any build error (nothing left to save
// against, or a failed build) the old state keeps serving, and
// compaction retries on a later mutation.
func (s *Session) compactLocked() {
	s.rebuildLocked(s.Rel, s.logical, s.Det.Counts)
}

// rollbackLocked answers a panic in the middle of a mutation. rel and
// logical are the relation and the logical row map as the mutation found
// them; the session is rebuilt over those rows with a fresh detection
// pass, so nothing half-applied survives. If even that fails, the session
// is deleted (later requests get 404) rather than left half-applied.
func (s *Session) rollbackLocked(rel *disc.Relation, logical []int) {
	err := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("panic: %v", rec)
			}
		}()
		return s.rebuildLocked(rel, logical, nil)
	}()
	if err != nil {
		s.reg.log.Error("serve: rolling back a failed mutation; deleting the session", "id", s.ID, "err", err)
		s.reg.Delete(s.ID)
	}
}

// rebuildLocked rebuilds the session over the rows logical maps into rel,
// in logical order, through warmUp; logical row handles survive (holes
// stay holes). counts are the detection counts of rel's physical rows,
// remapped onto the new rows; nil runs a fresh detection pass. Either way
// it counts as a compaction, so index_builds = 2 + 2·compactions. On
// error the old state is kept. A rebuild reports neither timings nor
// setup traffic.
func (s *Session) rebuildLocked(rel *disc.Relation, logical, counts []int) error {
	live := disc.NewRelation(rel.Schema)
	remap := make([]int, len(logical))
	var kept []int
	for li, phys := range logical {
		if phys < 0 {
			remap[li] = -1
			continue
		}
		remap[li] = live.N()
		if counts != nil {
			kept = append(kept, counts[phys])
		}
		live.Append(rel.Tuples[phys])
	}
	var det *disc.Detection
	if counts != nil {
		det = disc.RehydrateDetection(kept, s.Cons.Eta)
	}
	if _, _, err := s.warmUp(context.Background(), live, det, s.relMut.Kind(), s.reg.cfg.Logger); err != nil {
		return err
	}
	s.logical = remap
	s.mu.Lock()
	s.mstats.compactions++
	s.mu.Unlock()
	return nil
}

// snapshotView returns the relation and neighbor counts to persist: the
// live rows in logical order. Sessions that never deleted a row persist
// their storage as-is (appends keep physical order == logical order);
// after deletes the view reindexes densely, which is also why logical
// row handles do not survive a restart.
func (s *Session) snapshotView() (rel *disc.Relation, counts []int) {
	s.readState(func() {
		if s.relMut.DeadCount() == 0 {
			rel, counts = s.Rel, s.Det.Counts
			return
		}
		rel = disc.NewRelation(s.Rel.Schema)
		counts = make([]int, 0, s.relMut.Live())
		for _, phys := range s.logical {
			if phys < 0 {
				continue
			}
			counts = append(counts, s.Det.Counts[phys])
			rel.Append(s.Rel.Tuples[phys])
		}
	})
	return rel, counts
}
