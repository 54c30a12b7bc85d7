package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// radiusSeed drives TestRadiusTableDifferential; every failure message
// carries it, so a failing sequence replays by setting it here.
const radiusSeed = 20210620

// TestRadiusTableDifferential drives a mutable saver through random
// inlier inserts and removes (each batch followed by one InvalidateRadii
// over every changed value), bare invalidations and saves, on every index
// kind under every norm, on both the unrestricted and the κ path. After
// every step each known η-radius entry must equal the capped δ_η of a
// brute KNN over the live inliers, dead rows must be unknown, and each
// save's answer must equal a fresh saver's over the live inliers.
func TestRadiusTableDifferential(t *testing.T) {
	cons := Constraints{Eps: 1.0, Eta: 4}
	kinds := []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindVP}
	for _, norm := range []metric.Norm{metric.L1, metric.L2, metric.LInf} {
		for _, kind := range kinds {
			for _, kappa := range []int{0, 2} {
				t.Run(fmt.Sprintf("%v/%v/kappa=%d", norm, kind, kappa), func(t *testing.T) {
					radiusDifferential(t, norm, kind, kappa, cons)
				})
			}
		}
	}
}

func radiusDifferential(t *testing.T, norm metric.Norm, kind neighbors.IndexKind, kappa int, cons Constraints) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(radiusSeed))
	r := clusteredRelation(120, 3, radiusSeed)
	r.Schema.Norm = norm
	mut, err := neighbors.NewMutable(r, cons.Eps, kind)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSaverContext(ctx, r, cons, Options{Index: mut, Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s", radiusSeed, step, fmt.Sprintf(format, args...))
	}
	// near returns a tuple jittered around a random live row by up to
	// spread per attribute.
	near := func(spread float64) data.Tuple {
		var i int
		for i = rng.Intn(r.N()); !mut.Alive(i); i = rng.Intn(r.N()) {
		}
		q := r.Tuples[i].Clone()
		for a := range q {
			q[a] = data.Num(q[a].Num + (rng.Float64()*2-1)*spread)
		}
		return q
	}
	var computed, refreshed int64
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // one to three membership changes, then one invalidation
			var changed []data.Tuple
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if rng.Intn(2) == 0 && mut.Live() > 2*cons.Eta {
					var i int
					for i = rng.Intn(r.N()); !mut.Alive(i); i = rng.Intn(r.N()) {
					}
					changed = append(changed, r.Tuples[i])
					s.RemoveInlier(i)
				} else {
					tup := near(0.6)
					s.InsertInlier(tup)
					changed = append(changed, tup)
				}
			}
			s.InvalidateRadii(changed...)
			refreshed += s.TakeRadiusStats().EtaRadii
		case op < 5: // an invalidation with no membership change
			s.InvalidateRadii(near(0.5))
			refreshed += s.TakeRadiusStats().EtaRadii
		default: // a save, checked against a fresh saver over the live rows
			to := near(0.3)
			to[rng.Intn(len(to))] = data.Num(rng.Float64()*40 - 20)
			got := s.SaveOne(ctx, to)
			want := freshSaver(t, r, mut, cons, kappa).SaveOne(ctx, to)
			if !slices.Equal(got.Tuple, want.Tuple) || got.Cost != want.Cost ||
				got.Adjusted != want.Adjusted || got.Natural != want.Natural {
				fail(step, "save of %v: got (%v, cost %v, adjusted %v, natural %v), fresh saver (%v, cost %v, adjusted %v, natural %v)",
					to, got.Tuple, got.Cost, got.Adjusted, got.Natural,
					want.Tuple, want.Cost, want.Adjusted, want.Natural)
			}
			st := s.TakeRadiusStats()
			if got.Stats.EtaRadii != 0 {
				fail(step, "a save's own counters carry %d η-radii", got.Stats.EtaRadii)
			}
			if st.KNNQueries != st.EtaRadii {
				fail(step, "radius tally: %d KNN queries for %d radii", st.KNNQueries, st.EtaRadii)
			}
			computed += st.EtaRadii
		}
		checkRadii(t, step, s, r, mut, cons)
	}
	if computed == 0 || refreshed == 0 {
		t.Fatalf("seed %d: %d radii computed by saves, %d recomputed by invalidations; both paths must run",
			radiusSeed, computed, refreshed)
	}
}

// freshSaver builds a static saver over mut's live rows in physical order,
// so index tie-breaks agree with the mutable saver's.
func freshSaver(t *testing.T, r *data.Relation, mut *neighbors.Mutable, cons Constraints, kappa int) *Saver {
	t.Helper()
	live := data.NewRelation(r.Schema)
	for i := range r.Tuples {
		if mut.Alive(i) {
			live.Append(r.Tuples[i])
		}
	}
	s, err := NewSaverContext(context.Background(), live, cons, Options{Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkRadii compares every entry of s's η-radius table against a brute
// KNN over mut's live rows.
func checkRadii(t *testing.T, step int, s *Saver, r *data.Relation, mut *neighbors.Mutable, cons Constraints) {
	t.Helper()
	live := data.NewRelation(r.Schema)
	pos := make([]int, r.N())
	for i := range r.Tuples {
		pos[i] = -1
		if mut.Alive(i) {
			pos[i] = live.N()
			live.Append(r.Tuples[i])
		}
	}
	brute := neighbors.NewBrute(live)
	if len(s.radii) != r.N() {
		t.Fatalf("seed %d, step %d: %d radius entries for %d rows", radiusSeed, step, len(s.radii), r.N())
	}
	for i, b := range s.radii {
		if b == radiusUnknown {
			continue
		}
		if pos[i] < 0 {
			t.Fatalf("seed %d, step %d: dead row %d keeps a known radius", radiusSeed, step, i)
		}
		want := math.Inf(1)
		if nn := brute.KNN(r.Tuples[i], cons.Eta, pos[i]); len(nn) == cons.Eta && nn[cons.Eta-1].Dist <= cons.Eps {
			want = nn[cons.Eta-1].Dist
		}
		if got := math.Float64frombits(b); got != want {
			t.Fatalf("seed %d, step %d: row %d radius %v, brute KNN over the live rows says %v",
				radiusSeed, step, i, got, want)
		}
	}
}

// TestRadiusConcurrentFill saves the same outliers from many goroutines on
// a cold saver: entries are filled by whichever save reads them first, and
// every answer, and the filled table, must equal a sequential run's.
func TestRadiusConcurrentFill(t *testing.T) {
	ctx := context.Background()
	r := clusteredRelation(300, 3, 53)
	cons := Constraints{Eps: 1.0, Eta: 4}
	det, err := DetectContext(ctx, r, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	inliers := r.Subset(det.Inliers)
	seq, err := NewSaverContext(ctx, inliers, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Adjustment, len(det.Outliers))
	for k, oi := range det.Outliers {
		want[k] = seq.SaveOne(ctx, r.Tuples[oi])
	}
	par, err := NewSaverContext(ctx, inliers, cons, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Adjustment, 4)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]Adjustment, len(det.Outliers))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, oi := range det.Outliers {
				got[g][k] = par.SaveOne(ctx, r.Tuples[oi])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for k := range want {
			a, b := got[g][k], want[k]
			if !slices.Equal(a.Tuple, b.Tuple) || a.Cost != b.Cost || a.Adjusted != b.Adjusted || a.Natural != b.Natural {
				t.Fatalf("goroutine %d, outlier %d: got (%v, %v), sequential (%v, %v)", g, k, a.Tuple, a.Cost, b.Tuple, b.Cost)
			}
		}
	}
	for i := range seq.radii {
		if seq.radii[i] != par.radii[i] {
			t.Fatalf("row %d: concurrent fill %x, sequential %x", i, par.radii[i], seq.radii[i])
		}
	}
	if st := par.TakeRadiusStats(); st.EtaRadii < seq.TakeRadiusStats().EtaRadii {
		t.Fatalf("concurrent saves computed %d radii, fewer than the sequential run's distinct reads", st.EtaRadii)
	}
}
