// Package fault provides named fault-injection sites for robustness
// testing: error returns, added latency, or panics, fired deterministically
// from a seeded PRNG per site. Production code calls Inject(site) at the
// points that can realistically fail (snapshot IO, index builds, batch
// dispatch); with no configuration installed — the default — Inject is a
// single relaxed atomic load and returns nil, so the sites cost nothing in
// normal operation.
//
// Configuration comes from a spec string (the discserve -fault flag, or a
// test calling Configure directly):
//
//	site:mode[:arg][:prob][,site:mode...]
//
//	snapshot.write:error           every snapshot write fails
//	snapshot.write:error:0.5       half of them fail (seeded, deterministic)
//	snapshot.write:sleep:300ms     writes stall 300ms before the rename —
//	                               the window a chaos test SIGKILLs into
//	index.build:panic:0.1          a tenth of index builds panic
//
// Tests needing exact control (fail the first N calls, then succeed) install
// a hook with SetHook. Reset clears everything.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The injection sites wired through the serving layer. Site names are open
// — any string works — but these constants keep callers and specs aligned.
const (
	// SnapshotWrite fires inside snapshot.Write after the temp file is
	// written and synced, before the rename publishes it: an error aborts
	// the write (temp removed), a sleep opens a kill window with the temp
	// file on disk, a panic tears the write mid-flight.
	SnapshotWrite = "snapshot.write"
	// SnapshotRead fires at the head of snapshot.Read, modeling an IO
	// error distinct from corruption.
	SnapshotRead = "snapshot.read"
	// IndexBuild fires before a session rehydration rebuilds its indexes,
	// forcing the full-rebuild fallback path.
	IndexBuild = "index.build"
	// BatchDispatch fires once a save or mutation holds its worker slot,
	// before it runs.
	BatchDispatch = "batch.dispatch"
	// ShardDispatch fires before the coordinator dispatches work to its
	// workers: once per scattered chunk, and once per single-tuple save.
	// An error kills that leg of the fan-out, a sleep delays it
	// mid-scatter — the two degradation modes the coordinator chaos tests
	// drive.
	ShardDispatch = "shard.dispatch"
	// ShardMerge fires after the coordinator's chunk legs return, before
	// their results are merged into the global answer.
	ShardMerge = "shard.merge"
)

// ErrInjected is the base of every injected error; match with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// active is the fast-path gate: false (the default) short-circuits Inject
// before any lock or map lookup.
var active atomic.Bool

var (
	mu    sync.Mutex
	rules map[string]*rule
)

type rule struct {
	mode string // "error" | "sleep" | "panic"
	d    time.Duration
	p    float64
	rng  *rand.Rand
	hook func() error
	// hits counts Inject calls that consulted the rule; fires counts the
	// ones that actually injected.
	hits, fires int64
}

// Configure replaces the installed rules with the parsed spec. An empty
// spec disables injection (like Reset). Each site draws from its own PRNG
// seeded by (seed, site), so a given spec+seed fires identically across
// runs regardless of call interleaving from other sites.
func Configure(spec string, seed int64) error {
	rs := map[string]*rule{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return fmt.Errorf("fault: rule %q: want site:mode[:arg][:prob]", part)
		}
		site, mode, args := fields[0], fields[1], fields[2:]
		r := &rule{mode: mode, p: 1}
		var err error
		switch mode {
		case "error", "panic":
			if len(args) > 1 {
				return fmt.Errorf("fault: rule %q: %s takes at most a probability", part, mode)
			}
			if len(args) == 1 {
				if r.p, err = strconv.ParseFloat(args[0], 64); err != nil {
					return fmt.Errorf("fault: rule %q: bad probability: %w", part, err)
				}
			}
		case "sleep":
			if len(args) < 1 || len(args) > 2 {
				return fmt.Errorf("fault: rule %q: sleep takes a duration and an optional probability", part)
			}
			if r.d, err = time.ParseDuration(args[0]); err != nil {
				return fmt.Errorf("fault: rule %q: bad duration: %w", part, err)
			}
			if len(args) == 2 {
				if r.p, err = strconv.ParseFloat(args[1], 64); err != nil {
					return fmt.Errorf("fault: rule %q: bad probability: %w", part, err)
				}
			}
		default:
			return fmt.Errorf("fault: rule %q: unknown mode %q (error|sleep|panic)", part, mode)
		}
		if r.p < 0 || r.p > 1 {
			return fmt.Errorf("fault: rule %q: probability %g outside [0, 1]", part, r.p)
		}
		h := fnv.New64a()
		h.Write([]byte(site))
		r.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		rs[site] = r
	}
	mu.Lock()
	rules = rs
	mu.Unlock()
	active.Store(len(rs) > 0)
	return nil
}

// SetHook installs fn as the rule for site: Inject returns whatever fn
// returns (nil = no injection; the call still counts as a fire when fn
// errors or panics). Hooks give tests exact control — fail the first N
// calls, fail on a condition — that probabilities cannot.
func SetHook(site string, fn func() error) {
	mu.Lock()
	if rules == nil {
		rules = map[string]*rule{}
	}
	rules[site] = &rule{hook: fn}
	active.Store(true)
	mu.Unlock()
}

// Reset removes every rule and hook, restoring the zero-cost path.
func Reset() {
	mu.Lock()
	rules = nil
	mu.Unlock()
	active.Store(false)
}

// Active reports whether any rule is installed.
func Active() bool { return active.Load() }

// Fires returns how many times the site's rule injected, for assertions.
func Fires(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if r := rules[site]; r != nil {
		return r.fires
	}
	return 0
}

// Inject consults the site's rule: it returns an injected error, sleeps, or
// panics per the rule's mode, or returns nil when the site has no rule,
// the roll misses, or injection is disabled entirely.
func Inject(site string) error {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	r := rules[site]
	if r == nil {
		mu.Unlock()
		return nil
	}
	r.hits++
	if r.hook != nil {
		hook := r.hook
		r.fires++ // provisional; decremented below when the hook declines
		mu.Unlock()
		err := hook()
		if err == nil {
			mu.Lock()
			r.fires--
			mu.Unlock()
		}
		return err
	}
	fire := r.p >= 1 || r.rng.Float64() < r.p
	if fire {
		r.fires++
	}
	mode, d := r.mode, r.d
	mu.Unlock()
	if !fire {
		return nil
	}
	switch mode {
	case "sleep":
		time.Sleep(d)
		return nil
	case "panic":
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}
