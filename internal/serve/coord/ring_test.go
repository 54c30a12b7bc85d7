package coord

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingOwners pins the consistent-hash contract: deterministic distinct
// owners, stability under node-order permutation, and bounded movement
// when one node leaves.
func TestRingOwners(t *testing.T) {
	nodes := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	r := NewRing(nodes, 64)

	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	for _, k := range keys {
		owners := r.Owners(k, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%q, 2) = %v", k, owners)
		}
		if got := r.Owners(k, 2); !reflect.DeepEqual(got, owners) {
			t.Fatalf("Owners(%q) not deterministic: %v vs %v", k, got, owners)
		}
		// Clamped to the node count, all distinct.
		all := r.Owners(k, 10)
		if len(all) != len(nodes) {
			t.Fatalf("Owners(%q, 10) = %v, want all %d nodes", k, all, len(nodes))
		}
		seen := map[string]bool{}
		for _, o := range all {
			if seen[o] {
				t.Fatalf("Owners(%q, 10) repeats %q", k, o)
			}
			seen[o] = true
		}
	}

	// Placement ignores registration order.
	perm := NewRing([]string{"http://w3", "http://w1", "http://w0", "http://w2"}, 64)
	for _, k := range keys {
		if !reflect.DeepEqual(r.Owners(k, 2), perm.Owners(k, 2)) {
			t.Fatalf("owner set for %q depends on node order", k)
		}
	}

	// Losing one node re-homes only the keys it owned: every key whose
	// primary was elsewhere keeps its primary.
	smaller := NewRing(nodes[:3], 64)
	moved := 0
	for _, k := range keys {
		before := r.Owners(k, 1)[0]
		after := smaller.Owners(k, 1)[0]
		if before == nodes[3] {
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %q moved from %q to %q though %q stayed up", k, before, after, nodes[3])
		}
	}
	if moved == 0 {
		t.Fatal("no key was primaried on the removed node; the test proved nothing")
	}

	// Rough balance: with 64 vnodes no node should own a wildly
	// disproportionate share.
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	for n, c := range counts {
		if c < len(keys)/len(nodes)/4 {
			t.Fatalf("node %s owns only %d of %d keys", n, c, len(keys))
		}
	}
}

// TestRingEmpty pins the degenerate inputs.
func TestRingEmpty(t *testing.T) {
	if got := NewRing(nil, 8).Owners("k", 2); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
	if got := NewRing([]string{"a"}, 0).Owners("k", 0); got != nil {
		t.Fatalf("count=0 returned owners %v", got)
	}
}
