package coord

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over worker nodes: each node is placed at
// vnodes pseudo-random points on a uint64 circle, and a key's owners are
// the first distinct nodes clockwise from the key's hash. Adding or
// removing one node moves only the keys adjacent to its points — the
// property that lets a coordinator lose a worker without re-homing every
// session.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing places each node at vnodes points (clamped to >= 1). Node order
// does not affect placement — only the node names do.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for ni, node := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", node, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so placement
		// stays deterministic across processes.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owners returns the first count distinct nodes clockwise from key's hash —
// the key's primary owner first, then its failover replicas. count is
// clamped to the node count.
func (r *Ring) Owners(key string, count int) []string {
	if len(r.points) == 0 || count < 1 {
		return nil
	}
	if count > len(r.nodes) {
		count = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, count)
	seen := make(map[int]bool, count)
	for i := 0; i < len(r.points) && len(out) < count; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// ringHash is FNV-64a with a 64-bit avalanche finalizer — stable across
// processes and platforms, which a coordinator restart relies on to
// re-derive the same placements. The finalizer matters: FNV-1a's last
// input byte only reaches the low bits, so near-identical keys
// ("session-1" vs "session-2") would otherwise crowd one arc of the ring.
func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
