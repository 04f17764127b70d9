package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over worker URLs with virtual nodes: each
// member contributes `replicas` points, a key routes to the first point
// clockwise from its own hash. Two properties matter for the fabric:
// determinism (every coordinator process maps a content address to the same
// worker, so fleet-wide single-flight holds across restarts) and minimal
// disruption (removing a member only re-routes the keys it owned, so a
// worker loss never scatters the surviving workers' in-flight dedup state).
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256, stable across
// processes, platforms and Go versions (unlike maphash).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// ringReplicas is the virtual-node count per worker on the fleet's ring.
const ringReplicas = 64

// newRing builds a ring from members with the given virtual-node count.
func newRing(members []string, replicas int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*replicas)}
	for _, m := range members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member so the ring stays
		// deterministic regardless of input order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owner routes a key to its member; "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise
	}
	return r.points[i].member
}
