// Package cluster shards a fleet of selectd replicas behind a consistent-hash
// router. Requests are keyed on (device, shape-bucket) so each replica owns a
// stable slice of the shape universe; replica failure re-hashes the shard's
// traffic onto ring successors, and the router itself
// carries a local decision engine so a priceable shape is never answered with
// a 5xx even with every replica down — it degrades to the router-local
// fallback instead.
package cluster

import (
	"math/bits"
	"sort"

	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

// bucketOf quantizes a shape to its log2 bucket triple. Quantizing before
// hashing keeps the keyspace small and stable, so similar shapes land on the
// same replica and a shard's edge-cache entries stay with one owner.
func bucketOf(shape gemm.Shape) (mb, kb, nb uint64) {
	return uint64(bits.Len(uint(shape.M))), uint64(bits.Len(uint(shape.K))), uint64(bits.Len(uint(shape.N)))
}

// fnv64a hashes the device name (FNV-1a); the result seeds the ring key so
// the same shape on different devices lands on different shards.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// keyOf is the ring key for one request: device identity folded with the
// shape's log2 bucket.
func keyOf(device string, shape gemm.Shape) uint64 {
	mb, kb, nb := bucketOf(shape)
	return xrand.Hash64(fnv64a(device), mb, kb, nb)
}

// ringPoint is one virtual node: a hash position owned by a replica index.
type ringPoint struct {
	hash    uint64
	replica int
}

// ring is a consistent-hash ring over replica indices with vnodes virtual
// nodes per replica. It is immutable after construction — liveness is the
// router's concern (candidates returns the full deterministic preference
// order; the router skips entries its health view marks down, which is
// exactly "re-hash onto the successor" without rebuilding anything).
type ring struct {
	points []ringPoint
	n      int
}

// defaultVnodes spreads each replica over enough virtual nodes that shard
// sizes stay within a few percent of uniform for small fleets.
const defaultVnodes = 128

func newRing(n, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &ring{points: make([]ringPoint, 0, n*vnodes), n: n}
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    xrand.Hash64(0xc1051e8, uint64(rep), uint64(v)),
				replica: rep,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// candidates returns every replica index in preference order for one request
// key: the primary is the first virtual node clockwise of the key, and each
// successor is the next distinct replica on the walk. The order depends only
// on (device, shape bucket) and the ring layout, so routing is deterministic
// and failover (skip the dead primary, use the next candidate) re-routes
// exactly the dead replica's shard while every other shard keeps its primary.
func (r *ring) candidates(device string, shape gemm.Shape) []int {
	key := keyOf(device, shape)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	order := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(order) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			order = append(order, p.replica)
		}
	}
	return order
}
