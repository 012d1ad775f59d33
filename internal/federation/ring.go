// Package federation holds the consistent-hash ring that
// fleet.RunSharded uses to map set-top boxes to coordinator shards: a
// node belongs to the shard of the first ring point at or after its
// hash, so the population splits into near-equal slices without a table.
package federation

import (
	"fmt"
	"sort"
)

// ShardID identifies one coordinator shard.
type ShardID int

// DefaultVNodes is the per-shard virtual-node count. 64 points per
// shard keeps the maximum/mean ownership skew under ~1.25 for up to a
// few dozen shards.
const DefaultVNodes = 64

// Ring is a consistent-hash ring mapping node identities to shards.
// Each shard contributes vnodes points; a node is owned by the shard
// whose point is the first at or clockwise of the node's own hash.
// The zero value is not usable; construct with NewRing.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard ShardID
}

// mix64 is the SplitMix64-style finalizer used across the repo (node
// striping, fleet PRNG): cheap, well-distributed bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash derives the ring position of one virtual node. Shard and
// vnode indices are folded into a single word before finalizing so
// adjacent shards do not produce correlated point sequences.
func pointHash(s ShardID, vnode int) uint64 {
	return mix64(uint64(s)*0x9e3779b97f4a7c15 + uint64(vnode) + 1)
}

// NewRing builds a ring over shards 0..shards-1 with vnodes points
// each (DefaultVNodes when vnodes <= 0).
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("federation: ring needs at least one shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(ShardID(s), v), shard: ShardID(s)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Owner maps a node identity to its owning shard: the shard of the
// first ring point at or clockwise of mix64(nodeID).
func (r *Ring) Owner(nodeID uint64) ShardID {
	h := mix64(nodeID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}
