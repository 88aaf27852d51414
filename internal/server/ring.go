// Package server is the serving layer of the k-LSM: an HTTP service
// fronting N queue shards. Topics are placed on shards by a consistent-hash
// ring (ring.go), an in-process Router exposes the sharded queue to
// embedders and tests without the network (router.go), and the HTTP surface
// (server.go) adds per-shard group-commit batching for enqueues, streaming
// drains, backpressure, per-shard counters at /statsz, and a graceful
// shutdown that flushes and closes every shard.
//
// Sharding multiplies relaxation: with S shards of T handles each at
// relaxation k, a key returned by the router's global delete-min is among
// the S·T·k+1 smallest live keys (each shard hides at most T·k keys below
// its peek; see Router.DeleteMinGlobal for the argument and its caveat).
// The sharded rank-bound suite in the root package asserts this envelope
// with the ostat machinery.
package server

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the ring's virtual-node count per shard. Like hash64 and
// the vnode name format, it is part of a persistent deployment's on-disk
// contract: a change that moves a ring arc moves the topics on it to
// another shard, away from the WAL that holds their items.
const defaultVNodes = 64

// ring is a consistent-hash ring mapping topic strings to shard indices.
// Placement depends only on (shard count, topic), never on insertion order
// or clock, so a topic maps to the same shard across restarts — which
// persistence requires: a shard's WAL must replay into the shard that still
// owns the topic.
//
// Consistent hashing (rather than hash-mod-S) keeps the door open for
// resharding: growing from S to S+1 shards moves only the topics whose
// ring arcs the new shard's vnodes capture, ~1/(S+1) of them, instead of
// reshuffling nearly everything.
type ring struct {
	// points holds the vnode hashes, sorted; owner[i] is the shard owning
	// points[i].
	points []uint64
	owner  []int
}

// newRing builds the ring for shards × defaultVNodes virtual nodes.
func newRing(shards int) *ring {
	type pt struct {
		h     uint64
		shard int
	}
	pts := make([]pt, 0, shards*defaultVNodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < defaultVNodes; v++ {
			pts = append(pts, pt{hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	r := &ring{points: make([]uint64, len(pts)), owner: make([]int, len(pts))}
	for i, p := range pts {
		r.points[i] = p.h
		r.owner[i] = p.shard
	}
	return r
}

// lookup returns the shard owning topic: the first vnode clockwise from the
// topic's hash.
func (r *ring) lookup(topic string) int {
	h := hash64(topic)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owner[i]
}

// hash64 is FNV-1a over s. Stable across processes and Go versions (unlike
// hash/maphash), which the persistence contract needs.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
