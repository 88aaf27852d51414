package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// placementGolden is where the ring put these topics at S = 3 and S = 4 when
// the table was recorded. Placement is part of a persistent klsmd
// deployment's on-disk contract: every shard's WAL replays into the shard
// that owns its topics, so a change to hash64, to the vnode name format or
// to a vnode count that moves a ring arc strands persisted items on the
// wrong shard.
var placementGolden = []struct {
	topic  string
	s3, s4 int
}{
	{"jobs", 2, 2},
	{"orders", 1, 1},
	{"payments", 2, 2},
	{"emails", 0, 3},
	{"invoices", 1, 1},
	{"shipments", 0, 3},
	{"alerts", 2, 2},
	{"metrics", 1, 1},
	{"logs", 0, 0},
	{"events", 0, 0},
	{"clicks", 0, 0},
	{"signups", 0, 0},
	{"refunds", 0, 0},
	{"reports", 1, 1},
	{"backups", 0, 0},
	{"builds", 0, 0},
	{"deploys", 1, 1},
	{"tickets", 0, 0},
	{"messages", 1, 1},
	{"notifications", 2, 2},
	{"uploads", 0, 0},
	{"thumbnails", 1, 1},
	{"transcodes", 2, 2},
	{"webhooks", 2, 2},
	{"retries", 1, 1},
	{"timeouts", 2, 2},
	{"sessions", 0, 0},
	{"carts", 0, 0},
	{"checkouts", 1, 1},
	{"reviews", 1, 1},
	{"ratings", 0, 0},
	{"searches", 0, 0},
	{"indexes", 0, 3},
	{"crawls", 0, 0},
	{"feeds", 1, 3},
	{"digests", 0, 0},
	{"reminders", 2, 2},
	{"renewals", 1, 1},
	{"trials", 0, 0},
	{"audits", 1, 1},
	{"exports", 1, 1},
	{"imports", 2, 2},
	{"syncs", 0, 0},
	{"batches", 1, 1},
	{"cleanups", 2, 2},
	{"compactions", 2, 2},
	{"snapshots", 0, 3},
	{"migrations", 1, 1},
	{"payouts", 2, 2},
	{"chargebacks", 1, 1},
	{"disputes", 1, 1},
	{"quotes", 0, 0},
	{"bids", 0, 0},
	{"auctions", 2, 2},
	{"leases", 1, 1},
	{"heartbeats", 2, 2},
	{"pings", 1, 1},
	{"probes", 0, 0},
	{"scans", 0, 0},
	{"scores", 1, 1},
	{"rankings", 1, 1},
	{"recommendations", 0, 0},
	{"translations", 0, 0},
	{"captions", 0, 0},
}

// ringDigest is FNV-1a over the ring's points and their owners, in ring
// order: it changes with any vnode that moves, appears or disappears,
// including one whose arc no topic of placementGolden lands on.
func ringDigest(r *ring) uint64 {
	h := fnv.New64a()
	for i, p := range r.points {
		binary.Write(h, binary.LittleEndian, p)
		binary.Write(h, binary.LittleEndian, int64(r.owner[i]))
	}
	return h.Sum64()
}

// TestRingDeterministicPlacement pins the placement contract persistence
// depends on against the recorded table and ring digests, so a placement
// change fails here rather than on a restarted deployment.
func TestRingDeterministicPlacement(t *testing.T) {
	r3, r4 := newRing(3), newRing(4)
	for _, g := range placementGolden {
		if s3, s4 := r3.lookup(g.topic), r4.lookup(g.topic); s3 != g.s3 || s4 != g.s4 {
			t.Errorf("topic %q on shards (%d, %d) at S = (3, 4), recorded (%d, %d)", g.topic, s3, s4, g.s3, g.s4)
		}
	}
	for _, g := range []struct {
		r      *ring
		digest uint64
	}{{r3, 0x22444e735394ec73}, {r4, 0xbbc38e971090a141}} {
		if d := ringDigest(g.r); d != g.digest {
			t.Errorf("ring of %d points has digest %#x, recorded %#x", len(g.r.points), d, g.digest)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r := newRing(1)
	for i := 0; i < 100; i++ {
		if s := r.lookup(fmt.Sprintf("t%d", i)); s != 0 {
			t.Fatalf("single-shard ring placed %q on shard %d", fmt.Sprintf("t%d", i), s)
		}
	}
}

// TestRingBalance sanity-checks the vnode spread: no shard should own a
// vanishing share of a large topic population. The threshold is loose — this guards against a broken hash
// or sort, not statistical perfection.
func TestRingBalance(t *testing.T) {
	const shards, topicsN = 4, 10_000
	r := newRing(shards)
	counts := make([]int, shards)
	for i := 0; i < topicsN; i++ {
		s := r.lookup(fmt.Sprintf("topic-%d-%d", i, i*7919))
		if s < 0 || s >= shards {
			t.Fatalf("lookup returned out-of-range shard %d", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < topicsN/shards/4 {
			t.Errorf("shard %d owns only %d of %d topics (degenerate spread %v)", s, c, topicsN, counts)
		}
	}
}
