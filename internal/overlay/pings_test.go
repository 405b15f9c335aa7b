package overlay

import (
	"math/rand"
	"testing"

	"fuse/internal/transport"
)

// refNeighbors is Neighbors as it was before the table walk was factored
// out: the order join.go, cluster.WarmRoutes and core's persistence see.
func refNeighbors(n *Node) []NodeRef {
	seen := make(map[transport.Addr]bool)
	var out []NodeRef
	add := func(r NodeRef) {
		if r.IsZero() || r.Addr == n.self.Addr || seen[r.Addr] {
			return
		}
		seen[r.Addr] = true
		out = append(out, r)
	}
	for _, r := range n.leafR {
		add(r)
	}
	for _, r := range n.leafL {
		add(r)
	}
	for h := 1; h <= maxLevels; h++ {
		add(n.rights[h])
		add(n.lefts[h])
	}
	return out
}

// TestPingScheduleTracksTables drives one node's tables through a seeded
// mix of every mutation that ends in syncPings - leaf offers, ring
// adoptions, removals, and whole neighbor deaths with their repair - and
// checks after each step that the node pings exactly its neighbors: one
// live cycle per Neighbors() entry, none for anyone else, and one
// OnNeighborUp per cycle ever started. Nothing is delivered (the
// simulator never runs), so every change is the step's own.
func TestPingScheduleTracksTables(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cl := newCluster(t, 48, seed, DefaultConfig())
		nd, rc := cl.nodes[0], cl.clients[0]
		rng := rand.New(rand.NewSource(seed))
		other := func() NodeRef { return cl.nodes[1+rng.Intn(len(cl.nodes)-1)].Self() }
		started := 0
		// A retired cycle no longer holds its slot in the link table.
		retired := func(ps *pingState) bool { return nd.links[ps.id-1] != ps }
		for step := 0; step < 3000; step++ {
			before := make(map[transport.Addr]*pingState, len(nd.pings))
			for addr, ps := range nd.pings {
				before[addr] = ps
			}
			switch rng.Intn(6) {
			case 0, 1:
				nd.considerLeaf(other())
			case 2:
				nd.adoptRingNeighbor(1+rng.Intn(4), other(), rng.Intn(2) == 0)
			case 3:
				if nd.removeRef(other().Addr) {
					nd.syncPings()
				}
			case 4:
				nd.neighborDead(other())
			case 5:
				nd.syncPings() // nothing changed since the last one
			}

			want := nd.Neighbors()
			if ref := refNeighbors(nd); len(ref) != len(want) {
				t.Fatalf("seed %d step %d: Neighbors() = %v, reference %v", seed, step, want, ref)
			} else {
				for i := range ref {
					if ref[i] != want[i] {
						t.Fatalf("seed %d step %d: Neighbors() = %v, reference %v", seed, step, want, ref)
					}
				}
			}
			if len(nd.pings) != len(want) {
				t.Fatalf("seed %d step %d: %d ping cycles for %d neighbors", seed, step, len(nd.pings), len(want))
			}
			for _, r := range want {
				ps := nd.pings[r.Addr]
				if ps == nil || retired(ps) || ps.ref.Addr != r.Addr {
					t.Fatalf("seed %d step %d: neighbor %s has no live ping cycle (%+v)", seed, step, r.Name, ps)
				}
				if old, ok := before[r.Addr]; ok && old != ps {
					t.Fatalf("seed %d step %d: neighbor %s stayed in the tables but its ping cycle was replaced", seed, step, r.Name)
				} else if !ok {
					started++
				}
			}
			for addr, ps := range before {
				if nd.pings[addr] == nil && !retired(ps) {
					t.Fatalf("seed %d step %d: %s left the tables but its ping cycle still runs", seed, step, ps.ref.Name)
				}
			}
			if len(rc.up) != started {
				t.Fatalf("seed %d step %d: %d OnNeighborUp calls for %d ping cycles started", seed, step, len(rc.up), started)
			}
		}
		if started < 100 || len(rc.down) == 0 {
			t.Fatalf("seed %d: only %d cycles started and %d deaths; the sequence exercised too little", seed, started, len(rc.down))
		}
	}
}
