package overlay

import (
	"math/rand"
	"slices"
	"testing"
	"time"

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
		add(n.ring(h, true))
		add(n.ring(h, false))
	}
	return out
}

// TestPingScheduleTracksTables drives one node's tables through a seeded
// mix of every mutation that ends in syncPings - leaf offers, ring
// adoptions, removals, and whole neighbor deaths with their repair - and
// checks after each step that the node pings exactly its neighbors: one
// live cycle per Neighbors() entry, none for anyone else, one
// OnNeighborUp per cycle ever started, and one OnLinkClosed, with the
// cycle's id, per cycle stopped - after OnNeighborDown for a death.
// Nothing is delivered (the simulator never runs), so every change is
// the step's own.
func TestPingScheduleTracksTables(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cl := newCluster(t, 48, seed, DefaultConfig())
		nd, rc := cl.nodes[0], cl.clients[0]
		rng := rand.New(rand.NewSource(seed))
		other := func() NodeRef { return cl.nodes[1+rng.Intn(len(cl.nodes)-1)].Self() }
		started := 0
		type cycle struct {
			id  uint32
			due time.Duration
		}
		for step := 0; step < 3000; step++ {
			before := make(map[transport.Addr]cycle, linkCount(nd))
			refs := make(map[transport.Addr]NodeRef, linkCount(nd))
			for i, ps := range nd.links {
				if ps.open() {
					before[ps.route.Addr] = cycle{uint32(i + 1), nd.due[i]}
					refs[ps.route.Addr] = ps.ref()
				}
			}
			closed, events := len(rc.closed), len(rc.events)
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
				dead := other()
				_, held := before[dead.Addr]
				nd.neighborDead(dead)
				if got := rc.events[events:]; held && (len(got) < 2 || got[0] != "down "+dead.Name || !slices.Contains(got[1:], "closed "+dead.Name)) {
					t.Fatalf("seed %d step %d: %s died with upcalls %v, want down then closed", seed, step, dead.Name, got)
				}
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
			if linkCount(nd) != len(want) {
				t.Fatalf("seed %d step %d: %d ping cycles for %d neighbors", seed, step, linkCount(nd), len(want))
			}
			// Every occupied slot holds a neighbor no other slot holds, so
			// the scan by address finds it under its own id, and a free
			// slot is the zero record, never due.
			for i, ps := range nd.links {
				switch {
				case !ps.open() && (ps != pingState{} || nd.due[i] != never):
					t.Fatalf("seed %d step %d: free slot %d holds %+v, due %v", seed, step, i, ps, nd.due[i])
				case ps.open() && nd.LinkID(ps.route.Addr) != uint32(i+1):
					t.Fatalf("seed %d step %d: slot %d found as id %d", seed, step, i, nd.LinkID(ps.route.Addr))
				}
			}
			if len(nd.due) != len(nd.links) {
				t.Fatalf("seed %d step %d: %d due entries for %d slots", seed, step, len(nd.due), len(nd.links))
			}
			for _, r := range want {
				ps := linkTo(nd, r.Addr)
				if ps == nil || ps.route.Addr != r.Addr {
					t.Fatalf("seed %d step %d: neighbor %s has no live ping cycle (%+v)", seed, step, r.Name, ps)
				}
				id := nd.LinkID(r.Addr)
				if old, ok := before[r.Addr]; ok && old != (cycle{id, nd.due[id-1]}) {
					t.Fatalf("seed %d step %d: neighbor %s stayed in the tables but its ping cycle was replaced", seed, step, r.Name)
				} else if !ok {
					started++
				}
			}
			stopped := make(map[closedLink]bool)
			for addr, old := range before {
				if nd.LinkID(addr) == 0 {
					if nd.links[old.id-1].route.Addr == addr {
						t.Fatalf("seed %d step %d: %s left the tables but its ping cycle still runs", seed, step, addr)
					}
					stopped[closedLink{old.id, refs[addr]}] = true
				}
			}
			if got := rc.closed[closed:]; len(got) != len(stopped) {
				t.Fatalf("seed %d step %d: %d OnLinkClosed calls for %d ping cycles stopped", seed, step, len(got), len(stopped))
			} else {
				for _, c := range got {
					if !stopped[c] {
						t.Fatalf("seed %d step %d: OnLinkClosed(%d, %s) names no cycle that stopped", seed, step, c.link, c.neighbor.Name)
					}
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
