package netmodel

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestCostRoundTrip packs latencies and hop counts at both ends of their
// fields and reads them back.
func TestCostRoundTrip(t *testing.T) {
	const maxLat, maxHops = time.Duration(1<<(64-hopBits) - 1), 1<<hopBits - 1
	for _, lat := range []time.Duration{0, 1, time.Millisecond, maxLat - 1, maxLat} {
		for _, hops := range []int{0, 1, 15, maxHops - 1, maxHops} {
			c := pack(lat, hops)
			if c.lat() != lat || c.hops() != hops {
				t.Fatalf("pack(%d, %d) reads back (%d, %d)", lat, hops, c.lat(), c.hops())
			}
		}
	}
	if pack(maxLat, maxHops) != unreached {
		t.Fatalf("the largest packed cost %#x is not unreached %#x", pack(maxLat, maxHops), unreached)
	}
}

// TestCostOrderIsLatencyThenHops: integer order over packed costs is the
// lexicographic order of (latency, hops), and a sum adds both fields.
// Latencies and hop counts are drawn from narrow ranges so that ties on
// either field, and on both, are common.
func TestCostOrderIsLatencyThenHops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	draw := func() (time.Duration, int) {
		return time.Duration(rng.Int63n(4)) << rng.Intn(40), rng.Intn(4) << rng.Intn(17)
	}
	ties := 0
	for i := 0; i < 100000; i++ {
		la, ha := draw()
		lb, hb := draw()
		a, b := pack(la, ha), pack(lb, hb)
		if want := la < lb || la == lb && ha < hb; (a < b) != want {
			t.Fatalf("(%d, %d) < (%d, %d) is %v, packed %v", la, ha, lb, hb, want, a < b)
		}
		if (a == b) != (la == lb && ha == hb) {
			t.Fatalf("(%d, %d) and (%d, %d): packed equality %v", la, ha, lb, hb, a == b)
		}
		if s := a + b; s.lat() != la+lb || s.hops() != ha+hb {
			t.Fatalf("(%d, %d) + (%d, %d) reads (%d, %d)", la, ha, lb, hb, s.lat(), s.hops())
		}
		if la == lb {
			ties++
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d latency ties drawn", ties)
	}
}

// TestTopologyBytes pins the bytes a route cache holds on the default
// topology: a pooled tree is 8 bytes per border router, and a memoized
// pair one 16-byte map slot plus the map's control bytes and slack. A
// return to 16-byte tree entries or 32-byte memo slots fails.
func TestTopologyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	topo := testTopology(t, 19)
	topo.contract(1)
	topo.capTrees = topo.maxTrees // a pool grown to its ceiling
	pts := topo.AttachPoints(topo.maxTrees+200, rand.New(rand.NewSource(59)))

	before := liveHeap()
	for _, src := range pts[:topo.maxTrees] {
		topo.sw.run(topo, src, topo.poolTree(src))
	}
	after := liveHeap()
	perTree := (after - before) / uint64(topo.maxTrees)
	borders := uint64(len(topo.borders))
	t.Logf("%d trees pooled: %d B a tree over %d border routers (%.2f B a border)",
		topo.maxTrees, perTree, borders, float64(perTree)/float64(borders))
	// 8 B a border reads ~8.7: the allocator's size class, and the
	// pool's map entry and ring slot.
	if bound := 9 * borders; perTree > bound {
		t.Errorf("%d B a pooled tree over %d border routers, bound %d", perTree, borders, bound)
	}

	// 200 sources, 100 destinations each: ~20k pairs, no tree pooled.
	var pairs [][2]RouterID
	for i, src := range pts[topo.maxTrees:] {
		for j := 1; j <= 100; j++ {
			pairs = append(pairs, [2]RouterID{src, pts[(i*7+j*13)%len(pts)]})
		}
	}
	memo := liveHeap()
	topo.WarmRoutes(pairs, 1)
	grew := liveHeap() - memo
	runtime.KeepAlive(pairs)
	n := uint64(len(topo.pairs))
	t.Logf("%d pairs memoized: %.1f B a pair", n, float64(grew)/float64(n))
	if n < 15000 {
		t.Fatalf("only %d pairs memoized", n)
	}
	if bound := 34 * n; grew > bound { // reads ~31
		t.Errorf("%d pairs memoized in %d B (%.1f B a pair), bound %d", n, grew, float64(grew)/float64(n), bound)
	}
}

// TestStaticGraphBytes pins the bytes the router graph holds at paper
// scale once contracted, per router: each intra-AS link kept once in 8
// bytes, AS by AS, the border graph, and the query sweep's scratch. It
// reads ~31.5 B a router; a flat intra-AS adjacency over every router (a
// row index and two 12-byte entries a link) read ~52 and fails.
func TestStaticGraphBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	before := liveHeap()
	topo := Generate(PaperScaleConfig(1))
	topo.contract(1)
	grew := liveHeap() - before
	routers := uint64(topo.NumRouters())
	t.Logf("%d routers, %d intra-AS links, %d border routers: %d B, %.1f B a router",
		routers, len(topo.links), len(topo.borders), grew, float64(grew)/float64(routers))
	if bound := 40 * routers; grew > bound {
		t.Errorf("the contracted graph holds %d B over %d routers (%.1f B a router), bound %d",
			grew, routers, float64(grew)/float64(routers), bound)
	}
	runtime.KeepAlive(topo)
}

// liveHeap is the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
