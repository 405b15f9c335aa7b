package netmodel

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestMinInterASLatencyBoundsCrossASPaths pins the lookahead bound of
// AS-keyed shards: no route between two ASes is cheaper than
// MinInterASLatency, the cheapest inter-AS link attains it, and a route
// inside one AS can undercut it - which is why an AS's nodes must share
// a shard.
func TestMinInterASLatencyBoundsCrossASPaths(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig(seed)
		topo := Generate(cfg)
		bound := topo.MinInterASLatency()
		if bound < cfg.OC3LatencyMin || bound > cfg.OC3LatencyMax {
			t.Fatalf("seed %d: MinInterASLatency = %v, want within OC3 range [%v, %v]",
				seed, bound, cfg.OC3LatencyMin, cfg.OC3LatencyMax)
		}
		cheapest := topo.inter[0] // read before the first Path contracts it away
		for _, l := range topo.inter {
			if l.lat < cheapest.lat {
				cheapest = l
			}
		}
		if p := topo.Path(RouterID(cheapest.a), RouterID(cheapest.b)); p.Latency != bound {
			t.Fatalf("seed %d: cheapest inter-AS link routes at %v, want the bound %v", seed, p.Latency, bound)
		}

		// 2,000 random attach points, each routed to one of 20 more: every
		// Path sweeps from a hub whose tree the pool then keeps.
		points := topo.AttachPoints(2020, rand.New(rand.NewSource(seed)))
		hubs := points[:20]
		crossAS := 0
		for i, b := range points[20:] {
			a := hubs[i%len(hubs)]
			if topo.ASOf(a) == topo.ASOf(b) {
				continue
			}
			crossAS++
			if p := topo.Path(a, b); p.Latency < bound {
				t.Fatalf("seed %d: Path(%d, %d) = %v undercuts MinInterASLatency %v", seed, a, b, p.Latency, bound)
			}
		}
		if crossAS < 1900 {
			t.Fatalf("seed %d: only %d cross-AS pairs checked", seed, crossAS)
		}

		// Routers 0 and 1 are neighbours on AS 0's ring: one metro link.
		if topo.ASOf(0) != topo.ASOf(1) {
			t.Fatal("routers 0 and 1 should share AS 0")
		}
		if p := topo.Path(0, 1); p.Latency >= bound {
			t.Fatalf("seed %d: same-AS Path(0, 1) = %v does not undercut the bound %v", seed, p.Latency, bound)
		}
	}

	// With no inter-AS link the bound falls back to the cheapest link.
	cfg := DefaultConfig(1)
	cfg.Continents, cfg.ContinentWeights, cfg.ASes, cfg.InterContinentLinks = 1, []float64{1}, 1, 0
	if got := Generate(cfg).MinInterASLatency(); got < cfg.IntraASLatencyMin || got > cfg.IntraASLatencyMax {
		t.Fatalf("one-AS MinInterASLatency = %v, want within intra-AS range [%v, %v]",
			got, cfg.IntraASLatencyMin, cfg.IntraASLatencyMax)
	}
}

// TestConcurrentPathQueriesAreSafeAndExact hammers Path from several
// goroutines (parallel simulation shards miss the route cache
// concurrently) and checks the answers match a serial run. Run under
// -race this also proves the memo locking.
func TestConcurrentPathQueriesAreSafeAndExact(t *testing.T) {
	topo := testTopology(t, 11)
	rng := rand.New(rand.NewSource(5))
	points := topo.AttachPoints(64, rng)

	want := make([]Path, len(points))
	serial := testTopology(t, 11)
	for i, p := range points {
		want[i] = serial.Path(p, points[(i+1)%len(points)])
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range points {
				j := (i + w) % len(points)
				got := topo.Path(points[j], points[(j+1)%len(points)])
				if got != want[j] {
					errs <- "concurrent Path answer diverged from serial"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPathDuringWarmRoutesPanics proves the warming guard: a Path query
// while WarmRoutes is in progress must panic loudly instead of silently
// corrupting the pair memo. The onWarmStart hook runs on this goroutine
// right after the flag rises, so the trip is deterministic even under
// -race.
func TestPathDuringWarmRoutesPanics(t *testing.T) {
	topo := testTopology(t, 13)
	topo.onWarmStart = func() { topo.Path(0, 5) }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Path during WarmRoutes did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "concurrently with WarmRoutes") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	topo.WarmRoutes([][2]RouterID{{0, 1}}, 2)
}

// TestRouteStatsDuringWarmRoutesPanics: WarmRoutes writes the counters
// RouteStats reads under its warming flag, not under the mutex, so
// RouteStats takes Path's guard and panics rather than race.
func TestRouteStatsDuringWarmRoutesPanics(t *testing.T) {
	topo := testTopology(t, 13)
	topo.onWarmStart = func() { topo.RouteStats() }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RouteStats during WarmRoutes did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "concurrently with WarmRoutes") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	topo.WarmRoutes([][2]RouterID{{0, 1}}, 2)
}

func TestOverlappingWarmRoutesPanics(t *testing.T) {
	topo := testTopology(t, 13)
	topo.onWarmStart = func() { topo.WarmRoutes([][2]RouterID{{2, 3}}, 1) }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overlapping WarmRoutes did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "overlapping WarmRoutes") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	topo.WarmRoutes([][2]RouterID{{0, 1}}, 1)
}

func TestWarmRoutesGuardClearsAfterReturn(t *testing.T) {
	topo := testTopology(t, 13)
	topo.WarmRoutes([][2]RouterID{{0, 1}}, 2)
	if got, want := topo.Path(0, 1), topo.Path(1, 0); got != want {
		t.Fatalf("post-warmup Path answers diverge: %+v vs %+v", got, want)
	}
}
