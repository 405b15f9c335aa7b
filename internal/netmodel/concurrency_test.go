package netmodel

import (
	"fmt"
	"math/rand"
	"runtime"
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

// TestWarmRoutesPathAndRouteStatsShareOneLock runs parallel WarmRoutes
// batches beside Path queries and RouteStats reads on one topology, from
// several goroutines at once. Every call takes the one mutex, so under
// -race this proves the batch path's locking, and every answer must be
// what a fresh topology's Path says.
func TestWarmRoutesPathAndRouteStatsShareOneLock(t *testing.T) {
	topo, fresh := testTopology(t, 13), testTopology(t, 13)
	pts := topo.AttachPoints(120, rand.New(rand.NewSource(59)))
	pairs := make([][2]RouterID, 0, 5*len(pts))
	for i := range pts {
		for j := 1; j <= 5; j++ {
			pairs = append(pairs, [2]RouterID{pts[i], pts[(i+j*11)%len(pts)]})
		}
	}
	want := make([]Path, len(pairs))
	distinct := make(map[pairKey]bool)
	for i, pr := range pairs {
		want[i] = fresh.Path(pr[0], pr[1])
		distinct[mkPair(pr[0], pr[1])] = true
	}

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pairs); i += goroutines {
				switch i % 3 {
				case 0: // a batch of the pairs around i, parallel
					topo.WarmRoutes(pairs[i:min(i+8, len(pairs))], 2)
				case 1:
					topo.RouteStats()
				}
				if got := topo.Path(pairs[i][1], pairs[i][0]); got != want[i] {
					errs <- fmt.Sprintf("Path(%d, %d) = %+v beside batches, fresh topology says %+v", pairs[i][1], pairs[i][0], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := topo.RouteStats(); st.Pairs != len(distinct) {
		t.Fatalf("%d distinct pairs asked for, %d memoized", len(distinct), st.Pairs)
	}
}

// warmFixture is a topology, a batch of pairs over 120 attach points, and
// what a fresh topology's Path says for each pair.
func warmFixture(t *testing.T) (topo *Topology, pairs [][2]RouterID, want []Path) {
	topo, fresh := testTopology(t, 13), testTopology(t, 13)
	pts := topo.AttachPoints(120, rand.New(rand.NewSource(61)))
	for i := range pts {
		for j := 1; j <= 3; j++ {
			pairs = append(pairs, [2]RouterID{pts[i], pts[(i+j*7)%len(pts)]})
		}
	}
	for _, pr := range pairs {
		want = append(want, fresh.Path(pr[0], pr[1]))
	}
	return topo, pairs, want
}

// whileWarming starts WarmRoutes(pairs, 2) on another goroutine, waits
// until the batch holds the topology's mutex (or has already returned),
// runs during on this goroutine, and waits for the batch. A panic in
// either fails the test. The batch takes the mutex once and keeps it to
// the end, so whatever during asks the topology is answered after the
// whole batch, never from half of it.
func whileWarming(t *testing.T, topo *Topology, pairs [][2]RouterID, during func()) {
	t.Helper()
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		topo.WarmRoutes(pairs, 2)
	}()
	var batchDone bool
	var r any
	for !batchDone && topo.mu.TryLock() {
		topo.mu.Unlock()
		select {
		case r = <-done:
			batchDone = true
		default:
			runtime.Gosched()
		}
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("call beside WarmRoutes panicked: %v", p)
			}
		}()
		during()
	}()
	if !batchDone {
		r = <-done
	}
	if r != nil {
		t.Fatalf("WarmRoutes panicked: %v", r)
	}
}

// TestPathDuringWarmRoutesPanics: a Path query while WarmRoutes runs does
// not panic. It waits on the one mutex and gets the answer a fresh
// topology gives, for a pair in the batch and for one outside it.
func TestPathDuringWarmRoutesPanics(t *testing.T) {
	topo, pairs, want := warmFixture(t)
	var in, out Path
	whileWarming(t, topo, pairs[1:], func() {
		in, out = topo.Path(pairs[1][1], pairs[1][0]), topo.Path(pairs[0][0], pairs[0][1])
	})
	if in != want[1] || out != want[0] {
		t.Fatalf("Path beside WarmRoutes = %+v and %+v, fresh topology says %+v and %+v", in, out, want[1], want[0])
	}
	for i, pr := range pairs {
		if got := topo.Path(pr[0], pr[1]); got != want[i] {
			t.Fatalf("Path(%d, %d) = %+v after the batch, fresh topology says %+v", pr[0], pr[1], got, want[i])
		}
	}
}

// TestRouteStatsDuringWarmRoutesPanics: RouteStats while WarmRoutes runs
// does not panic, and it never reads a batch half done: it counts every
// pair the batch memoizes and every sweep it ran.
func TestRouteStatsDuringWarmRoutesPanics(t *testing.T) {
	topo, pairs, _ := warmFixture(t)
	var st RouteStats
	whileWarming(t, topo, pairs, func() { st = topo.RouteStats() })
	if after := topo.RouteStats(); st != after {
		t.Fatalf("RouteStats beside WarmRoutes = %+v, after it %+v", st, after)
	}
	distinct := make(map[pairKey]bool)
	for _, pr := range pairs {
		distinct[mkPair(pr[0], pr[1])] = true
	}
	if st.Pairs != len(distinct) || st.Sweeps == 0 {
		t.Fatalf("RouteStats beside WarmRoutes = %+v, want all %d distinct pairs and their sweeps", st, len(distinct))
	}
}

// TestOverlappingWarmRoutesPanics: two overlapping WarmRoutes calls do
// not panic. They serialize on the mutex, so they leave the memo and the
// sweep count two batches run one after the other leave, and every
// answer is a fresh topology's.
func TestOverlappingWarmRoutesPanics(t *testing.T) {
	topo, pairs, want := warmFixture(t)
	first, second := pairs[:240], pairs[120:]
	whileWarming(t, topo, first, func() { topo.WarmRoutes(second, 1) })

	serial, _, _ := warmFixture(t)
	serial.WarmRoutes(first, 2)
	serial.WarmRoutes(second, 1)
	if got, ref := topo.RouteStats(), serial.RouteStats(); got != ref {
		t.Fatalf("overlapping batches leave %+v, the same batches one after the other %+v", got, ref)
	}
	for i, pr := range pairs {
		if got := topo.Path(pr[0], pr[1]); got != want[i] {
			t.Fatalf("Path(%d, %d) = %+v after overlapping batches, fresh topology says %+v", pr[0], pr[1], got, want[i])
		}
	}
}

// TestWarmRoutesGuardClearsAfterReturn: WarmRoutes lets go of the mutex
// when it returns, so Path and RouteStats answer at once after it.
func TestWarmRoutesGuardClearsAfterReturn(t *testing.T) {
	topo := testTopology(t, 13)
	topo.WarmRoutes([][2]RouterID{{0, 1}}, 2)
	if !topo.mu.TryLock() {
		t.Fatal("WarmRoutes returned holding the topology's mutex")
	}
	topo.mu.Unlock()
	if got, want := topo.Path(0, 1), topo.Path(1, 0); got != want {
		t.Fatalf("post-warmup Path answers diverge: %+v vs %+v", got, want)
	}
	if st := topo.RouteStats(); st.Pairs != 1 || st.Sweeps != 1 {
		t.Fatalf("RouteStats after one one-pair batch = %+v, want 1 pair and 1 sweep", st)
	}
}
