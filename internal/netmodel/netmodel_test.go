package netmodel

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fuse/internal/stats"
)

func testTopology(t *testing.T, seed int64) *Topology {
	t.Helper()
	return Generate(DefaultConfig(seed))
}

// fixPool sets a contracted topology's tree pool to n trees with a
// ceiling of n, so no regret grows it: a pool of a fixed size, as a test
// that sizes the pool by hand means.
func fixPool(topo *Topology, n int) { topo.capTrees, topo.maxTrees = n, n }

func TestGenerateDeterministic(t *testing.T) {
	a := testTopology(t, 7)
	b := testTopology(t, 7)
	if a.NumRouters() != b.NumRouters() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed produced different topologies: %d/%d vs %d/%d",
			a.NumRouters(), a.NumLinks(), b.NumRouters(), b.NumLinks())
	}
	rngA := rand.New(rand.NewSource(1))
	rngB := rand.New(rand.NewSource(1))
	pa := a.AttachPoints(50, rngA)
	pb := b.AttachPoints(50, rngB)
	for i := range pa {
		if got, want := a.Path(pa[i], pa[(i+1)%len(pa)]), b.Path(pb[i], pb[(i+1)%len(pb)]); got != want {
			t.Fatalf("path %d differs: %+v vs %+v", i, got, want)
		}
	}
}

// TestInvalidConfigPanics: a config Generate cannot build, whose
// latencies a sweep's bucket ring cannot hold, or whose routes could
// overflow a packed cost, panics - before it allocates anything that
// grows with the topology.
func TestInvalidConfigPanics(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig(1)
		edit(&cfg)
		return cfg
	}
	type invalid struct {
		cfg  Config
		want string
	}
	for name, tc := range map[string]invalid{
		"no-continents": {Config{Continents: 0}, "invalid config"},
		"zero-latency":  {with(func(c *Config) { c.IntraASLatencyMin = 0 }), "invalid config"},
		// 500 ms T3 links over 7.6 µs buckets: 65,791 buckets.
		"too-many-buckets": {with(func(c *Config) { c.OC3LatencyMin = 7600 * time.Nanosecond }), "invalid config"},
		"slow-t3":          {with(func(c *Config) { c.T3LatencyMax = 1000 * time.Hour }), "invalid config"},
		// The fewest ASes with routers + RoutersPer >= 2^hopBits.
		"too-many-hops": {with(func(c *Config) { c.ASes = (1<<hopBits+c.RoutersPer-1)/c.RoutersPer - 1 }), "hop bits"},
		// Few ASes and 1 ms intra-AS links, so that only the ends' 16
		// bits overflow.
		"wide-as": {with(func(c *Config) {
			c.ASes, c.RoutersPer = 4, 1<<16+1
			c.IntraASLatencyMax = c.IntraASLatencyMin
		}), "16-bit ends"},
		"slow-intra": {with(func(c *Config) { c.IntraASLatencyMax = 1 << 32 }), "32-bit latency"},
		// Hour-long inter-AS links beside one-second intra-AS ones (an
		// intra-AS link holds under ~4.3 s) fit the ring (a step spans
		// 3,600 of its buckets), but after the 2,880 intra-AS links' 48
		// minutes they sum past 2^43 ns within the first 2 inter-AS links.
		"latency-sum": {with(func(c *Config) {
			c.IntraASLatencyMin, c.IntraASLatencyMax = time.Second, time.Second
			c.OC3LatencyMin, c.OC3LatencyMax = time.Hour, time.Hour
			c.T3LatencyMin, c.T3LatencyMax = time.Hour, time.Hour
		}), "latencies sum past"},
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			defer func() {
				r := recover()
				runtime.ReadMemStats(&after)
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic saying %q", r, tc.want)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Fatalf("allocated %d bytes before refusing", grew)
				}
			}()
			Generate(tc.cfg)
		})
	}
}

func TestT3FractionNearPaper(t *testing.T) {
	topo := testTopology(t, 1)
	frac := topo.T3Fraction()
	// Paper: 3% of links are T3. Allow generous tolerance; the shape is
	// what matters (a small minority of slow links).
	if frac <= 0 || frac > 0.08 {
		t.Fatalf("T3 fraction = %.4f, want small nonzero (~0.03)", frac)
	}
}

func TestAllRoutersReachable(t *testing.T) {
	topo := testTopology(t, 2)
	src := RouterID(0)
	for r := 1; r < topo.NumRouters(); r++ {
		p := topo.Path(src, RouterID(r))
		if p.Latency <= 0 || p.Hops <= 0 {
			t.Fatalf("router %d unreachable from 0: %+v", r, p)
		}
	}
}

func TestPathToSelfIsZero(t *testing.T) {
	topo := testTopology(t, 3)
	if p := topo.Path(5, 5); p != (Path{}) {
		t.Fatalf("self path = %+v, want zero", p)
	}
}

func TestPathSymmetricLatency(t *testing.T) {
	topo := testTopology(t, 4)
	rng := rand.New(rand.NewSource(9))
	pts := topo.AttachPoints(40, rng)
	for i := 0; i < len(pts); i += 2 {
		a, b := pts[i], pts[i+1]
		fwd, rev := topo.Path(a, b), topo.Path(b, a)
		if fwd.Latency != rev.Latency {
			t.Fatalf("asymmetric latency %v vs %v", fwd.Latency, rev.Latency)
		}
	}
}

// TestLatencyDistributionShape checks the paper's calibration targets:
// median RTT around 130 ms and a heavy tail from T3 crossings (Figure 6).
func TestLatencyDistributionShape(t *testing.T) {
	topo := testTopology(t, 5)
	rng := rand.New(rand.NewSource(11))
	pts := topo.AttachPoints(120, rng)
	rtts := stats.NewSample(0)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < i+6 && j < len(pts); j++ {
			p := topo.Path(pts[i], pts[j])
			rtts.AddDuration(2 * p.Latency) // round trip
		}
	}
	median := rtts.Median()
	if median < 60 || median > 260 {
		t.Fatalf("median RTT = %.1f ms, want roughly 130 ms", median)
	}
	// Heavy tail: some routes must cross T3 links and exceed 600 ms RTT.
	if rtts.Max() < 600 {
		t.Fatalf("max RTT = %.1f ms, want heavy tail > 600 ms", rtts.Max())
	}
	// But the tail should be a minority of routes.
	if frac := 1 - rtts.CDFAt(600); frac > 0.5 {
		t.Fatalf("%.0f%% of routes in heavy tail, want a minority", frac*100)
	}
}

// TestHopCountShape checks the paper's route-length calibration: routes of
// 2-43 hops with a median around 15.
func TestHopCountShape(t *testing.T) {
	topo := testTopology(t, 6)
	rng := rand.New(rand.NewSource(13))
	pts := topo.AttachPoints(120, rng)
	hops := stats.NewSample(0)
	for i := 0; i+1 < len(pts); i += 2 {
		hops.Add(float64(topo.Path(pts[i], pts[i+1]).Hops))
	}
	if m := hops.Median(); m < 6 || m > 30 {
		t.Fatalf("median hops = %.1f, want roughly 15", m)
	}
	if hops.Max() > 80 {
		t.Fatalf("max hops = %.0f, implausibly long route", hops.Max())
	}
}

// TestRouteLossCompounds reproduces the Figure 11 relationship: per-route
// loss is 1-(1-p)^hops for per-link loss p.
func TestRouteLossCompounds(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.LinkLoss = 0.008
	topo := Generate(cfg)
	rng := rand.New(rand.NewSource(17))
	pts := topo.AttachPoints(60, rng)
	for i := 0; i+1 < len(pts); i += 2 {
		p := topo.Path(pts[i], pts[i+1])
		want := 1 - math.Pow(1-cfg.LinkLoss, float64(p.Hops))
		if math.Abs(p.Loss-want) > 1e-12 {
			t.Fatalf("route loss %.6f, want %.6f for %d hops", p.Loss, want, p.Hops)
		}
	}
}

func TestZeroLinkLossMeansZeroRouteLoss(t *testing.T) {
	topo := testTopology(t, 9)
	if p := topo.Path(0, RouterID(topo.NumRouters()-1)); p.Loss != 0 {
		t.Fatalf("route loss = %v with zero link loss", p.Loss)
	}
}

func TestAttachPointsDistinct(t *testing.T) {
	topo := testTopology(t, 10)
	rng := rand.New(rand.NewSource(3))
	pts := topo.AttachPoints(200, rng)
	seen := make(map[RouterID]bool)
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate attach point %d", p)
		}
		seen[p] = true
	}
}

func TestAttachPointsTooManyPanics(t *testing.T) {
	topo := testTopology(t, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	topo.AttachPoints(topo.NumRouters()+1, rand.New(rand.NewSource(1)))
}

// Property: triangle inequality holds for the latency metric (shortest
// paths cannot be beaten by a detour).
func TestTriangleInequalityProperty(t *testing.T) {
	topo := testTopology(t, 11)
	rng := rand.New(rand.NewSource(23))
	prop := func(rawA, rawB, rawC uint16) bool {
		n := topo.NumRouters()
		a := RouterID(int(rawA) % n)
		b := RouterID(int(rawB) % n)
		c := RouterID(int(rawC) % n)
		ab := topo.Path(a, b).Latency
		bc := topo.Path(b, c).Latency
		ac := topo.Path(a, c).Latency
		return ac <= ab+bc
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: path latency between distinct routers is at least the minimum
// link latency and hop counts are consistent with latency bounds.
func TestPathBoundsProperty(t *testing.T) {
	cfg := DefaultConfig(12)
	topo := Generate(cfg)
	rng := rand.New(rand.NewSource(29))
	prop := func(rawA, rawB uint16) bool {
		n := topo.NumRouters()
		a := RouterID(int(rawA) % n)
		b := RouterID(int(rawB) % n)
		if a == b {
			return true
		}
		p := topo.Path(a, b)
		if p.Hops < 1 {
			return false
		}
		if p.Latency < time.Duration(p.Hops)*cfg.IntraASLatencyMin {
			return false
		}
		return p.Latency <= time.Duration(p.Hops)*cfg.T3LatencyMax
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRoutesMatchesPath checks that the bulk parallel warmup leaves
// no tree behind and memoizes exactly what lazy Path queries would
// answer.
func TestWarmRoutesMatchesPath(t *testing.T) {
	warm := testTopology(t, 14)
	lazy := testTopology(t, 14)
	rng := rand.New(rand.NewSource(31))
	pts := warm.AttachPoints(60, rng)
	var pairs [][2]RouterID
	for i := range pts {
		for j := 1; j <= 4; j++ {
			pairs = append(pairs, [2]RouterID{pts[i], pts[(i+j)%len(pts)]})
		}
	}
	pairs = append(pairs, [2]RouterID{pts[0], pts[0]}) // self pair is a no-op
	warm.WarmRoutes(pairs, 4)
	if warm.sw.tree != nil {
		t.Fatal("a parallel batch left a tree on the query sweep")
	}
	for _, pr := range pairs {
		if got, want := warm.Path(pr[0], pr[1]), lazy.Path(pr[0], pr[1]); got != want {
			t.Fatalf("warmed path %v->%v = %+v, lazy = %+v", pr[0], pr[1], got, want)
		}
	}
	// Warming twice is a no-op.
	before := warm.RouteStats()
	warm.WarmRoutes(pairs, 2)
	st := warm.RouteStats()
	if st != before {
		t.Fatalf("second warmup changed the stats: %+v -> %+v", before, st)
	}
	// One sweep per source at most, nothing pooled, every pair memoized.
	if st.Sweeps < 1 || st.Sweeps > len(pts) || st.Trees != 0 || st.Pairs != len(pairs)-1 {
		t.Fatalf("stats after warmup of %d pairs from %d sources: %+v", len(pairs)-1, len(pts), st)
	}
	// Every lazy sweep pooled its tree, kept or since evicted.
	if lst := lazy.RouteStats(); lst.Trees+lst.Evicted != lst.Sweeps || lst.Borders != st.Borders || lst.BorderEdges != st.BorderEdges {
		t.Fatalf("lazy stats %+v, warmed %+v", lst, st)
	}
}

// TestBoundedTreeCacheStaysExact drives more distinct sources than the
// tree pool holds and checks answers stay identical to a fresh topology's:
// eviction may cost recomputation but never correctness.
func TestBoundedTreeCacheStaysExact(t *testing.T) {
	a := testTopology(t, 15)
	a.Path(0, 1)  // first use sizes the pool
	fixPool(a, 4) // force heavy eviction
	b := testTopology(t, 15)
	rng := rand.New(rand.NewSource(37))
	pts := a.AttachPoints(40, rng)
	for round := 0; round < 3; round++ {
		for i := range pts {
			x, y := pts[i], pts[(i+round+1)%len(pts)]
			if x == y {
				continue
			}
			if got, want := a.Path(x, y), b.Path(x, y); got != want {
				t.Fatalf("path %v->%v = %+v under eviction, want %+v", x, y, got, want)
			}
		}
	}
	if len(a.cache) > 4 {
		t.Fatalf("tree cache grew to %d, bound 4", len(a.cache))
	}
}

// refRoute is the oracle's own route: a latency, a hop count and the
// router it leads to, unpacked.
type refRoute struct {
	lat  time.Duration
	hops int32
	v    int32
}

// referenceGraph rebuilds the plain router-level adjacency - every link,
// intra-AS and inter-AS - from a topology that has not answered a route
// yet (the first route turns the inter-AS links into the border graph).
// An AS's links number their ends within the AS, so both ends of each
// must be one of its routers, and an inter-AS link must join two ASes.
func referenceGraph(t *testing.T, topo *Topology) [][]refRoute {
	t.Helper()
	if topo.borderStart != nil {
		t.Fatal("referenceGraph after the topology was contracted")
	}
	adj := make([][]refRoute, topo.NumRouters())
	per := topo.cfg.RoutersPer
	if n := int(topo.asLinks[topo.cfg.ASes]); n != len(topo.links) {
		t.Fatalf("the AS lists cover %d links of %d", n, len(topo.links))
	}
	for as := 0; as < topo.cfg.ASes; as++ {
		base := int32(as * per)
		for _, l := range topo.links[topo.asLinks[as]:topo.asLinks[as+1]] {
			if int(l.a) >= per || int(l.b) >= per {
				t.Fatalf("AS %d's link %+v leaves its %d routers", as, l, per)
			}
			a, b := base+int32(l.a), base+int32(l.b)
			adj[a] = append(adj[a], refRoute{time.Duration(l.lat), 1, b})
			adj[b] = append(adj[b], refRoute{time.Duration(l.lat), 1, a})
		}
	}
	for _, l := range topo.inter {
		if topo.ASOf(RouterID(l.a)) == topo.ASOf(RouterID(l.b)) {
			t.Fatalf("inter-AS link %+v stays inside AS %d", l, topo.ASOf(RouterID(l.a)))
		}
		adj[l.a] = append(adj[l.a], refRoute{l.lat, 1, l.b})
		adj[l.b] = append(adj[l.b], refRoute{l.lat, 1, l.a})
	}
	ends := 0
	for _, row := range adj {
		ends += len(row)
	}
	if ends != 2*topo.NumLinks() {
		t.Fatalf("reference graph has %d link ends, topology reports %d links", ends, topo.NumLinks())
	}
	return adj
}

// refBetter spells the tie rule out again, and refHeap is container/heap,
// so the oracle shares no type and no ordering with the package.
func refBetter(a, b refRoute) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	return a.hops < b.hops
}

type refHeap []refRoute

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return refBetter(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refRoute)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// referenceSweep is the routing this package used before it contracted
// the graph: one Dijkstra from src over every router, loss compounded
// link by link along the tree. It is the oracle Path is held to, bit for
// bit. Ties break as Path documents: lower latency, then fewer hops.
func referenceSweep(adj [][]refRoute, src RouterID, linkLoss float64) []Path {
	dist := make([]refRoute, len(adj))
	deliver := make([]float64, len(adj))
	done := make([]bool, len(adj))
	for i := range dist {
		dist[i].lat = math.MaxInt64
	}
	dist[src] = refRoute{v: int32(src)}
	deliver[src] = 1
	pq := &refHeap{dist[src]}
	for pq.Len() > 0 {
		u := heap.Pop(pq).(refRoute).v
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range adj[u] {
			alt := refRoute{dist[u].lat + e.lat, dist[u].hops + 1, e.v}
			if refBetter(alt, dist[e.v]) {
				dist[e.v] = alt
				deliver[e.v] = deliver[u] * (1 - linkLoss)
				heap.Push(pq, alt)
			}
		}
	}
	out := make([]Path, len(adj))
	for v, d := range dist {
		if RouterID(v) != src {
			out[v] = Path{Latency: d.lat, Hops: int(d.hops), Loss: 1 - deliver[v]}
		}
	}
	return out
}

// tiedConfig gives every link of a class the same latency, so nearly
// every pair has several latency-shortest routes of different lengths.
func tiedConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.IntraASLatencyMax = cfg.IntraASLatencyMin
	cfg.OC3LatencyMax = cfg.OC3LatencyMin
	cfg.T3LatencyMax = cfg.T3LatencyMin
	return cfg
}

// TestRoutesMatchReference holds Path to the full-graph sweep for every
// destination of many sources, and a one-worker WarmRoutes batch of each
// source's destinations in a shuffled order on a second copy of the
// topology (so a batch meets a memo filled by earlier batches, never by
// Path), over
// the shapes the contraction has to
// get right: lossy links, tiny and chordless ASes, ASes with a single
// border router, ASes whose only inter-AS links are T3, sources that are
// and are not border routers (same-AS destinations come with "every
// destination"), latency ties, a latency spread of ~5,000 sweep buckets
// (100 µs links beside 500 ms ones) and - unless -short - paper scale.
func TestRoutesMatchReference(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig(21)
		edit(&cfg)
		return cfg
	}
	type oracleCase struct {
		name    string
		cfg     Config
		sources int
	}
	cases := []oracleCase{
		{"default-1", DefaultConfig(1), 50},
		{"default-2", DefaultConfig(2), 50},
		{"default-3", DefaultConfig(3), 50},
		{"lossy", with(func(c *Config) { c.LinkLoss = 0.016 }), 50},
		{"three-routers", with(func(c *Config) { c.RoutersPer = 3 }), 50},
		{"no-chords", with(func(c *Config) { c.IntraASDegree = 0 }), 50},
		// Eight chords over four routers: parallel links, repeated
		// chords and chords along the ring.
		{"dense-chords", with(func(c *Config) { c.RoutersPer, c.IntraASDegree = 4, 8 }), 50},
		{"tree-only", with(func(c *Config) { c.InterASDegree = 0 }), 50},
		{"one-as-per-continent", with(func(c *Config) {
			c.ASes, c.Continents, c.InterContinentLinks = 12, 12, 40
			c.ContinentWeights = make([]float64, 12)
		}), 50},
		{"one-as", with(func(c *Config) {
			c.ASes, c.Continents, c.ContinentWeights = 1, 1, []float64{1}
		}), 12},
		{"ties", tiedConfig(4), 50},
		{"wide-spread", with(func(c *Config) { c.IntraASLatencyMin = 100 * time.Microsecond }), 50},
	}
	// Paper scale runs without -race only: it is most of the package's
	// time under the detector, and the oracle it checks is single-threaded.
	if !testing.Short() && !raceEnabled {
		cases = append(cases, oracleCase{"paper-scale", PaperScaleConfig(1), 10})
	}
	singleBorder := false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := Generate(tc.cfg)
			adj := referenceGraph(t, topo)
			topo.contract(1)

			// Random sources, plus a border and an interior router of
			// the AS with the fewest border routers.
			rng := rand.New(rand.NewSource(77))
			srcs := topo.AttachPoints(min(tc.sources, topo.NumRouters()), rng)
			lone := 0
			for as := 0; as < tc.cfg.ASes; as++ {
				if n, least := topo.asBorders[as+1]-topo.asBorders[as], topo.asBorders[lone+1]-topo.asBorders[lone]; n < least {
					lone = as
				}
			}
			if lo, hi := topo.asBorders[lone], topo.asBorders[lone+1]; lo < hi {
				singleBorder = singleBorder || hi-lo == 1
				b := topo.borders[lo]
				beside := b + 1
				if int(beside)%tc.cfg.RoutersPer == 0 {
					beside = b - 1
				}
				srcs = append(srcs, b, beside)
			}
			isBorder := make(map[RouterID]bool)
			for _, b := range topo.borders {
				isBorder[b] = true
			}
			fromBorder, fromInterior := 0, 0
			wants := make([][]Path, len(srcs))
			for i, src := range srcs {
				if isBorder[src] {
					fromBorder++
				} else {
					fromInterior++
				}
				want := referenceSweep(adj, src, tc.cfg.LinkLoss)
				for dst := range want {
					if got := topo.Path(src, RouterID(dst)); got != want[dst] {
						t.Fatalf("Path(%d, %d) = %+v, full-graph sweep says %+v", src, dst, got, want[dst])
					}
				}
				wants[i] = want
			}
			// topo's memo goes before the second copy fills its own, so
			// at paper scale one memo of a million pairs is live at a time.
			topo.pairs = nil
			batched := Generate(tc.cfg)
			for i, src := range srcs {
				pairs := make([][2]RouterID, len(wants[i]))
				for j, dst := range rng.Perm(len(pairs)) {
					pairs[j] = [2]RouterID{src, RouterID(dst)}
				}
				batched.WarmRoutes(pairs, 1)
				for _, pr := range pairs {
					if got, want := batched.pathOf(batched.pairs[mkPair(pr[0], pr[1])]), wants[i][pr[1]]; pr[0] != pr[1] && got != want {
						t.Fatalf("WarmRoutes(%d, ...) to %d = %+v, full-graph sweep says %+v", src, pr[1], got, want)
					}
				}
			}
			if tc.cfg.ASes > 1 && (fromBorder == 0 || fromInterior == 0) {
				t.Fatalf("%d border and %d interior sources; want both", fromBorder, fromInterior)
			}
		})
	}
	if !singleBorder {
		t.Fatal("no case had an AS with a single border router")
	}
}

// TestTiesResolveByGraphNotBySweep pins the tie rule where ties are
// everywhere: the answer for a pair is the same whichever end is swept,
// and whether WarmRoutes or Path computes it.
func TestTiesResolveByGraphNotBySweep(t *testing.T) {
	cfg := tiedConfig(5)
	fwd, rev, warm := Generate(cfg), Generate(cfg), Generate(cfg)
	pts := fwd.AttachPoints(80, rand.New(rand.NewSource(41)))
	var pairs [][2]RouterID
	for i := range pts {
		for j := 1; j <= 3; j++ {
			pairs = append(pairs, [2]RouterID{pts[i], pts[(i+7*j)%len(pts)]})
		}
	}
	warm.WarmRoutes(pairs, 2)
	tied := 0
	for _, pr := range pairs {
		// fwd sweeps from pr[0]; rev, a separate topology with an
		// empty pool, from pr[1].
		p := fwd.Path(pr[0], pr[1])
		if q := rev.Path(pr[1], pr[0]); q != p {
			t.Fatalf("Path(%d, %d) = %+v but Path(%d, %d) = %+v", pr[0], pr[1], p, pr[1], pr[0], q)
		}
		if q := warm.Path(pr[0], pr[1]); q != p {
			t.Fatalf("Path(%d, %d) = %+v alone, %+v after WarmRoutes", pr[0], pr[1], p, q)
		}
		if time.Duration(p.Hops)*cfg.IntraASLatencyMin < p.Latency {
			tied++ // crosses ASes, where equal-latency detours exist
		}
	}
	if tied == 0 {
		t.Fatal("no sampled pair left its AS; the config does not exercise ties")
	}
}

// TestWarmRoutesWorkerCountDoesNotChangeMemo: one worker and four leave
// the same pair memo (and build the same border graph).
func TestWarmRoutesWorkerCountDoesNotChangeMemo(t *testing.T) {
	one, four := testTopology(t, 16), testTopology(t, 16)
	pts := one.AttachPoints(90, rand.New(rand.NewSource(43)))
	var pairs [][2]RouterID
	for i := range pts {
		for j := 1; j <= 5; j++ {
			pairs = append(pairs, [2]RouterID{pts[i], pts[(i+j)%len(pts)]})
		}
	}
	one.WarmRoutes(pairs, 1)
	four.WarmRoutes(pairs, 4)
	if !reflect.DeepEqual(one.pairs, four.pairs) {
		t.Fatal("pair memo differs between workers=1 and workers=4")
	}
	if !reflect.DeepEqual(one.borderCost, four.borderCost) || !reflect.DeepEqual(one.borderTo, four.borderTo) {
		t.Fatal("border graph differs between workers=1 and workers=4")
	}
}

// TestColdMissOnFullPoolReusesTree: once the pool is full a cold miss
// sweeps into the evicted tree's array; what it still allocates (pair
// memo growth) does not scale with the router or border count.
func TestColdMissOnFullPoolReusesTree(t *testing.T) {
	topo := testTopology(t, 17)
	topo.Path(0, 1)
	fixPool(topo, 8)
	pts := topo.AttachPoints(600, rand.New(rand.NewSource(47)))
	next := 0
	miss := func() {
		topo.Path(pts[next], pts[next+1])
		next += 2
	}
	for i := 0; i < 16; i++ {
		miss() // fill the pool and go round the ring once
	}
	sweeps := topo.RouteStats().Sweeps
	avg := testing.AllocsPerRun(200, miss)
	if avg >= 1 {
		t.Fatalf("%.2f allocations per cold miss on a full pool, want < 1", avg)
	}
	if st := topo.RouteStats(); st.Sweeps-sweeps != 201 || st.Trees != 8 {
		t.Fatalf("201 cold misses ran %d sweeps and left %d trees pooled (max 8)", st.Sweeps-sweeps, st.Trees)
	}
}

// TestTreePoolCounts pins RouteStats' count of the pool's work: a memo
// miss that a pooled tree of either end answers is a pool hit and sweeps
// nothing, whatever the other end; a memo hit is no pool hit; a cold miss
// on a full pool evicts the oldest tree; a cold miss with an evicted
// source at either end is a regret, which grows the pool by two trees up
// to its ceiling; and one with none grows nothing.
func TestTreePoolCounts(t *testing.T) {
	topo := testTopology(t, 19)
	topo.Path(0, 1) // builds the border graph, which sizes the pool
	fixPool(topo, 3)
	want := RouteStats{Sweeps: 1, Trees: 1, Cap: 3}
	// step runs query and adds d's sweeps, pool hits, evictions and
	// regrets to the running counts; d's Trees and Cap are the pool's
	// size after it.
	step := func(what string, query func(), d RouteStats) {
		t.Helper()
		query()
		want.Sweeps += d.Sweeps
		want.Trees, want.Cap = d.Trees, d.Cap
		want.PoolHits += d.PoolHits
		want.Evicted += d.Evicted
		want.Regrets += d.Regrets
		st := topo.RouteStats()
		st.Pairs, st.Borders, st.BorderEdges = 0, 0, 0
		if st != want {
			t.Fatalf("%s: %+v, want %+v", what, st, want)
		}
	}
	step("two cold misses fill the pool", func() { topo.Path(2, 3); topo.Path(4, 5) }, RouteStats{Sweeps: 2, Trees: 3, Cap: 3})
	step("a miss from a pooled source", func() { topo.Path(0, 6) }, RouteStats{Trees: 3, Cap: 3, PoolHits: 1})
	step("a miss to a pooled source", func() { topo.Path(7, 2) }, RouteStats{Trees: 3, Cap: 3, PoolHits: 1})
	step("a memo hit", func() { topo.Path(6, 0) }, RouteStats{Trees: 3, Cap: 3})
	step("two cold misses on a full pool", func() { topo.Path(8, 9); topo.Path(10, 11) }, RouteStats{Sweeps: 2, Trees: 3, Cap: 3, Evicted: 2})
	// 0 and 2 are ghosts now; 4, 8 and 10 are pooled, 4 the oldest.
	step("a miss from an evicted source, at the ceiling", func() { topo.Path(0, 12) }, RouteStats{Sweeps: 1, Trees: 3, Cap: 3, Evicted: 1, Regrets: 1})
	step("a miss to an evicted source, at the ceiling", func() { topo.Path(13, 2) }, RouteStats{Sweeps: 1, Trees: 3, Cap: 3, Evicted: 1, Regrets: 1})
	// 4 and 8 are ghosts now; 10, 0 and 13 are pooled.
	step("a pool hit with a ghost at the other end", func() { topo.Path(8, 0) }, RouteStats{Trees: 3, Cap: 3, PoolHits: 1})
	topo.maxTrees = 5
	step("a regret below the ceiling grows the pool", func() { topo.Path(4, 14) }, RouteStats{Sweeps: 1, Trees: 4, Cap: 5, Regrets: 1})
	step("a miss with no ghost fills it", func() { topo.Path(15, 16) }, RouteStats{Sweeps: 1, Trees: 5, Cap: 5})
	step("a miss with no ghost on a full pool evicts", func() { topo.Path(17, 18) }, RouteStats{Sweeps: 1, Trees: 5, Cap: 5, Evicted: 1})
	step("a regret that reaches the ceiling", func() { topo.Path(19, 8) }, RouteStats{Sweeps: 1, Trees: 5, Cap: 5, Evicted: 1, Regrets: 1})
}

// TestTreePoolGrowsOnRegret pins the pool's growth rule on the default
// topology: the pool starts at 16 trees; cold misses that never come
// back to an evicted source leave it there, each sweeping into the
// evicted tree's array; a miss from an evicted source grows it by two;
// sources cycling past the ceiling grow it to the ceiling and never
// past, and a full pool at the ceiling still allocates no tree. Every
// answer is the one a topology with no history gives.
func TestTreePoolGrowsOnRegret(t *testing.T) {
	topo, fresh := testTopology(t, 29), testTopology(t, 29)
	pts := topo.AttachPoints(1500, rand.New(rand.NewSource(61)))
	srcs, dsts := pts[:270], pts[270:]
	asked := make([][2]RouterID, 0, len(pts)) // sized up front: ask allocates nothing
	ask := func(a, b RouterID) {
		topo.Path(a, b)
		asked = append(asked, [2]RouterID{a, b})
	}
	// newDst hands out destinations no query has used; none is ever
	// swept from, since each query's source is not pooled either.
	newDst := func() RouterID {
		d := dsts[0]
		dsts = dsts[1:]
		return d
	}
	stats := func() RouteStats { return topo.RouteStats() }

	for _, src := range srcs[:100] {
		ask(src, newDst())
	}
	if st := stats(); st.Cap != 16 || st.Trees != 16 || st.Sweeps != 100 || st.Evicted != 84 || st.Regrets != 0 {
		t.Fatalf("100 cold misses from new sources: %+v, want a pool of 16 that never grew", st)
	}
	fresher := srcs[100:]
	if avg := testing.AllocsPerRun(50, func() {
		ask(fresher[0], newDst())
		fresher = fresher[1:]
	}); avg >= 1 {
		t.Fatalf("%.2f allocations a cold miss on a full pool of 16, want < 1", avg)
	}
	before := stats()
	ask(srcs[0], newDst()) // evicted first, and still a ghost
	if st := stats(); st.Regrets != 1 || st.Cap != 18 || st.Trees != 17 || st.Evicted != before.Evicted {
		t.Fatalf("a miss from an evicted source: %+v -> %+v, want one regret and a pool of 18", before, st)
	}

	// 270 sources in turn, each to a new destination: more than the
	// 256-tree ceiling holds, so some come back evicted every round.
	ceiling := topo.maxTrees
	for round := 0; round < 3; round++ {
		for _, src := range srcs {
			prev := stats()
			ask(src, newDst())
			st := stats()
			grown := min(prev.Cap+2*(st.Regrets-prev.Regrets), ceiling)
			if st.Cap != grown || st.Trees > st.Cap {
				t.Fatalf("round %d, source %d: %+v -> %+v, want a pool of %d", round, src, prev, st, grown)
			}
		}
	}
	if st := stats(); st.Cap != ceiling || st.Trees != ceiling || ceiling != 256 {
		t.Fatalf("after three rounds of 270 sources: %+v, want a full pool at the ceiling of 256 (have %d)", st, ceiling)
	}
	before, next := stats(), 0
	if avg := testing.AllocsPerRun(50, func() {
		ask(topo.ghosts[0], newDst())
		next++
	}); avg >= 1 {
		t.Fatalf("%.2f allocations a regret at the ceiling, want < 1", avg)
	}
	if st := stats(); st.Cap != ceiling || st.Regrets-before.Regrets != next {
		t.Fatalf("%d misses from evicted sources at the ceiling: %+v -> %+v, want as many regrets and no growth", next, before, st)
	}
	for _, q := range asked {
		if got, want := topo.Path(q[0], q[1]), fresh.Path(q[0], q[1]); got != want {
			t.Fatalf("Path(%d, %d) = %+v through a growing pool, a fresh topology says %+v", q[0], q[1], got, want)
		}
	}
}

// TestWarmRoutesSingleSourceSweepsOnce: a batch of one source's pairs,
// however many destinations it resolves, runs one sweep, pools no tree
// and answers as Path does; pairs it has memoized sweep nothing again,
// asked in a batch or alone, from either end.
func TestWarmRoutesSingleSourceSweepsOnce(t *testing.T) {
	topo, lazy := testTopology(t, 18), testTopology(t, 18)
	pts := topo.AttachPoints(200, rand.New(rand.NewSource(53)))
	pairsFrom := func(src RouterID, dsts []RouterID) [][2]RouterID {
		out := make([][2]RouterID, len(dsts))
		for j, dst := range dsts {
			out[j] = [2]RouterID{src, dst}
		}
		return out
	}
	for i := 0; i+41 <= len(pts); i += 41 {
		src, dsts := pts[i], pts[i+1:i+41]
		before := topo.RouteStats()
		topo.WarmRoutes(pairsFrom(src, dsts), 1)
		st := topo.RouteStats()
		if st.Sweeps-before.Sweeps != 1 || st.Trees != before.Trees {
			t.Fatalf("a batch to %d new destinations ran %d sweeps and pooled %d trees, want 1 and 0",
				len(dsts), st.Sweeps-before.Sweeps, st.Trees-before.Trees)
		}
		for _, dst := range dsts {
			if got, want := topo.Path(src, dst), lazy.Path(src, dst); got != want {
				t.Fatalf("after a batch from %d, Path to %d = %+v, an unbatched topology says %+v", src, dst, got, want)
			}
		}
		// Asked again, in reverse and from the far ends, nothing sweeps.
		topo.WarmRoutes(pairsFrom(src, dsts[:1]), 1)
		for _, dst := range dsts {
			topo.WarmRoutes(pairsFrom(dst, []RouterID{src, dst}), 2)
			topo.Path(dst, src)
		}
		if again := topo.RouteStats(); again.Sweeps != st.Sweeps || again.Trees != st.Trees || again.PoolHits != st.PoolHits {
			t.Fatalf("answered pairs swept again: %+v -> %+v", st, again)
		}
	}
	// Among answered pairs, one unanswered one sweeps into no pooled
	// tree; asked for alone through Path, another pools its tree.
	before := topo.RouteStats()
	topo.WarmRoutes(pairsFrom(pts[0], []RouterID{pts[1], pts[197], pts[0]}), 1)
	if st := topo.RouteStats(); st.Sweeps-before.Sweeps != 1 || st.Trees != before.Trees || st.Pairs-before.Pairs != 1 {
		t.Fatalf("one unanswered pair in a batch: %+v -> %+v", before, st)
	}
	if got, want := topo.Path(pts[0], pts[197]), lazy.Path(pts[0], pts[197]); got != want {
		t.Fatalf("the batch's one new pair reads %+v, Path says %+v", got, want)
	}
	before = topo.RouteStats()
	if got, want := topo.Path(pts[0], pts[198]), lazy.Path(pts[0], pts[198]); got != want {
		t.Fatalf("Path(%d, %d) = %+v, want %+v", pts[0], pts[198], got, want)
	}
	if st := topo.RouteStats(); st.Sweeps-before.Sweeps != 1 || st.Trees-before.Trees != 1 {
		t.Fatalf("one unanswered pair alone: %+v -> %+v", before, st)
	}
}

// TestWarmRoutesSweepsTheGreedySources: a batch sweeps from exactly the
// sources a greedy reference picks - take sources by their count of
// unanswered pairs, most first, the lower router on a tie, and give each
// every pair no earlier source took - over a fixed pair set with ties,
// shared endpoints, duplicates, reversed pairs, self pairs and a
// memoized pair.
func TestWarmRoutesSweepsTheGreedySources(t *testing.T) {
	pairs := [][2]RouterID{
		{10, 20}, {10, 30}, {10, 40}, {20, 30}, {20, 40}, // 10 and 20 tie at 3
		{50, 60}, {60, 50}, {70, 70}, // a duplicate in reverse; a self pair
		{80, 90}, {90, 100}, {100, 80}, // a three-way tie
		{110, 120}, {120, 130}, {130, 140}, {140, 110}, {110, 130},
		{5, 10}, // answered ahead of the batch
	}
	ref := func(memo map[pairKey]bool) map[RouterID][]RouterID {
		need := make(map[pairKey]bool)
		for _, p := range pairs {
			if k := mkPair(p[0], p[1]); k.a != k.b && !memo[k] {
				need[k] = true
			}
		}
		count := make(map[RouterID]int)
		for k := range need {
			count[k.a]++
			count[k.b]++
		}
		var srcs []RouterID
		for r := range count {
			srcs = append(srcs, r)
		}
		sort.Slice(srcs, func(i, j int) bool {
			if count[srcs[i]] != count[srcs[j]] {
				return count[srcs[i]] > count[srcs[j]]
			}
			return srcs[i] < srcs[j]
		})
		out := make(map[RouterID][]RouterID)
		for _, src := range srcs {
			for k := range need {
				if k.a == src || k.b == src {
					out[src] = append(out[src], k.a+k.b-src)
					delete(need, k)
				}
			}
			sort.Slice(out[src], func(i, j int) bool { return out[src][i] < out[src][j] })
		}
		return out
	}

	topo := testTopology(t, 23)
	topo.Path(5, 10)
	want := ref(map[pairKey]bool{mkPair(5, 10): true})
	need, tasks := topo.plan(pairs)
	got := make(map[RouterID][]RouterID)
	for i := 0; i+1 < len(tasks); i++ {
		for _, k := range need[tasks[i]:tasks[i+1]] {
			got[k.a] = append(got[k.a], k.b)
		}
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(tasks)-1 {
		t.Fatalf("batch sweeps %v in %d tasks, the greedy reference %v", got, len(tasks)-1, want)
	}
	before := topo.RouteStats()
	topo.WarmRoutes(pairs, 1)
	if st := topo.RouteStats(); st.Sweeps-before.Sweeps != len(want) || st.Pairs-before.Pairs != len(need) {
		t.Fatalf("batch: %+v -> %+v, want %d sweeps and %d pairs", before, st, len(want), len(need))
	}
}

// TestTreePoolCap pins the pool's starting size, 16 trees, and its
// ceiling on both shipped topologies: 256 trees on the default one,
// where the 4 MB budget alone would allow ~370, and the budget's 26 at
// paper scale.
func TestTreePoolCap(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want int
	}{
		{"default", DefaultConfig(1), 256},
		{"paper-scale", PaperScaleConfig(1), 26},
	}
	for _, tc := range cases {
		topo := Generate(tc.cfg)
		topo.contract(1)
		if topo.capTrees != 16 || topo.maxTrees != tc.want {
			t.Errorf("%s: pool starts at %d trees with a ceiling of %d, want 16 and %d", tc.name, topo.capTrees, topo.maxTrees, tc.want)
		}
	}
}
