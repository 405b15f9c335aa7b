// Package netmodel builds a synthetic wide-area router-level topology and
// answers end-to-end path queries (latency, loss, hop count) between
// attachment points.
//
// It substitutes for the Mercator-derived topology used in the paper
// (102,639 routers, 2,662 ASes, 142,303 links). The experiments depend only
// on the *induced distributions*: round-trip latencies with a median around
// 130 ms and a significant heavy tail (paths crossing one or more
// intercontinental T3 links), router-level routes of roughly 2-43 hops with
// a median near 15, and per-route loss rates compounding per-link loss.
// The generator reproduces those shapes with a three-level hierarchy:
// continents -> autonomous systems -> router rings, where inter-continent
// links are T3 (300-500 ms) and everything else is OC3 (10-40 ms), matching
// the paper's 97%/3% link-class mix and latency assignments.
//
// Routes are answered from a contracted graph, not from the router graph.
// ASes meet only at border routers (routers with an inter-AS link; ~19.6k
// of the ~104k at paper scale), so every route is a walk inside the
// source's AS, a walk over border routers, and a walk inside the
// destination's AS. The topology keeps the intra-AS links as one flat
// adjacency and, built on first use, a second flat adjacency over border
// routers only: the inter-AS links plus, per AS, the best intra-AS route
// between each pair of its border routers. A single-source sweep is
// then Dijkstra over the border graph with a 39-router pass at either
// end, which is ~6x less work than a sweep over every router and gives
// the same answers.
package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LinkClass distinguishes the two link classes of the paper's topology.
type LinkClass int

const (
	// OC3 links model fast continental fiber: 10-40 ms, 155 Mbps.
	OC3 LinkClass = iota
	// T3 links model slow intercontinental paths: 300-500 ms, 45 Mbps.
	T3
)

func (c LinkClass) String() string {
	if c == T3 {
		return "T3"
	}
	return "OC3"
}

// Config parameterizes topology generation. The zero value is not useful;
// start from DefaultConfig or PaperScaleConfig.
type Config struct {
	Seed       int64
	Continents int
	// ContinentWeights gives the relative AS population of each continent.
	// Uneven weights make same-continent routes (no T3 crossing) the
	// common case, which is what produces the paper's 130 ms median RTT
	// with a T3-induced heavy tail. Must have length Continents.
	ContinentWeights []float64
	ASes             int // total autonomous systems across all continents
	RoutersPer       int // routers per AS

	// IntraASDegree adds this many random chord links inside each AS ring.
	IntraASDegree int
	// InterASDegree is the number of same-continent AS-to-AS links per AS.
	InterASDegree int
	// InterContinentLinks is the number of T3 links between continents.
	InterContinentLinks int

	// IntraASLatency* bound metro-scale latencies inside an AS. The
	// paper assigns 10-40 ms to every OC3 link, but that is mutually
	// inconsistent with its own calibration (median 15-hop routes and a
	// 130 ms median RTT would imply ~750 ms). We keep 10-40 ms for
	// inter-AS OC3 links and give intra-AS links metro latencies so both
	// published distributions hold; see the package comment on what the
	// generator substitutes for the Mercator topology.
	IntraASLatencyMin, IntraASLatencyMax time.Duration
	OC3LatencyMin, OC3LatencyMax         time.Duration
	T3LatencyMin, T3LatencyMax           time.Duration

	// LinkLoss is the per-link packet loss probability applied uniformly
	// to every link (the paper's false-positive experiments use 0.4%,
	// 0.8% and 1.6%).
	LinkLoss float64
}

// DefaultConfig is sized for fast simulation: the distributions match the
// paper's, the router count is reduced so that path computation stays cheap.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		Continents:          4,
		ContinentWeights:    []float64{0.80, 0.10, 0.06, 0.04},
		ASes:                240,
		RoutersPer:          12,
		IntraASDegree:       2,
		InterASDegree:       3,
		InterContinentLinks: 60,
		IntraASLatencyMin:   1 * time.Millisecond,
		IntraASLatencyMax:   3 * time.Millisecond,
		OC3LatencyMin:       10 * time.Millisecond,
		OC3LatencyMax:       40 * time.Millisecond,
		T3LatencyMin:        300 * time.Millisecond,
		T3LatencyMax:        500 * time.Millisecond,
	}
}

// PaperScaleConfig approximates the Mercator topology's scale: ~100k
// routers in ~2,600 ASes. Path queries remain feasible because routes are
// computed per attachment point, not all-pairs.
func PaperScaleConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.ASes = 2662
	c.RoutersPer = 39 // 2662*39 = 103,818 routers
	c.InterContinentLinks = 700
	return c
}

// RouterID names a router within a Topology.
type RouterID int32

// route is a cost - latency, then hop count - and the vertex it leads
// to. One type serves as an adjacency entry (the cost of the edge and its
// far end), as a heap item and as a sweep's result (the best known cost
// from the source to v). A vertex is a router in the intra-AS adjacency
// and an index into Topology.borders in the border graph.
type route struct {
	lat  time.Duration
	hops int32
	v    int32
}

// unreached compares worse than any real route.
var unreached = route{lat: math.MaxInt64}

// less is the package's one ordering of routes: lower latency, then fewer
// hops. The heap, every relaxation and the final minimum all use it, so a
// tie never falls to traversal order.
func (r route) less(o route) bool {
	return r.lat < o.lat || r.lat == o.lat && r.hops < o.hops
}

// via extends r by the edge (or onward route) e.
func (r route) via(e route) route { return route{r.lat + e.lat, r.hops + e.hops, e.v} }

// rawLink is an undirected link as the generator draws it.
type rawLink struct {
	a, b int32
	lat  time.Duration
}

// Topology is an immutable router graph in contracted form plus two path
// caches.
//
// The graph: intra holds every intra-AS link (row r of intraStart is
// router r's neighbours), which is all a route needs inside an AS -
// RoutersPer routers, so a pass over one is microseconds. The border
// graph (borders, asBorders, borderStart, borderAdj) has one vertex per
// border router, numbered in router order so an AS's are contiguous; a
// row holds the best intra-AS route to each other border router of the
// same AS, then the router's inter-AS links. It is built by contract on
// first use rather than in Generate, because it costs one intra-AS pass
// per border router (~0.8 ms on the default topology, ~25 ms at paper
// scale, on one goroutine) and generating the default topology takes a
// third of that; until then inter holds the generator's inter-AS links.
// Nothing else of the router graph is kept.
//
// The caches: a memo of answered (src, dst) queries (exact, never evicted
// - the working set of a simulation is the pairs its nodes actually talk
// over) and a bounded FIFO pool of single-source trees. A tree is one
// route per border router, 16 bytes each: ~310 KB at paper scale, ~24 KB
// on the default topology, against a ~64 MB budget for the pool. An
// evicted tree's array becomes the next sweep's, so a cold miss on a full
// pool allocates nothing that grows with the topology. WarmRoutes
// bulk-fills the pair memo with parallel sweeps and pools nothing.
//
// Concurrency: Path serializes its memo and tree pool behind a mutex, so
// cold route-cache misses from parallel simulation shards are safe (and
// still exact - the caches only memoize, they never change answers).
// WarmRoutes must not run concurrently with Path: the bulk fill assumes
// sole ownership of the pair memo, and an atomic in-progress flag turns
// any violation into a panic instead of silent memo corruption.
type Topology struct {
	cfg      Config
	numLinks int
	t3Links  int
	minLink  time.Duration // smallest single-link latency (lookahead bound)

	intraStart []int32
	intra      []route

	inter       []rawLink  // inter-AS links; nil once contracted
	borders     []RouterID // border vertex -> router
	asBorders   []int32    // AS -> its first border vertex; ASes+1 long
	borderStart []int32
	borderAdj   []route

	mu       sync.Mutex // guards everything below, and contract
	pairs    map[pairKey]Path
	cache    map[RouterID][]route // pooled trees by source
	order    []RouterID           // ring of pooled sources, oldest at head
	head     int
	maxTrees int
	sw       *sweep // Path's scratch
	sweeps   int

	// warming is set for the duration of WarmRoutes; Path panics while it
	// is up. onWarmStart is a test hook invoked (on the caller goroutine)
	// right after the flag rises, so tests can trip the guard
	// deterministically.
	warming     atomic.Bool
	onWarmStart func()
}

// pairKey is an unordered router pair (the graph is undirected, so paths
// are symmetric).
type pairKey struct{ a, b RouterID }

func mkPair(x, y RouterID) pairKey {
	if x > y {
		x, y = y, x
	}
	return pairKey{x, y}
}

// Path describes the route between two attachment points.
type Path struct {
	Latency time.Duration // one-way propagation latency
	Hops    int           // number of links traversed
	Loss    float64       // end-to-end loss probability, in [0, 1)
}

// Generate builds a topology from cfg. Generation is deterministic in
// cfg.Seed.
func Generate(cfg Config) *Topology {
	if cfg.Continents < 1 || cfg.ASes < cfg.Continents || cfg.RoutersPer < 3 {
		panic(fmt.Sprintf("netmodel: invalid config %+v", cfg))
	}
	if len(cfg.ContinentWeights) != cfg.Continents {
		panic(fmt.Sprintf("netmodel: %d continent weights for %d continents", len(cfg.ContinentWeights), cfg.Continents))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		cfg:   cfg,
		pairs: make(map[pairKey]Path),
		cache: make(map[RouterID][]route),
	}
	// A link inside one AS goes to the intra-AS adjacency, one between
	// two to the list contract turns into the border graph.
	intra := make([]rawLink, 0, cfg.ASes*(cfg.RoutersPer+cfg.IntraASDegree))
	t.inter = make([]rawLink, 0, cfg.ASes*(1+cfg.InterASDegree)+cfg.InterContinentLinks)
	addLink := func(a, b RouterID, lat time.Duration, class LinkClass) {
		l := rawLink{int32(a), int32(b), lat}
		if int(a)/cfg.RoutersPer == int(b)/cfg.RoutersPer {
			intra = append(intra, l)
		} else {
			t.inter = append(t.inter, l)
		}
		t.numLinks++
		if class == T3 {
			t.t3Links++
		}
		if t.minLink == 0 || lat < t.minLink {
			t.minLink = lat
		}
	}

	uniform := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
	}
	metro := func() time.Duration { return uniform(cfg.IntraASLatencyMin, cfg.IntraASLatencyMax) }
	oc3 := func() time.Duration { return uniform(cfg.OC3LatencyMin, cfg.OC3LatencyMax) }
	t3 := func() time.Duration { return uniform(cfg.T3LatencyMin, cfg.T3LatencyMax) }

	router := func(as, i int) RouterID { return RouterID(as*cfg.RoutersPer + i) }

	// Assign each AS to a continent by weighted draw; the first
	// cfg.Continents ASes are pinned one per continent so that every
	// continent is populated and has an anchor for the T3 ring below.
	continentOf := make([]int, cfg.ASes)
	byContinent := make([][]int, cfg.Continents)
	totalW := 0.0
	for _, w := range cfg.ContinentWeights {
		totalW += w
	}
	for as := 0; as < cfg.ASes; as++ {
		c := as
		if as >= cfg.Continents {
			x := rng.Float64() * totalW
			c = cfg.Continents - 1
			for i, w := range cfg.ContinentWeights {
				if x < w {
					c = i
					break
				}
				x -= w
			}
		}
		continentOf[as] = c
		byContinent[c] = append(byContinent[c], as)
	}

	// Intra-AS: a ring plus random chords keeps ASes connected with short
	// internal paths, mimicking a metro/regional ISP backbone.
	for as := 0; as < cfg.ASes; as++ {
		for i := 0; i < cfg.RoutersPer; i++ {
			addLink(router(as, i), router(as, (i+1)%cfg.RoutersPer), metro(), OC3)
		}
		for c := 0; c < cfg.IntraASDegree; c++ {
			a, b := rng.Intn(cfg.RoutersPer), rng.Intn(cfg.RoutersPer)
			if a != b {
				addLink(router(as, a), router(as, b), metro(), OC3)
			}
		}
	}

	// Same-continent inter-AS links (OC3, 10-40 ms). A random tree over
	// each continent's ASes guarantees connectivity with logarithmic
	// diameter; InterASDegree random chords shorten it further.
	for c := 0; c < cfg.Continents; c++ {
		members := byContinent[c]
		for i := 1; i < len(members); i++ {
			parent := members[rng.Intn(i)]
			addLink(router(members[i], rng.Intn(cfg.RoutersPer)), router(parent, rng.Intn(cfg.RoutersPer)), oc3(), OC3)
		}
		for range members {
			for d := 0; d < cfg.InterASDegree; d++ {
				a := members[rng.Intn(len(members))]
				b := members[rng.Intn(len(members))]
				if a != b {
					addLink(router(a, rng.Intn(cfg.RoutersPer)), router(b, rng.Intn(cfg.RoutersPer)), oc3(), OC3)
				}
			}
		}
	}

	// Inter-continent T3 links. A deterministic ring over the anchor ASes
	// guarantees global connectivity; the remainder are random.
	for c := 0; c < cfg.Continents; c++ {
		a := c // AS index c is the anchor of continent c
		b := (c + 1) % cfg.Continents
		addLink(router(a, rng.Intn(cfg.RoutersPer)), router(b, rng.Intn(cfg.RoutersPer)), t3(), T3)
	}
	for i := cfg.Continents; i < cfg.InterContinentLinks; i++ {
		a, b := rng.Intn(cfg.ASes), rng.Intn(cfg.ASes)
		if continentOf[a] != continentOf[b] {
			addLink(router(a, rng.Intn(cfg.RoutersPer)), router(b, rng.Intn(cfg.RoutersPer)), t3(), T3)
		}
	}
	t.intraStart = make([]int32, t.NumRouters()+1)
	t.intra = flatten(t.intraStart, intra)
	return t
}

// flatten lays undirected links out as a flat adjacency: on return row v
// is adj[start[v]:start[v+1]]. On entry start[v+1] holds the number of
// leading entries to leave empty in row v for the caller to fill.
func flatten(start []int32, links []rawLink) (adj []route) {
	for _, l := range links {
		start[l.a+1]++
		start[l.b+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	adj = make([]route, start[len(start)-1])
	next := append([]int32(nil), start[1:]...) // rows fill from their ends
	for _, l := range links {
		next[l.a]--
		adj[next[l.a]] = route{l.lat, 1, l.b}
		next[l.b]--
		adj[next[l.b]] = route{l.lat, 1, l.a}
	}
	return adj
}

// MinLinkLatency returns the smallest single-link latency in the
// topology: a lower bound on the latency of any route between distinct
// routers, and therefore the conservative lookahead bound for parallel
// simulation (no message between differently-attached nodes can arrive
// sooner than one link traversal).
func (t *Topology) MinLinkLatency() time.Duration { return t.minLink }

// NumRouters returns the number of routers in the topology.
func (t *Topology) NumRouters() int { return t.cfg.ASes * t.cfg.RoutersPer }

// NumLinks returns the number of undirected links.
func (t *Topology) NumLinks() int { return t.numLinks }

// T3Fraction returns the fraction of links that are T3 class.
func (t *Topology) T3Fraction() float64 {
	if t.numLinks == 0 {
		return 0
	}
	return float64(t.t3Links) / float64(t.numLinks)
}

// AttachPoints returns n distinct routers chosen uniformly at random with
// rng, used as overlay-node attachment points.
func (t *Topology) AttachPoints(n int, rng *rand.Rand) []RouterID {
	if n > t.NumRouters() {
		panic(fmt.Sprintf("netmodel: %d attach points requested, only %d routers", n, t.NumRouters()))
	}
	perm := rng.Perm(t.NumRouters())
	out := make([]RouterID, n)
	for i := 0; i < n; i++ {
		out[i] = RouterID(perm[i])
	}
	return out
}

// Path returns the best route between two routers: the lowest latency,
// and among routes of equal latency the fewest hops. That order is total
// over what Path reports (Loss follows from Hops), so an answer depends on
// the graph alone - not on which end was swept, on whether WarmRoutes or
// Path computed it, or on the order links were generated in - and
// Path(a, b) == Path(b, a). Answered pairs are memoized exactly; source
// trees are pooled with FIFO eviction under the memory budget. Path(a, a)
// is the zero Path.
func (t *Topology) Path(from, to RouterID) Path {
	if from == to {
		return Path{}
	}
	if t.warming.Load() {
		panic("netmodel: Path called concurrently with WarmRoutes; finish the warmup before querying (the pair memo would corrupt)")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := mkPair(from, to)
	if p, ok := t.pairs[k]; ok {
		return p
	}
	t.contract(1)
	tree, ok := t.cache[from]
	if !ok {
		// A pooled tree from the destination answers the same query.
		if tree, ok = t.cache[to]; ok {
			from, to = to, from
		} else {
			tree = t.poolTree(from)
			t.sw.run(t, from, tree)
			t.sweeps++
		}
	}
	p := t.sw.path(t, tree, from, to)
	t.pairs[k] = p
	return p
}

// poolTree returns the array for src's tree and pools it, taking over the
// oldest pooled tree's array once the pool is full. Evictions lose nothing
// exact: every answered query stays in the pair memo.
func (t *Topology) poolTree(src RouterID) []route {
	var tree []route
	if len(t.order) < t.maxTrees {
		tree = make([]route, len(t.borders))
		t.order = append(t.order, src)
	} else {
		old := t.order[t.head]
		tree = t.cache[old]
		delete(t.cache, old)
		t.order[t.head] = src
		t.head = (t.head + 1) % len(t.order)
	}
	t.cache[src] = tree
	return tree
}

// RouteStats counts the routing work a topology has done.
type RouteStats struct {
	Sweeps      int // single-source sweeps: WarmRoutes sources plus cold Path misses
	Pairs       int // memoized (src, dst) answers
	Trees       int // source trees in the pool
	Borders     int // border-graph vertices; 0 until the first sweep
	BorderEdges int // border-graph adjacency entries (two per link)
}

// RouteStats reports the counters; like Path, not during WarmRoutes.
func (t *Topology) RouteStats() RouteStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return RouteStats{t.sweeps, len(t.pairs), len(t.cache), len(t.borders), len(t.borderAdj)}
}

// contract builds the border graph if it is not built yet, computing the
// intra-AS border-to-border routes with the given number of goroutines.
// The caller holds mu or, in WarmRoutes, the warming flag.
func (t *Topology) contract(workers int) {
	if t.borderStart != nil {
		return
	}
	per := t.cfg.RoutersPer
	vertex := make([]int32, t.NumRouters()) // router -> border vertex
	for _, l := range t.inter {
		vertex[l.a], vertex[l.b] = 1, 1
	}
	t.asBorders = make([]int32, t.cfg.ASes+1)
	for as := 0; as < t.cfg.ASes; as++ {
		for r := as * per; r < (as+1)*per; r++ {
			if vertex[r] != 0 {
				vertex[r] = int32(len(t.borders))
				t.borders = append(t.borders, RouterID(r))
			}
		}
		t.asBorders[as+1] = int32(len(t.borders))
	}
	// A row starts with one entry per other border router of the AS.
	start := make([]int32, len(t.borders)+1)
	for v, r := range t.borders {
		as := int(r) / per
		start[v+1] = t.asBorders[as+1] - t.asBorders[as] - 1
	}
	for i, l := range t.inter {
		t.inter[i].a, t.inter[i].b = vertex[l.a], vertex[l.b]
	}
	adj := flatten(start, t.inter)
	t.inter = nil

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := t.newSweep()
			for as := w; as < t.cfg.ASes; as += workers {
				lo, hi := t.asBorders[as], t.asBorders[as+1]
				for v := lo; v < hi; v++ {
					sw.within(t, t.borders[v])
					row := adj[start[v]:]
					for o := lo; o < hi; o++ {
						if o != v {
							row[0] = sw.toBorder(t, o)
							row = row[1:]
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	t.borderStart, t.borderAdj = start, adj
	t.sw = t.newSweep()

	// Bound the tree pool by a ~64 MB memory budget so small topologies
	// keep effectively unlimited trees and paper-scale ones stay cheap.
	const treeBudget, routeBytes = 64 << 20, 16
	t.maxTrees = min(max(treeBudget/(routeBytes*len(t.borders)+1), 16), 1024)
}

// WarmRoutes computes and memoizes the paths for the given router pairs,
// running up to workers single-source sweeps concurrently (the graph is
// immutable; each sweep has private state), after building the border
// graph with the same workers if this is its first use. Large simulations
// call this once with every pair their overlay links will use: one sweep
// per distinct source resolves all of that source's pairs, where
// resolving them lazily through Path would recompute sweeps as trees
// rotate out of the bounded pool. Results are identical to Path's, and the memo insert
// order is deterministic. WarmRoutes must not run concurrently with Path
// (or itself); violations panic via the warming flag rather than
// corrupting the memo silently.
func (t *Topology) WarmRoutes(routePairs [][2]RouterID, workers int) {
	if !t.warming.CompareAndSwap(false, true) {
		panic("netmodel: overlapping WarmRoutes calls")
	}
	defer t.warming.Store(false)
	if t.onWarmStart != nil {
		t.onWarmStart()
	}
	// Group unresolved pairs by endpoint, then greedily sweep sources
	// with the most unresolved pairs first so most pairs are answered by
	// one of their two endpoints' single sweep.
	need := make(map[pairKey]bool)
	for _, rp := range routePairs {
		if rp[0] == rp[1] {
			continue
		}
		k := mkPair(rp[0], rp[1])
		if _, done := t.pairs[k]; !done {
			need[k] = true
		}
	}
	if len(need) == 0 {
		return
	}
	bySrc := make(map[RouterID][]RouterID)
	for k := range need {
		bySrc[k.a] = append(bySrc[k.a], k.b)
		bySrc[k.b] = append(bySrc[k.b], k.a)
	}
	srcs := make([]RouterID, 0, len(bySrc))
	for src := range bySrc {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool {
		if len(bySrc[srcs[i]]) != len(bySrc[srcs[j]]) {
			return len(bySrc[srcs[i]]) > len(bySrc[srcs[j]])
		}
		return srcs[i] < srcs[j]
	})

	type task struct {
		src  RouterID
		dsts []RouterID
	}
	var tasks []task
	for _, src := range srcs {
		var dsts []RouterID
		for _, dst := range bySrc[src] {
			if need[mkPair(src, dst)] {
				dsts = append(dsts, dst)
				delete(need, mkPair(src, dst))
			}
		}
		if len(dsts) > 0 {
			sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
			tasks = append(tasks, task{src: src, dsts: dsts})
		}
	}

	if workers < 1 {
		workers = 1
	}
	t.contract(workers)
	t.sweeps += len(tasks)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	type answer struct {
		k pairKey
		p Path
	}
	answers := make([][]answer, len(tasks))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw, tree := t.newSweep(), make([]route, len(t.borders))
			for i := range next {
				tk := tasks[i]
				sw.run(t, tk.src, tree)
				out := make([]answer, len(tk.dsts))
				for j, dst := range tk.dsts {
					out[j] = answer{k: mkPair(tk.src, dst), p: sw.path(t, tree, tk.src, dst)}
				}
				answers[i] = out
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, out := range answers {
		for _, a := range out {
			t.pairs[a.k] = a.p
		}
	}
}

// sweep is the reusable working state of route computation: a typed
// binary heap (no interface boxing) and one AS's worth of routes. Nothing
// is allocated per run after the first.
type sweep struct {
	pq    []route
	intra []route  // set by within; indexed by router minus base
	base  RouterID // first router of the AS within last covered
}

func (t *Topology) newSweep() *sweep {
	return &sweep{pq: make([]route, 0, 1024), intra: make([]route, t.cfg.RoutersPer)}
}

// settle runs Dijkstra from the routes in the heap over a flat adjacency;
// dist[v-base] is the best route to vertex v.
func (sw *sweep) settle(dist []route, base int32, start []int32, adj []route) {
	for len(sw.pq) > 0 {
		at := sw.popMin()
		if at != dist[at.v-base] {
			continue // superseded after it was pushed
		}
		for _, e := range adj[start[at.v]:start[at.v+1]] {
			if alt := at.via(e); alt.less(dist[e.v-base]) {
				dist[e.v-base] = alt
				sw.push(alt)
			}
		}
	}
}

// within sets sw.intra to the best routes from r that stay inside its AS,
// and returns the AS.
func (sw *sweep) within(t *Topology, r RouterID) (as int) {
	as = int(r) / t.cfg.RoutersPer
	sw.base = RouterID(as * t.cfg.RoutersPer)
	for i := range sw.intra {
		sw.intra[i] = unreached
	}
	sw.intra[r-sw.base] = route{v: int32(r)}
	sw.push(sw.intra[r-sw.base])
	sw.settle(sw.intra, int32(sw.base), t.intraStart, t.intra)
	return as
}

// toBorder is within's route to border vertex v of the same AS, as a
// border-graph entry.
func (sw *sweep) toBorder(t *Topology, v int32) route {
	r := sw.intra[t.borders[v]-sw.base]
	r.v = v
	return r
}

// run fills tree with the best route from src to every border router:
// src's AS's border routers start at their intra-AS routes, and the
// border graph carries those outward.
func (sw *sweep) run(t *Topology, src RouterID, tree []route) {
	for i := range tree {
		tree[i] = unreached
	}
	as := sw.within(t, src)
	for v := t.asBorders[as]; v < t.asBorders[as+1]; v++ {
		tree[v] = sw.toBorder(t, v)
		sw.push(tree[v])
	}
	sw.settle(tree, 0, t.borderStart, t.borderAdj)
}

// path reads the route src -> dst off src's tree: the best over dst's
// AS's border routers of the tree's route there plus the intra-AS route
// on to dst, or the route inside the AS when src shares it. Delivery
// probability compounds per hop by repeated multiplication, so it is
// bit-for-bit a function of the hop count.
func (sw *sweep) path(t *Topology, tree []route, src, dst RouterID) Path {
	as := sw.within(t, dst)
	best := unreached
	if int(src)/t.cfg.RoutersPer == as {
		best = sw.intra[src-sw.base]
	}
	for v := t.asBorders[as]; v < t.asBorders[as+1]; v++ {
		if r := tree[v].via(sw.toBorder(t, v)); r.less(best) {
			best = r
		}
	}
	deliver, keep := 1.0, 1-t.cfg.LinkLoss
	for i := int32(0); i < best.hops; i++ {
		deliver *= keep
	}
	return Path{Latency: best.lat, Hops: int(best.hops), Loss: 1 - deliver}
}

func (sw *sweep) push(it route) {
	sw.pq = append(sw.pq, it)
	i := len(sw.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sw.pq[i].less(sw.pq[parent]) {
			break
		}
		sw.pq[parent], sw.pq[i] = sw.pq[i], sw.pq[parent]
		i = parent
	}
}

func (sw *sweep) popMin() route {
	top := sw.pq[0]
	last := len(sw.pq) - 1
	sw.pq[0] = sw.pq[last]
	sw.pq = sw.pq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && sw.pq[l].less(sw.pq[small]) {
			small = l
		}
		if r < last && sw.pq[r].less(sw.pq[small]) {
			small = r
		}
		if small == i {
			break
		}
		sw.pq[i], sw.pq[small] = sw.pq[small], sw.pq[i]
		i = small
	}
	return top
}
