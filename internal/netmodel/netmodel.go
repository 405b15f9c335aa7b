// Package netmodel builds a synthetic wide-area router-level topology and
// answers end-to-end path queries (latency, loss, hop count) between
// attachment points.
//
// It substitutes for the Mercator-derived topology used in the paper
// (102,639 routers, 2,662 ASes, 142,303 links). The experiments depend only
// on the *induced distributions*: round-trip latencies with a significant
// heavy tail (paths crossing one or more intercontinental T3 links; the
// median is fig6's 181.2 ms, not the paper's ~130 ms, see ROADMAP item
// 15), router-level routes of roughly 2-43 hops with a median near 15,
// and per-route loss rates compounding per-link loss.
// The generator reproduces those shapes with a three-level hierarchy:
// continents -> autonomous systems -> router rings, where inter-continent
// links are T3 (300-500 ms) and everything else is OC3 (10-40 ms), matching
// the paper's 97%/3% link-class mix and latency assignments.
//
// Routes are answered from a contracted graph, not from the router graph.
// ASes meet only at border routers (routers with an inter-AS link; ~19.6k
// of the ~104k at paper scale), so every route is a walk inside the
// source's AS, a walk over border routers, and a walk inside the
// destination's AS. The topology keeps each AS's intra-AS links once, as
// a short list a sweep lays out as an adjacency when it enters the AS,
// and, built on first use, a flat adjacency over border routers only:
// the inter-AS links plus, per AS, the best intra-AS route between each
// pair of its border routers. A single-source sweep is then Dijkstra
// over the border graph with a 39-router pass at either end, which is
// ~6x less work than a sweep over every router and gives the same
// answers.
//
// The sweep's queue is a ring of latency buckets (Dial's algorithm), one
// bucket as wide as the topology's cheapest link. Every entry a sweep
// relaxes - a link, or a route between two border routers of one AS -
// costs at least that, so no route in a bucket can improve another in the
// same bucket: the bucket is final in whatever order it is taken, and
// the labels come out bit for bit those of a heap. A border router whose
// route arrived over an intra-AS entry skips the intra-AS part of its
// row: the router it came from has already relaxed those entries, and
// more cheaply.
//
// A route's cost - latency, then hop count - is one packed integer (see
// cost), 8 bytes wherever it is stored: in the adjacencies beside the
// vertex an entry leads to, in a sweep's labels and pooled trees, and in
// the pair memo, which rebuilds a Path from it on every read. An
// intra-AS link, kept once, is 8 bytes in all (see intraLink).
//
// Path answers one pair and WarmRoutes a batch; both fill the one memo
// under one mutex (see Topology).
package netmodel

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// common case, with a T3-induced heavy tail. On the default topology
	// fig6 reads a 181.2 ms median RPC latency (p75 808 ms), not the
	// paper's ~130 ms; ROADMAP item 15 is that calibration. Must have
	// length Continents.
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

// cost is the cost of a route, an edge or an onward route: its latency
// in nanoseconds above hopBits bits of hop count. Integer order is then
// the package's one ordering of routes - lower latency, then fewer hops -
// so a tie never falls to traversal order, and a + b extends route a by
// b. Generate refuses a topology whose sums could overflow either field.
type cost uint64

// hopBits holds the hop count of any route plus one onward step.
const hopBits = 20

func pack(lat time.Duration, hops int) cost { return cost(lat)<<hopBits | cost(hops) }

func (c cost) lat() time.Duration { return time.Duration(c >> hopBits) }

func (c cost) hops() int { return int(c & (1<<hopBits - 1)) }

// unreached compares worse than any real route. It is never extended:
// the unsigned add would wrap.
const unreached = cost(math.MaxUint64)

// rawLink is an undirected link as the generator draws it.
type rawLink struct {
	a, b int32
	lat  time.Duration
}

// intraLink is an intra-AS link as the topology keeps it: its ends
// numbered within the AS and its latency in nanoseconds, 8 bytes.
// Generate refuses a config whose ends or latencies would not fit.
type intraLink struct {
	a, b uint16
	lat  uint32
}

// Topology is an immutable router graph in contracted form plus two path
// caches.
//
// The graph: links holds every intra-AS link once, 8 bytes each, AS by
// AS (AS a's are links[asLinks[a]:asLinks[a+1]]), which is all a route
// needs inside an AS - RoutersPer routers, so a pass over one is
// microseconds. A sweep lays the AS it enters out as a flat adjacency
// of its own (see sweep.within), so no per-router index is kept. The
// border graph (borders, asBorders, borderStart, borderSplit, borderCost,
// borderTo) is a flat adjacency of two parallel arrays, an entry's cost
// and the vertex it leads to, 12 bytes an entry. It has one vertex per
// border router, numbered in router order so an AS's are contiguous; a
// row holds the best intra-AS route to each other border router of the
// same AS, then, from borderSplit on, the router's inter-AS links. It is
// built by contract on first use rather than in Generate, because it
// costs one intra-AS pass per border router (~0.8 ms on the default
// topology, ~25 ms at paper scale, on one goroutine) and generating the
// default topology takes a third of that; until then inter holds the
// generator's inter-AS links. Nothing else of the router graph is kept.
// width and span size a sweep's bucket ring: the cheapest link, and the
// most one step of a sweep can add to a route (see stepBound).
//
// The caches: a memo of answered (src, dst) queries (exact, never evicted
// - the working set of a simulation is the pairs its nodes actually talk
// over; a Path is rebuilt from its cost on every read, its Loss from a
// per-hop-count table) and a FIFO pool of single-source trees that sizes
// itself. A tree is one cost per border router, 8 bytes each: ~157 KB at
// paper scale, ~12 KB on the default topology. Only Path's cold miss
// pools the tree it sweeps, for the next miss from either end. A
// WarmRoutes batch (simnet's batch of the links a node was assembled
// with, or a large deployment's warm-up) pools nothing: the memo keeps
// every pair it answers, and a later miss from the same source sweeps
// again, this time into the pool. That trades a sweep per source a small
// deployment reuses for the trees a large one never does.
//
// The pool starts at 16 trees and grows only when it runs short: eviction
// remembers the evicted source in a list of ghosts (ARC's ghost list,
// reduced to router ids), and a cold miss that sweeps with either end a
// ghost is a regret - a sweep a larger pool would have saved - which drops
// that ghost and adds regretGrowth trees. The ceiling is 256 trees, or a
// ~4 MB budget's worth (26 at paper scale), and the ghost list is at
// most that long. A pool that is not growing hands its oldest tree's
// array to the next sweep, so a cold miss on a full pool allocates
// nothing that grows with the topology.
//
// Concurrency: Path, WarmRoutes and RouteStats each hold one mutex for
// their whole run, so cold misses from parallel simulation shards and a
// warm-up on another goroutine are safe (and still exact - the caches
// only memoize, they never change answers). WarmRoutes's own sweeps run
// in parallel while it holds the mutex.
type Topology struct {
	cfg      Config
	numLinks int
	t3Links  int
	// minInterAS is the smallest inter-AS link latency, the lookahead
	// bound once an AS's nodes share a shard; with no inter-AS link (one
	// AS) it is the smallest link of any kind.
	minInterAS  time.Duration
	width, span time.Duration

	asLinks []int32     // AS -> its first link in links; ASes+1 long
	links   []intraLink // intra-AS links, AS by AS

	inter       []rawLink  // inter-AS links; nil once contracted
	borders     []RouterID // border vertex -> router
	asBorders   []int32    // AS -> its first border vertex; ASes+1 long
	borderStart []int32
	borderSplit []int32 // border vertex -> index of its first inter-AS link
	borderCost  []cost
	borderTo    []int32

	mu       sync.Mutex // guards everything below, and contract
	pairs    map[pairKey]cost
	deliver  []float64           // hops -> delivery probability, grown on demand
	cache    map[RouterID][]cost // pooled trees by source
	order    []RouterID          // ring of pooled sources, oldest at head
	head     int
	capTrees int        // the pool's size: 16 at first, grown on regrets
	maxTrees int        // the pool's ceiling
	ghosts   []RouterID // evicted sources, oldest first; at most maxTrees
	sw       *sweep     // the queries' scratch, and a one-worker batch's
	sweeps   int
	poolHits int // memo misses a pooled tree answered
	evicted  int // pooled trees handed to a newer source
	regrets  int // sweeps with a ghost at either end
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
// cfg.Seed. Every link must cost something, and the latency ranges must
// fit a sweep's bucket ring: the dearest step a sweep can take, over the
// cheapest link, may need at most maxBuckets buckets. Every sum a sweep
// forms - a best route (a simple path) plus one step (no dearer than a
// simple path) - must fit a cost: routers plus RoutersPer below
// 2^hopBits, and the links' latencies summing to under half the 44-bit
// latency field (~2.4 hours; paper scale sums to ~13 minutes). A config
// past either bound panics before its links are laid out.
func Generate(cfg Config) *Topology {
	cheapest := min(cfg.IntraASLatencyMin, cfg.OC3LatencyMin, cfg.T3LatencyMin)
	if cfg.Continents < 1 || cfg.ASes < cfg.Continents || cfg.RoutersPer < 3 || cheapest <= 0 ||
		buckets(cheapest, stepBound(max(cfg.OC3LatencyMax, cfg.T3LatencyMax), cfg.IntraASLatencyMax, cfg.RoutersPer)) > maxBuckets {
		panic(fmt.Sprintf("netmodel: invalid config %+v", cfg))
	}
	if len(cfg.ContinentWeights) != cfg.Continents {
		panic(fmt.Sprintf("netmodel: %d continent weights for %d continents", len(cfg.ContinentWeights), cfg.Continents))
	}
	if (cfg.ASes+1)*cfg.RoutersPer >= 1<<hopBits {
		panic(fmt.Sprintf("netmodel: %d routers of %d per AS overflow a route's %d hop bits", cfg.ASes*cfg.RoutersPer, cfg.RoutersPer, hopBits))
	}
	// An intra-AS link numbers its ends within the AS in 16 bits and
	// keeps its latency in 32. With one continent the T3 ring's one link
	// joins the anchor AS to itself.
	maxIntraLat := cfg.IntraASLatencyMax
	if cfg.Continents == 1 {
		maxIntraLat = max(maxIntraLat, cfg.T3LatencyMax)
	}
	if cfg.RoutersPer > 1<<16 {
		panic(fmt.Sprintf("netmodel: %d routers per AS overflow an intra-AS link's 16-bit ends", cfg.RoutersPer))
	}
	if maxIntraLat >= 1<<32 {
		panic(fmt.Sprintf("netmodel: %v intra-AS links overflow an intra-AS link's 32-bit latency", maxIntraLat))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		cfg:     cfg,
		pairs:   make(map[pairKey]cost),
		deliver: []float64{1},
		cache:   make(map[RouterID][]cost),
	}
	// A link inside one AS goes to its AS's list of links, one between
	// two to the list contract turns into the border graph.
	intra := make([]rawLink, 0, cfg.ASes*(cfg.RoutersPer+cfg.IntraASDegree))
	t.inter = make([]rawLink, 0, cfg.ASes*(1+cfg.InterASDegree)+cfg.InterContinentLinks)
	var maxIntra, maxInter, sum time.Duration
	addLink := func(a, b RouterID, lat time.Duration, class LinkClass) {
		if sum += lat; sum >= 1<<(63-hopBits) {
			panic(fmt.Sprintf("netmodel: link latencies sum past %v, too long for a route's cost", sum))
		}
		l := rawLink{int32(a), int32(b), lat}
		if t.numLinks == 0 || lat < t.width {
			t.width = lat
		}
		if t.ASOf(a) == t.ASOf(b) {
			intra = append(intra, l)
			maxIntra = max(maxIntra, lat)
		} else {
			t.inter = append(t.inter, l)
			maxInter = max(maxInter, lat)
			if len(t.inter) == 1 || lat < t.minInterAS {
				t.minInterAS = lat
			}
		}
		t.numLinks++
		if class == T3 {
			t.t3Links++
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
	if len(t.inter) == 0 {
		// One AS: no route leaves it, so any bound holds; the smallest
		// link keeps it positive, as a lookahead must be.
		t.minInterAS = t.width
	}
	t.span = stepBound(maxInter, maxIntra, cfg.RoutersPer)

	// The links go AS by AS, each AS's in the order they were drawn. A
	// counting pass places them, since the one-continent T3 link lands
	// in AS 0 after every other AS's links.
	t.asLinks = make([]int32, cfg.ASes+1)
	for _, l := range intra {
		t.asLinks[t.ASOf(RouterID(l.a))+1]++
	}
	for as := 1; as <= cfg.ASes; as++ {
		t.asLinks[as] += t.asLinks[as-1]
	}
	next := slices.Clone(t.asLinks[:cfg.ASes])
	t.links = make([]intraLink, len(intra))
	for _, l := range intra {
		as := t.ASOf(RouterID(l.a))
		base := int32(as * cfg.RoutersPer)
		t.links[next[as]] = intraLink{uint16(l.a - base), uint16(l.b - base), uint32(l.lat)}
		next[as]++
	}
	return t
}

// flatten lays undirected links out as a flat adjacency in the caller's
// buffers, growing costs and to only if they are too short: on return row
// v is costs[start[v]:start[v+1]], each entry's far end at the same index
// of to, and the row's links start at split[v]. On entry start[v+1] holds
// the number of leading entries to leave empty in row v for the caller to
// fill, and split is one shorter than start. flattenIntra is the same
// fill for one AS's intra-AS links.
func flatten(start, split []int32, links []rawLink, costs []cost, to []int32) ([]cost, []int32) {
	for _, l := range links {
		start[l.a+1]++
		start[l.b+1]++
	}
	costs, to = rows(start, split, costs, to)
	for _, l := range links {
		c := pack(l.lat, 1)
		split[l.a]--
		costs[split[l.a]], to[split[l.a]] = c, l.b
		split[l.b]--
		costs[split[l.b]], to[split[l.b]] = c, l.a
	}
	return costs, to
}

func flattenIntra(start, split []int32, links []intraLink, costs []cost, to []int32) ([]cost, []int32) {
	for _, l := range links {
		start[l.a+1]++
		start[l.b+1]++
	}
	costs, to = rows(start, split, costs, to)
	for _, l := range links {
		c, a, b := pack(time.Duration(l.lat), 1), int32(l.a), int32(l.b)
		split[a]--
		costs[split[a]], to[split[a]] = c, b
		split[b]--
		costs[split[b]], to[split[b]] = c, a
	}
	return costs, to
}

// rows turns start's per-row counts into offsets, sizes costs and to,
// and points each row's split at its end.
func rows(start, split []int32, costs []cost, to []int32) ([]cost, []int32) {
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	n := int(start[len(start)-1])
	copy(split, start[1:]) // rows fill from their ends
	return slices.Grow(costs[:0], n)[:n], slices.Grow(to[:0], n)[:n]
}

// MinInterASLatency returns the smallest inter-AS link latency: a lower
// bound on the latency of any route between routers in different ASes,
// since such a route crosses at least one inter-AS link. It is the
// conservative lookahead bound for parallel simulation when each AS's
// nodes share a shard. A route inside one AS may undercut it. On a
// topology with no inter-AS link (one AS) it is the smallest link
// latency instead.
func (t *Topology) MinInterASLatency() time.Duration { return t.minInterAS }

// ASOf returns the autonomous system router r belongs to.
func (t *Topology) ASOf(r RouterID) int { return int(r) / t.cfg.RoutersPer }

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
// Path(a, b) == Path(b, a). An answered pair is memoized exactly; a miss
// reads a pooled tree of either end, or else sweeps from the source into
// a pooled tree. Path(a, a) is the zero Path.
func (t *Topology) Path(from, to RouterID) Path {
	if from == to {
		return Path{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := mkPair(from, to)
	if c, ok := t.pairs[k]; ok {
		return t.pathOf(c)
	}
	t.contract(1)
	tree, ok := t.cache[from]
	if !ok {
		// A pooled tree from the destination answers the same query.
		if tree, ok = t.cache[to]; ok {
			from, to = to, from
		}
	}
	if ok {
		t.poolHits++
	} else {
		t.regret(from, to)
		tree = t.poolTree(from)
		t.sw.run(t, from, tree)
		t.sweeps++
	}
	c := t.sw.path(t, tree, from, to)
	t.pairs[k] = c
	return t.pathOf(c)
}

// pathOf is the Path a route of cost c describes. Delivery probability
// compounds per hop by repeated multiplication, left to right, in a table
// grown as longer routes turn up, so Loss is bit for bit a function of
// the hop count. The caller holds mu.
func (t *Topology) pathOf(c cost) Path {
	h := c.hops()
	for len(t.deliver) <= h {
		t.deliver = append(t.deliver, t.deliver[len(t.deliver)-1]*(1-t.cfg.LinkLoss))
	}
	return Path{Latency: c.lat(), Hops: h, Loss: 1 - t.deliver[h]}
}

// poolTree returns the array for src's tree and pools it as the newest,
// taking over the oldest pooled tree's array once the pool is full and
// remembering the evicted source as a ghost. Evictions lose nothing
// exact: every answered query stays in the pair memo.
func (t *Topology) poolTree(src RouterID) []cost {
	var tree []cost
	if len(t.order) < t.capTrees {
		// The newest slot of the ring is the one before its head.
		tree = make([]cost, len(t.borders))
		t.order = slices.Insert(t.order, t.head, src)
		t.head = (t.head + 1) % len(t.order)
	} else {
		old := t.order[t.head]
		tree = t.cache[old]
		delete(t.cache, old)
		t.evicted++
		if len(t.ghosts) == t.maxTrees {
			t.ghosts = slices.Delete(t.ghosts, 0, 1)
		}
		t.ghosts = append(t.ghosts, old)
		t.order[t.head] = src
		t.head = (t.head + 1) % len(t.order)
	}
	t.cache[src] = tree
	return tree
}

// regretGrowth is the trees a regret adds to the pool. Growing by one
// holds the least heap, but a deployment that reuses ~100 sources then
// sweeps ~40% more than a pool that never evicts; growing by two pools
// ~10 more trees on a 1,000-node deployment and halves that.
const regretGrowth = 2

// regret is called before a cold miss between a and b sweeps. If either
// end is a ghost, a larger pool would have spared the sweep: the ghost
// goes and the pool grows by regretGrowth trees, up to its ceiling.
func (t *Topology) regret(a, b RouterID) {
	i := slices.Index(t.ghosts, a)
	if i < 0 {
		if i = slices.Index(t.ghosts, b); i < 0 {
			return
		}
	}
	t.ghosts = slices.Delete(t.ghosts, i, i+1)
	t.regrets++
	t.capTrees = min(t.capTrees+regretGrowth, t.maxTrees)
}

// RouteStats counts the routing work a topology has done.
type RouteStats struct {
	Sweeps      int // single-source sweeps: WarmRoutes sources plus cold Path misses
	Pairs       int // memoized (src, dst) answers
	Trees       int // source trees in the pool
	Cap         int // trees the pool holds before it evicts; grows on regrets
	Borders     int // border-graph vertices; 0 until the first sweep
	BorderEdges int // border-graph adjacency entries (two per link)
	PoolHits    int // memo misses a pooled tree answered, each a sweep spared
	Evicted     int // pooled trees evicted to pool a newer source's
	Regrets     int // sweeps whose source's or destination's tree had been evicted
}

// RouteStats reports the counters.
func (t *Topology) RouteStats() RouteStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return RouteStats{
		Sweeps: t.sweeps, Pairs: len(t.pairs), Trees: len(t.cache), Cap: t.capTrees,
		Borders: len(t.borders), BorderEdges: len(t.borderTo),
		PoolHits: t.poolHits, Evicted: t.evicted, Regrets: t.regrets,
	}
}

// contract builds the border graph if it is not built yet, computing the
// intra-AS border-to-border routes with the given number of goroutines.
// The caller holds mu.
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
	split := make([]int32, len(t.borders))
	for v, r := range t.borders {
		as := t.ASOf(r)
		start[v+1] = t.asBorders[as+1] - t.asBorders[as] - 1
	}
	for i, l := range t.inter {
		t.inter[i].a, t.inter[i].b = vertex[l.a], vertex[l.b]
	}
	costs, to := flatten(start, split, t.inter, nil, nil)
	t.inter = nil

	t.sw = t.newSweep()
	t.fanOut(workers, t.cfg.ASes, func(sw *sweep, as int) {
		lo, hi := t.asBorders[as], t.asBorders[as+1]
		for v := lo; v < hi; v++ {
			sw.within(t, t.borders[v])
			k := start[v]
			for o := lo; o < hi; o++ {
				if o != v {
					costs[k], to[k] = sw.toBorder(t, o), o
					k++
				}
			}
		}
	})
	t.borderStart, t.borderSplit, t.borderCost, t.borderTo = start, split, costs, to

	// The tree pool starts at minTrees and grows on regrets up to a
	// ceiling: a ~4 MB memory budget, and 256 trees. The pairs of a
	// node's assembled links cost it one batched sweep (WarmRoutes, from
	// simnet) that pools nothing, so the pool serves only pairs nobody
	// dialed ahead: a root's messages to its members, a repair's new
	// neighbour. How many sources a deployment keeps reusing for those
	// varies by workload - a 1,000-node steady run grows the pool to 36
	// trees, a 150-node churn run to ~70, 5,000 standing groups on 100
	// nodes to ~100 - so no fixed size fits. On the default topology the
	// budget would allow ~370 trees, so 256 binds. At paper scale the
	// budget binds at 26: a 214-tree pool there held ~33 MB and answered
	// only 79 of the full 16k run's ~1,000 misses after warm-up.
	const treeBudget, costBytes, treeCap, minTrees = 4 << 20, 8, 256, 16
	t.maxTrees = min(max(treeBudget/(costBytes*len(t.borders)+1), minTrees), treeCap)
	t.capTrees = minTrees
	t.ghosts = make([]RouterID, 0, t.maxTrees)
}

// WarmRoutes computes and memoizes the paths for the given router pairs,
// running up to workers single-source sweeps concurrently (the graph is
// immutable; each sweep has private state), after building the border
// graph with the same workers if this is its first use. Each unanswered
// pair is swept from whichever end has more unanswered pairs in the
// batch, the lower router on a tie, so one sweep per source resolves all
// of that source's pairs. Large simulations call this once with every
// pair their overlay links will use, and simnet calls it with one worker
// for a node's assembled links at its first send. A batch pools no tree:
// one worker sweeps into the query sweep's own tree, more into trees
// that go when the call returns. Results are identical to Path's.
func (t *Topology) WarmRoutes(routePairs [][2]RouterID, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	need, tasks := t.plan(routePairs)
	if len(need) == 0 {
		return
	}
	t.contract(workers)
	t.sweeps += len(tasks) - 1
	costs := make([]cost, len(need))
	t.fanOut(workers, len(tasks)-1, func(sw *sweep, i int) {
		if sw.tree == nil {
			sw.tree = make([]cost, len(t.borders))
		}
		src := need[tasks[i]].a
		sw.run(t, src, sw.tree)
		for j := tasks[i]; j < tasks[i+1]; j++ {
			costs[j] = sw.path(t, sw.tree, src, need[j].b)
		}
	})
	for j, k := range need {
		t.pairs[mkPair(k.a, k.b)] = costs[j]
	}
}

// plan lists the unanswered pairs among routePairs once each, as (the end
// to sweep from, the other end), sorted by that source: the end with more
// unanswered pairs in the batch, the lower router on a tie. Task i is
// need[tasks[i]:tasks[i+1]], one source's pairs. The caller holds mu.
func (t *Topology) plan(routePairs [][2]RouterID) (need []pairKey, tasks []int) {
	need = make([]pairKey, 0, len(routePairs))
	for _, rp := range routePairs {
		if k := mkPair(rp[0], rp[1]); k.a != k.b {
			if _, done := t.pairs[k]; !done {
				need = append(need, k)
			}
		}
	}
	if len(need) == 0 {
		return nil, nil
	}
	byPair := func(x, y pairKey) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) }
	slices.SortFunc(need, byPair)
	need = slices.Compact(need)
	count := make(map[RouterID]int, len(need))
	for _, k := range need {
		count[k.a]++
		count[k.b]++
	}
	for i, k := range need {
		if count[k.b] > count[k.a] {
			need[i] = pairKey{k.b, k.a}
		}
	}
	slices.SortFunc(need, byPair)
	tasks = []int{0}
	for i := 1; i < len(need); i++ {
		if need[i].a != need[i-1].a {
			tasks = append(tasks, i)
		}
	}
	return need, append(tasks, len(need))
}

// fanOut calls do(sw, i) for every i in [0, n) on up to workers
// goroutines, each with a sweep of its own. One worker runs them on the
// caller's goroutine with the query sweep; more get fresh sweeps, which
// go when fanOut returns. The caller holds mu.
func (t *Topology) fanOut(workers, n int, do func(sw *sweep, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(t.sw, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw := t.newSweep()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(sw, i)
			}
		}()
	}
	wg.Wait()
}

// maxBuckets caps a sweep's ring, and with it the spread of link
// latencies a topology may have (Generate checks it).
const maxBuckets = 1 << 16

// stepBound is the most one step of a sweep can add to a route, given
// the dearest inter-AS and intra-AS links: an inter-AS link, or a route
// inside one AS, which is no dearer than the shorter way round the AS's
// ring of routersPer routers. That covers every border-graph entry and
// every route a sweep is seeded with.
func stepBound(maxInter, maxIntra time.Duration, routersPer int) time.Duration {
	return max(maxInter, time.Duration(routersPer/2)*maxIntra)
}

// buckets is the ring size for buckets width wide and steps of at most
// span. A route lands at most span/width + 1 buckets past the cursor -
// a step from the cursor's bucket, or a seed pushed while the cursor
// waits one bucket before 0 - so the ring holds that many and the
// cursor's own.
func buckets(width, span time.Duration) int { return int(span/width) + 2 }

// sweep is the reusable working state of route computation: a bucket
// ring, and one AS's adjacency and worth of routes. Its arrays are sized
// once, from the topology, and nothing is allocated per run.
//
// The ring is circular doubly linked lists threaded through next and
// prev: queued vertex i (a border vertex, or a router numbered within its
// AS) is node i, and bucket b's list starts and ends at node heads+b. A
// bucket holds the vertices whose label lies within width of the
// bucket's floor; cur is the bucket being settled and floor its lower
// edge. Between runs the cursor waits one bucket before latency 0, so
// every route queued, seeds included, lands past it. Linking a vertex in
// or out of a bucket is O(1), so a label that improves moves buckets
// without leaving a stale entry behind.
type sweep struct {
	width      time.Duration
	next, prev []int32
	heads      int32 // node of bucket 0's list; vertices are the nodes below it
	ring       int32 // number of buckets
	cur        int32
	floor      time.Duration
	queued     int
	short      []bool // per vertex: its label arrived over an intra-AS entry, or seeded the run

	intra []cost   // set by within; indexed by router minus base
	base  RouterID // first router of the AS within last covered

	// The adjacency of AS as, laid out by within when it moves to another
	// AS: row i (router base+i) is costs[start[i]:start[i+1]], each
	// entry's far end, numbered within the AS, at the same index of to.
	// Every entry is a link, so split equals start. The buffers are
	// sized once, for the AS with the most links.
	as           int
	start, split []int32
	costs        []cost
	to           []int32

	tree []cost // a WarmRoutes batch's tree; nil until the first batch
}

func (t *Topology) newSweep() *sweep {
	n, ring := max(len(t.borders), t.cfg.RoutersPer), buckets(t.width, t.span)
	most := int32(0)
	for as := 0; as < t.cfg.ASes; as++ {
		most = max(most, t.asLinks[as+1]-t.asLinks[as])
	}
	sw := &sweep{
		width: t.width,
		next:  make([]int32, n+ring),
		prev:  make([]int32, n+ring),
		heads: int32(n),
		ring:  int32(ring),
		cur:   int32(ring) - 1,
		floor: -t.width,
		short: make([]bool, n),
		intra: make([]cost, t.cfg.RoutersPer),
		as:    -1,
		start: make([]int32, t.cfg.RoutersPer+1),
		split: make([]int32, t.cfg.RoutersPer),
		costs: make([]cost, 0, 2*most),
		to:    make([]int32, 0, 2*most),
	}
	for h := n; h < n+ring; h++ {
		sw.next[h], sw.prev[h] = int32(h), int32(h)
	}
	return sw
}

// push queues vertex i under latency lat. A route that does not land
// past the cursor's bucket and inside the ring would be settled out of
// order: some entry undercut the bucket width or overran the span.
func (sw *sweep) push(i int32, lat time.Duration, short bool) {
	off := (lat - sw.floor) / sw.width
	if off < 1 || off >= time.Duration(sw.ring) {
		panic("netmodel: a route fell outside the sweep's bucket ring")
	}
	b := sw.cur + int32(off)
	if b >= sw.ring {
		b -= sw.ring
	}
	h := sw.heads + b
	n := sw.next[h]
	sw.next[i], sw.prev[i] = n, h
	sw.next[h], sw.prev[n] = i, i
	sw.short[i] = short
	sw.queued++
}

// unlink takes queued vertex i out of its bucket.
func (sw *sweep) unlink(i int32) {
	p, n := sw.prev[i], sw.next[i]
	sw.next[p], sw.prev[n] = n, p
	sw.queued--
}

// settle runs Dijkstra from the queued vertices over a flat adjacency;
// dist[v] is the best route to vertex v. Row v is
// costs[start[v]:start[v+1]] (and the same span of to), and its entries
// before split[v] are intra-AS routes, which a vertex whose label arrived
// over one need not relax. Buckets are settled in latency order, each in
// any order; the ring is left empty with its cursor back before 0, ready
// to be seeded again. A label is extended only once settled, so an
// unreached one never is.
func (sw *sweep) settle(dist []cost, start, split []int32, costs []cost, to []int32) {
	for sw.queued > 0 {
		if sw.cur++; sw.cur == sw.ring {
			sw.cur = 0
		}
		sw.floor += sw.width
		h := sw.heads + sw.cur
		for i := sw.next[h]; i != h; i = sw.next[h] {
			sw.unlink(i)
			at := dist[i]
			lo, mid := start[i], split[i]
			if sw.short[i] {
				lo = mid
			}
			cs, ts := costs[lo:start[i+1]], to[lo:start[i+1]]
			for k, c := range cs {
				j := ts[k]
				if alt := at + c; alt < dist[j] {
					if dist[j] != unreached {
						sw.unlink(j) // queued under a worse label
					}
					dist[j] = alt
					sw.push(j, alt.lat(), lo+int32(k) < mid)
				}
			}
		}
	}
	sw.cur, sw.floor = sw.ring-1, -sw.width
}

// within sets sw.intra to the best routes from r that stay inside its AS,
// and returns the AS. It lays the AS's links out first if the last call
// was in another AS.
func (sw *sweep) within(t *Topology, r RouterID) (as int) {
	if as = t.ASOf(r); as != sw.as {
		clear(sw.start)
		sw.costs, sw.to = flattenIntra(sw.start, sw.split, t.links[t.asLinks[as]:t.asLinks[as+1]], sw.costs, sw.to)
		sw.as, sw.base = as, RouterID(as*t.cfg.RoutersPer)
	}
	for i := range sw.intra {
		sw.intra[i] = unreached
	}
	i := int32(r - sw.base)
	sw.intra[i] = 0
	sw.push(i, 0, false)
	sw.settle(sw.intra, sw.start, sw.split, sw.costs, sw.to)
	return as
}

// toBorder is the cost of within's route to border vertex v of the same
// AS.
func (sw *sweep) toBorder(t *Topology, v int32) cost {
	return sw.intra[t.borders[v]-sw.base]
}

// run fills tree with the best route from src to every border router:
// src's AS's border routers start at their intra-AS routes, and the
// border graph carries those outward. A seed relaxes no intra-AS entry,
// since the seed of every other border router of the AS is at least as
// good as a route through it.
func (sw *sweep) run(t *Topology, src RouterID, tree []cost) {
	for i := range tree {
		tree[i] = unreached
	}
	as := sw.within(t, src)
	for v := t.asBorders[as]; v < t.asBorders[as+1]; v++ {
		tree[v] = sw.toBorder(t, v)
		sw.push(v, tree[v].lat(), true)
	}
	sw.settle(tree, t.borderStart, t.borderSplit, t.borderCost, t.borderTo)
}

// path reads the cost of route src -> dst off src's tree: the best over
// dst's AS's border routers of the tree's route there plus the intra-AS
// route on to dst, or the route inside the AS when src shares it. The
// generator's topology is connected, so every tree entry extended here
// is reached.
func (sw *sweep) path(t *Topology, tree []cost, src, dst RouterID) cost {
	as := sw.within(t, dst)
	best := unreached
	if t.ASOf(src) == as {
		best = sw.intra[src-sw.base]
	}
	for v := t.asBorders[as]; v < t.asBorders[as+1]; v++ {
		best = min(best, tree[v]+sw.toBorder(t, v))
	}
	return best
}
