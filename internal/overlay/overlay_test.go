package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// cluster is a simulated overlay population for tests.
type cluster struct {
	sim     *eventsim.Sim
	net     *simnet.Net
	nodes   []*Node
	clients []*recClient
	byName  map[string]*Node
}

// probeMsg is a test-only routed payload: arbitrary values cannot cross
// the transport any more, so the routing tests register one probe type.
type probeMsg struct {
	body
	S string
}

func init() {
	transport.Register("overlay.test.probe", func() transport.Message { return new(probeMsg) })
}

func probe(s string) *probeMsg { return &probeMsg{S: s} }

// recClient records upcalls for assertions.
type recClient struct {
	routes    []RouteInfo
	payloads  map[string][]byte // last payload per pinger name
	sentOn    map[string]uint32 // link id of the last ping sent, per neighbor name
	heardOn   map[string]uint32 // link id of the last ping received, per pinger name
	down      []NodeRef
	up        []NodeRef
	closed    []closedLink
	events    []string // "up", "down" and "closed", in the order they came
	provide   func(neighbor NodeRef) []byte
	onMessage func(msg transport.Message, info RouteInfo)
}

func (c *recClient) OnRouteMessage(msg transport.Message, info RouteInfo) {
	c.routes = append(c.routes, info)
	if c.onMessage != nil {
		c.onMessage(msg, info)
	}
}

func (c *recClient) LinkPayload(link uint32, neighbor NodeRef) []byte {
	if c.sentOn == nil {
		c.sentOn = make(map[string]uint32)
	}
	c.sentOn[neighbor.Name] = link
	if c.provide != nil {
		return c.provide(neighbor)
	}
	return nil
}

func (c *recClient) OnLinkPayload(link uint32, neighbor NodeRef, payload []byte) {
	if c.payloads == nil {
		c.payloads, c.heardOn = make(map[string][]byte), make(map[string]uint32)
	}
	c.payloads[neighbor.Name] = payload
	c.heardOn[neighbor.Name] = link
}

func (c *recClient) OnNeighborDown(neighbor NodeRef) {
	c.down = append(c.down, neighbor)
	c.events = append(c.events, "down "+neighbor.Name)
}

func (c *recClient) OnNeighborUp(link uint32, neighbor NodeRef) {
	c.up = append(c.up, neighbor)
	c.events = append(c.events, "up "+neighbor.Name)
}

// closedLink is one OnLinkClosed upcall.
type closedLink struct {
	link     uint32
	neighbor NodeRef
}

func (c *recClient) OnLinkClosed(link uint32, neighbor NodeRef) {
	c.closed = append(c.closed, closedLink{link, neighbor})
	c.events = append(c.events, "closed "+neighbor.Name)
}

func newCluster(t testing.TB, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	sim := eventsim.New(seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(seed))
	net := simnet.New(sim, topo, simnet.Options{})
	pts := topo.AttachPoints(n, sim.Rand())
	cl := &cluster{sim: sim, net: net, byName: make(map[string]*Node)}
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("node-%03d", i))
		env := net.AddNode(addr, pts[i])
		nd := New(env, cfg, fmt.Sprintf("n%03d.example.org", i))
		rc := &recClient{}
		nd.SetClient(rc)
		cl.nodes = append(cl.nodes, nd)
		cl.clients = append(cl.clients, rc)
		cl.byName[nd.Self().Name] = nd
		func(nd *Node) {
			net.SetHandler(addr, func(from transport.Addr, msg transport.Message) {
				nd.Handle(from, msg)
			})
		}(nd)
	}
	return cl
}

func (cl *cluster) assemble() { AssembleStatic(cl.nodes) }

func TestDigitsOfDeterministicAndBounded(t *testing.T) {
	a := DigitsOf("alpha.example.org", 8, 32)
	b := DigitsOf("alpha.example.org", 8, 32)
	if len(a) != 32 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("digits not deterministic")
		}
		if a[i] >= 8 {
			t.Fatalf("digit %d out of base range", a[i])
		}
	}
	c := DigitsOf("beta.example.org", 8, 32)
	if SharedPrefix(a, c) == 32 {
		t.Fatal("distinct names produced identical digits")
	}
}

func TestSharedPrefix(t *testing.T) {
	cases := []struct {
		a, b []byte
		want int
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}, 2},
		{[]byte{1}, []byte{1}, 1},
		{[]byte{2}, []byte{1}, 0},
		{nil, []byte{1}, 0},
	}
	for _, c := range cases {
		if got := SharedPrefix(c.a, c.b); got != c.want {
			t.Fatalf("SharedPrefix(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestClockwiseGeometry(t *testing.T) {
	// In the circular order anchored at "m": n, z wrap to a, l, m(self).
	if !(cwDist("m", "n", "z") < 0) {
		t.Fatal("n should be closer than z clockwise from m")
	}
	if !(cwDist("m", "z", "a") < 0) {
		t.Fatal("z (segment 0) should precede a (wrapped)")
	}
	if !(cwDist("m", "a", "l") < 0) {
		t.Fatal("a should precede l after wrap")
	}
	if cwDist("m", "q", "q") != 0 {
		t.Fatal("equal names should compare equal")
	}
	if !betweenCW("a", "b", "c") || betweenCW("a", "c", "b") == false && false {
		t.Fatal("betweenCW basic failed")
	}
	if betweenCW("a", "a", "c") || betweenCW("a", "c", "c") {
		t.Fatal("interval endpoints are exclusive")
	}
	if !betweenCW("c", "a", "b") {
		t.Fatal("wrap-around interval failed")
	}
	if !betweenCW("x", "y", "x") {
		t.Fatal("full-circle interval should contain everything but the anchor")
	}
}

func TestAssembleStaticInvariants(t *testing.T) {
	cl := newCluster(t, 48, 1, DefaultConfig())
	cl.assemble()
	for _, nd := range cl.nodes {
		succ := nd.Successor()
		pred := nd.Predecessor()
		if succ.IsZero() || pred.IsZero() {
			t.Fatalf("%s missing level-0 neighbors", nd.Self().Name)
		}
		// Symmetry: my successor's predecessor is me.
		if got := cl.byName[succ.Name].Predecessor(); got.Name != nd.Self().Name {
			t.Fatalf("%s succ %s has pred %s", nd.Self().Name, succ.Name, got.Name)
		}
		if len(nd.leafR) != leafSize/2 || len(nd.leafL) != leafSize/2 {
			t.Fatalf("%s leaf sizes %d/%d", nd.Self().Name, len(nd.leafR), len(nd.leafL))
		}
		// Ring pointers must share the prefix of their level and be
		// symmetric.
		for h := 1; h <= maxLevels; h++ {
			r := nd.ring(h, true)
			if r.IsZero() {
				continue
			}
			other := cl.byName[r.Name]
			if SharedPrefix(nd.digits, other.digits) < h {
				t.Fatalf("%s level-%d right %s shares too little prefix", nd.Self().Name, h, r.Name)
			}
			if other.ring(h, false).Name != nd.Self().Name {
				t.Fatalf("ring asymmetry at level %d: %s -> %s", h, nd.Self().Name, r.Name)
			}
		}
	}
}

func TestNeighborCountBallpark(t *testing.T) {
	cl := newCluster(t, 400, 2, DefaultConfig())
	cl.assemble()
	totals := 0
	for _, nd := range cl.nodes {
		totals += len(nd.Neighbors())
	}
	avg := float64(totals) / float64(len(cl.nodes))
	// Paper: 32.3 distinct neighbors per node at 400 nodes (base 8, leaf
	// 16). Our construction should land in the same regime.
	if avg < 15 || avg > 45 {
		t.Fatalf("avg distinct neighbors = %.1f, want ~20-35", avg)
	}
}

func TestRoutingReachesEveryNode(t *testing.T) {
	cl := newCluster(t, 64, 3, DefaultConfig())
	cl.assemble()
	maxHops := 0
	for i, src := range cl.nodes {
		for j, dst := range cl.nodes {
			if i == j {
				continue
			}
			rc := cl.clients[j]
			before := len(rc.routes)
			src.RouteTo(dst.Self().Name, probe("probe"))
			cl.sim.RunFor(time.Minute)
			if len(rc.routes) <= before {
				t.Fatalf("route %s -> %s never arrived", src.Self().Name, dst.Self().Name)
			}
			last := rc.routes[len(rc.routes)-1]
			if !last.Arrived || last.Dest != dst.Self().Name {
				t.Fatalf("bad arrival %+v", last)
			}
			if last.Hops > maxHops {
				maxHops = last.Hops
			}
		}
	}
	if maxHops > 12 {
		t.Fatalf("max hops = %d for 64 nodes, want O(log n)", maxHops)
	}
}

func TestRouteToAbsentNameDiesAtPredecessor(t *testing.T) {
	cl := newCluster(t, 32, 4, DefaultConfig())
	cl.assemble()
	src := cl.nodes[0]
	dead := "n999.example.org" // sorts after every real node name
	src.RouteTo(dead, probe("probe"))
	cl.sim.RunFor(time.Minute)
	found := false
	for i, rc := range cl.clients {
		for _, ri := range rc.routes {
			if ri.Dest == dead {
				if !ri.Dead {
					t.Fatalf("non-dead upcall for absent dest at %s: %+v", cl.nodes[i].Self().Name, ri)
				}
				// The node where routing dies must be the predecessor:
				// the last name before n999 in the circular order.
				if got, want := cl.nodes[i].Self().Name, cl.nodes[len(cl.nodes)-1].Self().Name; got != want {
					t.Fatalf("died at %s, want predecessor %s", got, want)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no dead-route upcall observed")
	}
}

func TestRouteToSelfDeliversLocally(t *testing.T) {
	cl := newCluster(t, 8, 5, DefaultConfig())
	cl.assemble()
	cl.nodes[0].RouteTo(cl.nodes[0].Self().Name, probe("loop"))
	cl.sim.RunFor(time.Second)
	rc := cl.clients[0]
	if len(rc.routes) != 1 || !rc.routes[0].Arrived {
		t.Fatalf("self route upcalls: %+v", rc.routes)
	}
}

func TestPerHopUpcallChain(t *testing.T) {
	cl := newCluster(t, 64, 6, DefaultConfig())
	cl.assemble()
	src, dst := cl.nodes[3], cl.nodes[40]
	first, ok := src.RouteTo(dst.Self().Name, probe("chain"))
	if !ok {
		t.Fatal("no first hop")
	}
	cl.sim.RunFor(time.Minute)
	// Collect upcalls for this route across all nodes, ordered by hop.
	type hopRec struct {
		node string
		info RouteInfo
	}
	var hops []hopRec
	for i, rc := range cl.clients {
		for _, ri := range rc.routes {
			if ri.Dest == dst.Self().Name && ri.Origin.Name == src.Self().Name {
				hops = append(hops, hopRec{cl.nodes[i].Self().Name, ri})
			}
		}
	}
	if len(hops) == 0 {
		t.Fatal("no upcalls recorded")
	}
	byHop := make(map[int]hopRec)
	for _, h := range hops {
		byHop[h.info.Hops] = h
	}
	// Hop 1 is at the first-hop node returned by RouteTo.
	if byHop[1].node != first.Name {
		t.Fatalf("hop-1 upcall at %s, want %s", byHop[1].node, first.Name)
	}
	// The chain is linked: each hop's Next is the node of the following
	// upcall, and each hop's Prev is the node of the preceding one.
	for h := 1; ; h++ {
		cur, ok := byHop[h]
		if !ok {
			t.Fatalf("missing upcall for hop %d", h)
		}
		if cur.info.Arrived {
			if cur.node != dst.Self().Name {
				t.Fatalf("arrived at %s, want %s", cur.node, dst.Self().Name)
			}
			break
		}
		next, ok := byHop[h+1]
		if !ok {
			t.Fatalf("chain broken after hop %d", h)
		}
		if cur.info.Next.Name != next.node {
			t.Fatalf("hop %d Next=%s but hop %d ran at %s", h, cur.info.Next.Name, h+1, next.node)
		}
		if next.info.Prev.Name != cur.node {
			t.Fatalf("hop %d Prev=%s, want %s", h+1, next.info.Prev.Name, cur.node)
		}
	}
}

func TestPingPiggybackDeliversPayload(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 8, 7, cfg)
	for i, rc := range cl.clients {
		name := cl.nodes[i].Self().Name
		rc.provide = func(neighbor NodeRef) []byte {
			return []byte(name + "->" + neighbor.Name)
		}
	}
	cl.assemble()
	cl.sim.RunFor(cfg.PingInterval + cfg.PingTimeout)
	for i, rc := range cl.clients {
		self := cl.nodes[i].Self().Name
		if len(rc.payloads) == 0 {
			t.Fatalf("%s received no ping payloads", self)
		}
		for from, payload := range rc.payloads {
			if want := from + "->" + self; string(payload) != want {
				t.Fatalf("payload %q, want %q", payload, want)
			}
		}
	}
}

func TestSteadyStateTrafficIsPingsOnly(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 32, 8, cfg)
	cl.assemble()
	cl.sim.RunFor(10 * cfg.PingInterval)
	sent := cl.net.Sent()
	if sent == 0 {
		t.Fatal("no traffic at all")
	}
	// Expected: per node, one ping per neighbor per interval plus one ack
	// for each received ping. No other traffic in a failure-free overlay.
	var neighborLinks int
	for _, nd := range cl.nodes {
		neighborLinks += len(nd.Neighbors())
	}
	expected := uint64(10 * 2 * neighborLinks) // ping + ack, both directions counted via each node's own neighbor list
	// Allow slack for the staggered first interval.
	if sent > expected+uint64(neighborLinks)*2 {
		t.Fatalf("sent %d messages, want <= ~%d (pings+acks only)", sent, expected)
	}
}

func TestNeighborDeathDetectedAndReported(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 32, 9, cfg)
	cl.assemble()
	victim := cl.nodes[10]
	victimName := victim.Self().Name
	// Who monitors the victim?
	var watchers []int
	for i, nd := range cl.nodes {
		if i == 10 {
			continue
		}
		for _, nb := range nd.Neighbors() {
			if nb.Name == victimName {
				watchers = append(watchers, i)
			}
		}
	}
	if len(watchers) == 0 {
		t.Fatal("victim has no watchers")
	}
	cl.net.Crash(transport.Addr("node-010"))
	cl.sim.RunFor(2 * (cfg.PingInterval + cfg.PingTimeout))
	for _, w := range watchers {
		found := false
		for _, d := range cl.clients[w].down {
			if d.Name == victimName {
				found = true
			}
		}
		if !found {
			t.Fatalf("watcher %s did not report %s down", cl.nodes[w].Self().Name, victimName)
		}
		for _, nb := range cl.nodes[w].Neighbors() {
			if nb.Name == victimName {
				t.Fatalf("watcher %s still lists dead neighbor", cl.nodes[w].Self().Name)
			}
		}
	}
}

func TestRoutingSurvivesCrashes(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 64, 10, cfg)
	cl.assemble()
	crashed := map[int]bool{7: true, 21: true, 38: true, 52: true, 60: true}
	for i := range crashed {
		cl.net.Crash(transport.Addr(fmt.Sprintf("node-%03d", i)))
	}
	// Let detection and repair run for several ping cycles.
	cl.sim.RunFor(4 * (cfg.PingInterval + cfg.PingTimeout))
	// All live pairs must still route successfully.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if i == j || crashed[i] || crashed[j] {
			continue
		}
		src, dst := cl.nodes[i], cl.nodes[j]
		rc := cl.clients[j]
		before := len(rc.routes)
		src.RouteTo(dst.Self().Name, probe(fmt.Sprint(trial)))
		cl.sim.RunFor(time.Minute)
		if len(rc.routes) <= before || !rc.routes[len(rc.routes)-1].Arrived {
			t.Fatalf("route %s -> %s failed after crashes", src.Self().Name, dst.Self().Name)
		}
	}
}

func TestJoinIntegratesNewNodes(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 24, 11, cfg)
	cl.assemble()

	// Add 8 newcomers via the join protocol through random bootstrap
	// nodes.
	var newNodes []*Node
	var newClients []*recClient
	pts := func() []netmodel.RouterID {
		topo := netmodel.Generate(netmodel.DefaultConfig(11))
		return topo.AttachPoints(400, rand.New(rand.NewSource(5)))
	}()
	for k := 0; k < 8; k++ {
		addr := transport.Addr(fmt.Sprintf("new-%03d", k))
		env := cl.net.AddNode(addr, pts[100+k])
		nd := New(env, cfg, fmt.Sprintf("j%03d.example.net", k))
		rc := &recClient{}
		nd.SetClient(rc)
		cl.byName[nd.Self().Name] = nd
		func(nd *Node) {
			cl.net.SetHandler(addr, func(from transport.Addr, msg transport.Message) { nd.Handle(from, msg) })
		}(nd)
		nd.Join(cl.nodes[k%len(cl.nodes)].Self())
		newNodes = append(newNodes, nd)
		newClients = append(newClients, rc)
		cl.sim.RunFor(5 * time.Second)
	}
	cl.sim.RunFor(2 * cfg.PingInterval)

	// Every newcomer has level-0 neighbors.
	for _, nd := range newNodes {
		if nd.Successor().IsZero() || nd.Predecessor().IsZero() {
			t.Fatalf("joiner %s not integrated", nd.Self().Name)
		}
	}
	// Routing works old->new, new->old, and new->new.
	check := func(src *Node, dstIdxClients *recClient, dst *Node) {
		before := len(dstIdxClients.routes)
		src.RouteTo(dst.Self().Name, probe("x"))
		cl.sim.RunFor(time.Minute)
		if len(dstIdxClients.routes) <= before || !dstIdxClients.routes[len(dstIdxClients.routes)-1].Arrived {
			t.Fatalf("route %s -> %s failed", src.Self().Name, dst.Self().Name)
		}
	}
	for k, nd := range newNodes {
		check(cl.nodes[(k*3)%len(cl.nodes)], newClients[k], nd)                   // old -> new
		check(nd, cl.clients[(k*5)%len(cl.nodes)], cl.nodes[(k*5)%len(cl.nodes)]) // new -> old
	}
	check(newNodes[0], newClients[7], newNodes[7])
	check(newNodes[7], newClients[0], newNodes[0])
}

// height returns a node's highest ring level with a neighbor on either
// side, 0 if it has none.
func height(nd *Node) int {
	top := 0
	for h := 1; h < len(nd.rights); h++ {
		if !nd.ring(h, true).IsZero() || !nd.ring(h, false).IsZero() {
			top = h
		}
	}
	return top
}

// TestRingTablesGrowOnClimb pins the ring tables' size: AssembleStatic
// leaves each node's rights and lefts exactly one past its height, and a
// live Join whose ring searches climb above its bootstrap's height grows
// both nodes' tables to the new level.
func TestRingTablesGrowOnClimb(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 200, 3, cfg)
	cl.assemble()
	tight := func(nodes ...*Node) {
		t.Helper()
		for _, nd := range nodes {
			want := height(nd) + 1
			if want == 1 {
				want = 0 // no ring at all: the tables were never written
			}
			if len(nd.rights) != want || len(nd.lefts) != want || cap(nd.rights) != want || cap(nd.lefts) != want {
				t.Fatalf("%s at height %d: rights len %d cap %d, lefts len %d cap %d, want %d",
					nd.Self().Name, height(nd), len(nd.rights), cap(nd.rights), len(nd.lefts), cap(nd.lefts), want)
			}
		}
	}
	tight(cl.nodes...)

	// A newcomer sharing one digit more with the bootstrap than the
	// bootstrap's height: its searches climb to a level the bootstrap
	// has no slot for, and the two form that level's ring.
	boot := cl.nodes[0]
	top := height(boot)
	name := ""
	for k := 0; name == ""; k++ {
		cand := fmt.Sprintf("climb%d.example.org", k)
		if SharedPrefix(DigitsOf(cand, digitBase, maxLevels), boot.digits) == top+1 {
			name = cand
		}
	}
	addr := transport.Addr("node-climb")
	nd := New(cl.net.AddNode(addr, cl.net.Router(boot.Self().Addr)), cfg, name)
	nd.SetClient(&recClient{})
	cl.net.SetHandler(addr, func(from transport.Addr, msg transport.Message) { nd.Handle(from, msg) })
	nd.Join(boot.Self())
	cl.sim.RunFor(2 * cfg.PingInterval)

	for _, c := range []struct{ a, b *Node }{{nd, boot}, {boot, nd}} {
		if got := height(c.a); got != top+1 || len(c.a.rights) != top+2 || len(c.a.lefts) != top+2 {
			t.Fatalf("%s: height %d, tables %d/%d long; want height %d, %d long",
				c.a.Self().Name, got, len(c.a.rights), len(c.a.lefts), top+1, top+2)
		}
		if c.a.ring(top+1, true).Name != c.b.Self().Name || c.a.ring(top+1, false).Name != c.b.Self().Name {
			t.Fatalf("%s: level-%d ring %s / %s, want %s on both sides", c.a.Self().Name, top+1,
				c.a.ring(top+1, true).Name, c.a.ring(top+1, false).Name, c.b.Self().Name)
		}
		if linkTo(c.a, c.b.Self().Addr) == nil {
			t.Fatalf("%s does not ping its new ring neighbor %s", c.a.Self().Name, c.b.Self().Name)
		}
	}
	tight(append(cl.nodes, nd)...)
}

// Property: for any pair of distinct nodes in an assembled overlay,
// NextHop makes strict clockwise progress toward the destination, which
// guarantees termination.
func TestNextHopProgressProperty(t *testing.T) {
	cl := newCluster(t, 48, 12, DefaultConfig())
	cl.assemble()
	prop := func(rawSrc, rawDst uint8) bool {
		src := cl.nodes[int(rawSrc)%len(cl.nodes)]
		dst := cl.nodes[int(rawDst)%len(cl.nodes)]
		if src == dst {
			return true
		}
		cur := src
		for steps := 0; steps < len(cl.nodes); steps++ {
			next, ok := cur.NextHop(dst.Self().Name)
			if !ok {
				return false
			}
			if next.Name == dst.Self().Name {
				return true
			}
			// Progress: next must be strictly between cur and dst.
			if !betweenCW(cur.Self().Name, next.Name, dst.Self().Name) {
				return false
			}
			cur = cl.byName[next.Name]
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStopHaltsPinging(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 8, 13, cfg)
	cl.assemble()
	cl.sim.RunFor(cfg.PingInterval)
	for i, nd := range cl.nodes {
		nd.Stop()
		// Stop closes every link it had opened, so no id outlives it.
		if rc := cl.clients[i]; len(rc.closed) != len(rc.up) || len(rc.up) == 0 {
			t.Fatalf("%s opened %d links and closed %d", nd.Self().Name, len(rc.up), len(rc.closed))
		}
	}
	base := cl.net.Sent()
	cl.sim.RunFor(10 * cfg.PingInterval)
	// In-flight acks may still drain, but no new pings originate.
	if cl.net.Sent() > base+uint64(len(cl.nodes)) {
		t.Fatalf("traffic continued after Stop: %d -> %d", base, cl.net.Sent())
	}
}

func TestConfigScale(t *testing.T) {
	c := DefaultConfig().Scale(0.5)
	if c.PingInterval != 30*time.Second || c.PingTimeout != 10*time.Second {
		t.Fatalf("scaled config %+v", c)
	}
}

// TestPaperParameters pins the overlay's structure and timing to the
// paper's SkipNet configuration and this implementation's budgets.
func TestPaperParameters(t *testing.T) {
	for name, c := range map[string]struct{ got, want int }{
		"digitBase":     {digitBase, 8},
		"leafSize":      {leafSize, 16},
		"maxLevels":     {maxLevels, 16},
		"ringSearchMax": {ringSearchMax, 32},
		"routeTTL":      {routeTTL, 100},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", name, c.got, c.want)
		}
	}
	if c := DefaultConfig(); c != (Config{PingInterval: 60 * time.Second, PingTimeout: 20 * time.Second}) {
		t.Errorf("DefaultConfig() = %+v, want 60s pings with a 20s timeout", c)
	}
}

// TestDigitsOfDistribution checks that derived numeric IDs spread evenly
// enough over the first digit for ring balancing (a skewed first digit
// would collapse the level-1 rings).
func TestDigitsOfDistribution(t *testing.T) {
	counts := make([]int, 8)
	const n = 4000
	for i := 0; i < n; i++ {
		d := DigitsOf(fmt.Sprintf("host-%d.example.org", i), 8, 4)
		counts[d[0]]++
	}
	for digit, c := range counts {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.18 { // fair share is 0.125
			t.Fatalf("digit %d frequency %.3f, want near 1/8", digit, frac)
		}
	}
}

func TestLeafRefillAfterMassCrash(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 40, 14, cfg)
	cl.assemble()
	// Crash a contiguous run of the name ring: the survivors on either
	// side lose most of one leaf side and must refill from farther out.
	victim := map[int]bool{}
	for i := 10; i < 16; i++ {
		victim[i] = true
		cl.net.Crash(transport.Addr(fmt.Sprintf("node-%03d", i)))
	}
	cl.sim.RunFor(5 * (cfg.PingInterval + cfg.PingTimeout))
	for i, nd := range cl.nodes {
		if victim[i] {
			continue
		}
		if len(nd.leafR) == 0 || len(nd.leafL) == 0 {
			t.Fatalf("node %d has empty leaf side after refill window", i)
		}
		for _, r := range nd.leafR {
			if cl.net.Crashed(r.Addr) {
				t.Fatalf("node %d still lists crashed leaf %s", i, r.Name)
			}
		}
	}
	// And routing between survivors still works end to end.
	src, dst := cl.nodes[5], cl.nodes[30]
	rc := cl.clients[30]
	before := len(rc.routes)
	src.RouteTo(dst.Self().Name, probe("post-crash"))
	cl.sim.RunFor(time.Minute)
	if len(rc.routes) <= before || !rc.routes[len(rc.routes)-1].Arrived {
		t.Fatal("routing broken after mass crash")
	}
}
