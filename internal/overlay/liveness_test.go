package overlay

// Tests of the one-timer-per-node liveness schedule: a seeded property
// test against the per-link machine it replaced, and pins for the wake-up
// an ack leaves behind, the order of links due together, and the link ids
// pings and acks carry. The node runs alone on a transporttest.Net, whose
// clock the test runs by hand; its sends reach no one, and a test plays
// its neighbors by handing it acks and pings directly.

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

var pingSeed = flag.Int64("ping.seed", 0, "run the ping schedule property test on this one seed")

// pingRuns counts runs of the property test in this process, so each of
// go test -count=N's repetitions draws seeds of its own.
var pingRuns atomic.Int64

func pingSeeds() []int64 {
	if *pingSeed != 0 {
		return []int64{*pingSeed}
	}
	base := pingRuns.Add(1) * 1000
	return []int64{base + 1, base + 2, base + 3}
}

// dialEnv is a transporttest.Env as a transport.Dialer: sends through a
// dialed Route are marked, so a test can tell which way a message left.
type dialEnv struct {
	*transporttest.Env
	viaRoute int
}

func (e *dialEnv) Dial(to transport.Addr) transport.Route { return transport.Route{Addr: to} }
func (e *dialEnv) SendRoute(r *transport.Route, msg transport.Message) {
	e.viaRoute++
	e.Send(r.Addr, msg)
}

// scriptNode puts node 0 alone on a new Net, its random source seeded
// with seed. Its sends go nowhere until the test acts on them.
func scriptNode(seed int64) (*transporttest.Net, *transporttest.Env) {
	net := transporttest.NewNet()
	return net, net.NewEnv(testRef(0).Addr, seed)
}

func testRef(i int) NodeRef {
	return NodeRef{Name: fmt.Sprintf("n%03d.example.org", i), Addr: transport.Addr(fmt.Sprintf("node-%03d", i))}
}

// stamp is one observable act of a ping schedule: a ping sent to, or the
// death declared of, a neighbor at a virtual instant.
type stamp struct {
	at   time.Duration
	what string
	who  string
}

// refPinger is the liveness schedule this package had before the link
// table: one two-phase timer per neighbor (send, wait PingTimeout for the
// ack, sleep out the interval), each re-armed from its own callback. It
// is the specification TestPingScheduleMatchesReference holds the node to.
// Its env is a node of its own on the node's Net: one clock for both.
type refPinger struct {
	env     transport.Env
	cfg     Config
	links   map[transport.Addr]*refLink
	stopped bool
	log     []stamp
}

type refLink struct {
	ref         NodeRef
	seq, ackSeq uint64
	awaiting    bool
	retired     bool
}

func (r *refPinger) start(ref NodeRef) {
	ps := &refLink{ref: ref}
	r.links[ref.Addr] = ps
	phase := time.Duration(r.env.Rand().Int63n(int64(r.cfg.PingInterval) + 1))
	r.env.After(phase, func() { r.tick(ps) })
}

func (r *refPinger) tick(ps *refLink) {
	if r.stopped || ps.retired {
		return
	}
	if ps.awaiting {
		ps.awaiting = false
		if ps.ackSeq != ps.seq {
			r.dead(ps.ref)
			return
		}
		r.env.After(r.cfg.PingInterval-r.cfg.PingTimeout, func() { r.tick(ps) })
		return
	}
	ps.seq++
	ps.awaiting = true
	r.log = append(r.log, stamp{r.env.Elapsed(), "ping", ps.ref.Name})
	r.env.After(r.cfg.PingTimeout, func() { r.tick(ps) })
}

func (r *refPinger) ack(from transport.Addr, seq uint64) {
	if ps := r.links[from]; ps != nil && seq == ps.seq {
		ps.ackSeq = seq
	}
}

func (r *refPinger) dead(ref NodeRef) {
	if r.links[ref.Addr] == nil {
		return
	}
	r.log = append(r.log, stamp{r.env.Elapsed(), "dead", ref.Name})
	r.retire(ref.Addr)
}

func (r *refPinger) retire(addr transport.Addr) {
	r.links[addr].retired = true
	delete(r.links, addr)
}

// sync is syncPings: start a cycle for every neighbor without one, in
// table order, and retire the cycles of everyone else.
func (r *refPinger) sync(neighbors []NodeRef) {
	if r.stopped {
		return
	}
	want := make(map[transport.Addr]bool)
	for _, ref := range neighbors {
		want[ref.Addr] = true
		if r.links[ref.Addr] == nil {
			r.start(ref)
		}
	}
	for addr := range r.links {
		if !want[addr] {
			r.retire(addr)
		}
	}
}

// TestPingScheduleMatchesReference drives a node and the per-link
// reference machine side by side on one clock, through the same table
// changes, ack losses, late acks and a Stop, and requires the same pings
// and the same deaths at the same virtual instants, with the same number
// of rng draws. Acks reach both in one event, carrying ids that are
// sometimes right, sometimes missing and sometimes garbage: which way the
// node finds the link must not change the schedule. A failure names the
// flag that replays it.
func TestPingScheduleMatchesReference(t *testing.T) {
	for _, seed := range pingSeeds() {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (-ping.seed=%d): %s", seed, seed, fmt.Sprintf(format, args...))
		}
		cfg := DefaultConfig()
		net, env := scriptNode(seed)
		drive := rand.New(rand.NewSource(seed + 1))
		var got []stamp
		nd := New(env, cfg, testRef(0).Name)
		nd.SetClient(deathLog{env, &got})
		ref := &refPinger{env: net.NewEnv("reference", seed), cfg: cfg, links: make(map[transport.Addr]*refLink)}

		net.OnSend = func(s transporttest.Send) {
			m, ok := s.Msg.(*msgPing)
			if !ok {
				return // repair traffic after a death
			}
			from := linkTo(nd, s.To).ref()
			got = append(got, stamp{s.At, "ping", from.Name})
			var delay time.Duration
			switch p := drive.Intn(100); {
			case p < 12:
				return // ack lost
			case p < 24: // ack after the deadline, never on it
				delay = cfg.PingTimeout + 1 + time.Duration(drive.Int63n(int64(cfg.PingTimeout)))
			default:
				delay = time.Millisecond + time.Duration(drive.Int63n(int64(2*time.Second)))
			}
			seq, echo, theirs := m.Seq, m.Link, uint32(drive.Intn(40))
			switch drive.Intn(4) {
			case 0:
				echo = 0
			case 1:
				echo = uint32(drive.Intn(60))
			}
			env.After(delay, func() {
				ackFrom(nd, from, seq, theirs, echo)
				ref.ack(from.Addr, seq)
			})
		}
		verified := 0
		check := func(step int) {
			t.Helper()
			for ; verified < len(got) || verified < len(ref.log); verified++ {
				if verified >= len(got) || verified >= len(ref.log) || got[verified] != ref.log[verified] {
					fail("step %d: schedules diverge at entry %d: node %v, reference %v",
						step, verified, got[min(verified, len(got)):], ref.log[min(verified, len(ref.log)):])
				}
			}
			if linkCount(nd) != len(ref.links) {
				fail("step %d: node pings %d neighbors, reference %d", step, linkCount(nd), len(ref.links))
			}
		}

		other := func() NodeRef { return testRef(1 + drive.Intn(40)) }
		const steps = 600
		stoppedAt := -1
		for step := 0; step < steps; step++ {
			// The table changes below land on an instant of their own: the
			// clock stops at a random nanosecond, not on an event.
			net.Advance(time.Duration(drive.Int63n(int64(cfg.PingInterval / 4))))
			check(step)
			switch op := drive.Intn(10); {
			case op < 5:
				nd.considerLeaf(other())
			case op < 6:
				nd.adoptRingNeighbor(1+drive.Intn(4), other(), drive.Intn(2) == 0)
			case op < 8:
				if nd.removeRef(other().Addr) {
					nd.syncPings()
				}
			default:
				dead := other()
				nd.neighborDead(dead)
				ref.dead(dead)
			}
			ref.sync(nd.Neighbors())
			check(step)
			if step == steps*3/4 {
				nd.Stop()
				ref.stopped, ref.links = true, nil
				stoppedAt = len(got)
			}
		}
		pings, deaths := 0, 0
		for _, s := range got {
			if s.what == "ping" {
				pings++
			} else {
				deaths++
			}
		}
		if pings < 300 || deaths < 30 {
			fail("only %d pings and %d deaths; the sequence exercised too little", pings, deaths)
		}
		if len(got) != stoppedAt {
			fail("%d pings or deaths after Stop", len(got)-stoppedAt)
		}
		if a, b := env.Rand().Int63(), ref.env.Rand().Int63(); a != b {
			fail("the node and the reference consumed different numbers of rng draws")
		}
	}
}

// deathLog is a Client that stamps each neighbor death into a schedule log.
type deathLog struct {
	env transport.Env
	log *[]stamp
}

func (deathLog) OnRouteMessage(transport.Message, RouteInfo) {}
func (deathLog) LinkPayload(uint32, NodeRef) []byte          { return nil }
func (deathLog) OnLinkPayload(uint32, NodeRef, []byte)       {}
func (deathLog) OnNeighborUp(uint32, NodeRef)                {}
func (deathLog) OnLinkClosed(uint32, NodeRef)                {}
func (c deathLog) OnNeighborDown(ref NodeRef) {
	*c.log = append(*c.log, stamp{c.env.Elapsed(), "dead", ref.Name})
}

// pingsSent is every ping sent on net, in order, each stamped with its
// destination.
func pingsSent(net *transporttest.Net) []stamp {
	var log []stamp
	for _, s := range net.Sends() {
		if _, ok := s.Msg.(*msgPing); ok {
			log = append(log, stamp{s.At, "ping", string(s.To)})
		}
	}
	return log
}

// runTo is net.RunTo(t), appending each instant a timer fires at to wakes.
func runTo(net *transporttest.Net, t time.Duration, wakes *[]time.Duration) {
	for ts := net.Timers(); len(ts) > 0 && ts[0].At() <= t; ts = net.Timers() {
		*wakes = append(*wakes, ts[0].At())
		net.RunTo(ts[0].At())
	}
	net.RunTo(t)
}

// schedule overwrites the phases the rng drew, so a test can place each
// link's first ping where it needs it. at[i] is for link id i+1.
func schedule(nd *Node, at ...time.Duration) {
	copy(nd.due, at)
	nd.arm(slices.Min(at), nd.env.Elapsed())
}

// linkTo is the link-table record of the neighbor at addr, or nil.
func linkTo(nd *Node, addr transport.Addr) *pingState {
	if i := nd.slotOf(addr); i >= 0 {
		return &nd.links[i]
	}
	return nil
}

// linkCount is how many links the node's table holds open.
func linkCount(nd *Node) int {
	n := 0
	for _, ps := range nd.links {
		if ps.open() {
			n++
		}
	}
	return n
}

func ackFrom(nd *Node, from NodeRef, seq uint64, link, peerLink uint32) {
	ack := newMsgPingAck()
	ack.From, ack.Seq, ack.Link, ack.PeerLink = from, seq, link, peerLink
	nd.Handle(from.Addr, ack)
	ack.Release()
}

// TestAckLeavesOneIdleWakeUp pins what an ack costs: nothing when it
// arrives, and at most one wake-up later. The timer stays armed for the
// deadline the ack cancelled; that tick finds nothing due, sends nothing,
// declares nothing, and re-arms for the entry that is really next.
func TestAckLeavesOneIdleWakeUp(t *testing.T) {
	const s = time.Second
	cfg := DefaultConfig()
	net, env := scriptNode(1)
	rc := &recClient{}
	nd := New(env, cfg, testRef(0).Name)
	nd.SetClient(rc)
	a, b := testRef(1), testRef(2)
	nd.considerLeaf(a)
	nd.considerLeaf(b)
	schedule(nd, 10*s, 45*s)
	var wakes []time.Duration

	runTo(net, 11*s, &wakes) // a pinged at 10 s; the timer now waits for a's deadline at 30 s
	ackFrom(nd, a, 1, 0, 1)
	if nd.armed != 30*s || nd.due[0] != 70*s {
		t.Fatalf("after the ack: timer armed for %v, a due at %v; want 30s (left alone) and 1m10s", nd.armed, nd.due[0])
	}
	runTo(net, 44*s, &wakes)
	if want := []time.Duration{10 * s, 30 * s}; !slices.Equal(wakes, want) || len(pingsSent(net)) != 1 || len(rc.down) != 0 {
		t.Fatalf("wake-ups %v (want %v), %d pings (want 1), %d deaths (want 0)", wakes, want, len(pingsSent(net)), len(rc.down))
	}
	if nd.armed != 45*s {
		t.Fatalf("the idle wake-up re-armed for %v, want b's ping at 45s", nd.armed)
	}
	runTo(net, 46*s, &wakes)
	ackFrom(nd, b, 1, 0, 2)
	runTo(net, 71*s, &wakes)
	wantWakes := []time.Duration{10 * s, 30 * s, 45 * s, 65 * s, 70 * s}
	wantPings := []stamp{{10 * s, "ping", string(a.Addr)}, {45 * s, "ping", string(b.Addr)}, {70 * s, "ping", string(a.Addr)}}
	if pings := pingsSent(net); !slices.Equal(wakes, wantWakes) || !slices.Equal(pings, wantPings) || len(rc.down) != 0 {
		t.Fatalf("wake-ups %v (want %v), pings %v (want %v), deaths %v", wakes, wantWakes, pings, wantPings, rc.down)
	}
	// Unanswered, a's second ping runs out at 90 s and b's next is 105 s.
	net.RunTo(91 * s)
	if len(rc.down) != 1 || rc.down[0] != a || nd.armed != 105*s {
		t.Fatalf("deaths %v, timer armed for %v; want a dead at 90s and b's ping next", rc.down, nd.armed)
	}
}

// TestLinksDueTogetherServedInIdOrder pins the one order the link table
// newly defines. Per-link timers that fell due at the same instant fired
// in the order they had last been armed; the scan serves them by link id,
// lowest first, whatever order they became due in.
func TestLinksDueTogetherServedInIdOrder(t *testing.T) {
	const s = time.Second
	net, env := scriptNode(1)
	nd := New(env, DefaultConfig(), testRef(0).Name)
	for i := 1; i <= 4; i++ {
		nd.considerLeaf(testRef(i))
	}
	// Ids 1..4 belong to testRef(1..4), in the order they were offered.
	schedule(nd, 20*s, 5*s, 20*s, 20*s)
	net.RunTo(6 * s)
	ackFrom(nd, testRef(2), 1, 0, 2) // id 2 is next due at 65 s; the others, never acked, die at 40 s
	nd.due[1] = 20 * s               // ... unless it, too, is due at 20 s, having become so last
	net.RunTo(21 * s)
	want := []stamp{{5 * s, "ping", "node-002"}, {20 * s, "ping", "node-001"}, {20 * s, "ping", "node-002"}, {20 * s, "ping", "node-003"}, {20 * s, "ping", "node-004"}}
	if pings := pingsSent(net); !slices.Equal(pings, want) {
		t.Fatalf("pings %v, want %v", pings, want)
	}
}

// TestLinkIdHygiene pins that a link id is a hint checked against the
// sender's address, never trusted: reused slots, stale ids, ids out of
// range and strangers all end up where the address says.
func TestLinkIdHygiene(t *testing.T) {
	const s = time.Second
	cfg := DefaultConfig()
	net, base := scriptNode(1)
	env := &dialEnv{Env: base}
	rc := &recClient{}
	nd := New(env, cfg, testRef(0).Name)
	nd.SetClient(rc)
	pingFrom := func(from NodeRef, link, peerLink uint32) *msgPingAck {
		t.Helper()
		m := newMsgPing()
		m.From, m.Seq, m.Link, m.PeerLink = from, 77, link, peerLink
		sent := len(net.Sends())
		nd.Handle(from.Addr, m)
		m.Release()
		out := net.Sends()[sent:]
		if len(out) == 1 && out[0].To == from.Addr {
			if ack, ok := out[0].Msg.(*msgPingAck); ok && ack.Seq == 77 && ack.PeerLink == link {
				return ack
			}
		}
		t.Fatalf("ping from %s (link %d) answered with %+v", from.Name, link, out)
		return nil
	}

	a, b, c := testRef(1), testRef(2), testRef(3)
	nd.considerLeaf(a)
	nd.considerLeaf(b)
	if nd.LinkID(a.Addr) != 1 || nd.LinkID(b.Addr) != 2 {
		t.Fatalf("ids %d, %d; want 1, 2", nd.LinkID(a.Addr), nd.LinkID(b.Addr))
	}

	// A neighbor's ping is answered through its link, with our id for it,
	// and teaches us its id - whether the id it echoes is right, unknown,
	// another link's, or out of range.
	for i, echo := range []uint32{2, 0, 1, 99} {
		before := env.viaRoute
		ack := pingFrom(b, 30+uint32(i), echo)
		if ack.Link != 2 || env.viaRoute != before+1 || linkTo(nd, b.Addr).peerLink != 30+uint32(i) {
			t.Fatalf("ping from b echoing id %d: acked with Link %d (want 2), via route %v, learned %d (want %d)",
				echo, ack.Link, env.viaRoute != before, linkTo(nd, b.Addr).peerLink, 30+i)
		}
		// The client hears the payload on our id for the link, whatever
		// the ping echoed.
		if rc.heardOn[b.Name] != 2 {
			t.Fatalf("ping from b echoing id %d handed to the client on link %d, want 2", echo, rc.heardOn[b.Name])
		}
	}
	if linkTo(nd, a.Addr).peerLink != 0 {
		t.Fatal("b's ping echoing a's id taught a's link something")
	}

	// A stranger is acked through the env with no id of ours, even when it
	// echoes an id that is in use, and is not adopted.
	before := env.viaRoute
	if ack := pingFrom(c, 5, 1); ack.Link != 0 || env.viaRoute != before || linkTo(nd, c.Addr) != nil {
		t.Fatalf("stranger's ping acked with Link %d via route %v", ack.Link, env.viaRoute != before)
	}
	if link, ok := rc.heardOn[c.Name]; !ok || link != 0 {
		t.Fatalf("stranger's ping handed to the client on link %d (heard: %v), want 0", link, ok)
	}

	// a is pinged, leaves the tables, and c takes over its slot and is
	// pinged with the same seq. a's late ack echoes the slot's id and
	// the right seq, and must not be credited to c.
	schedule(nd, 10*s, 50*s)
	net.RunTo(11 * s)
	nd.removeRef(a.Addr)
	nd.syncPings()
	nd.considerLeaf(c)
	if ps := linkTo(nd, c.Addr); nd.LinkID(c.Addr) != 1 || ps.ref() != c {
		t.Fatalf("c did not reuse a's slot: id %d, %+v", nd.LinkID(c.Addr), ps)
	}
	schedule(nd, 12*s, 50*s)
	net.RunTo(13 * s)
	if ps := linkTo(nd, c.Addr); !ps.awaiting || ps.seq != 1 || rc.sentOn[c.Name] != 1 {
		t.Fatalf("c not pinged on its link id 1: %+v, client asked on link %d", ps, rc.sentOn[c.Name])
	}
	ackFrom(nd, a, 1, 9, 1)
	if ps := linkTo(nd, c.Addr); !ps.awaiting || ps.peerLink != 0 {
		t.Fatalf("a's late ack was credited to c, which now holds its slot: %+v", ps)
	}
	// An ack from c itself is credited through the address index when its
	// echo is stale, and teaches us c's id.
	ackFrom(nd, c, 1, 9, 2)
	if ps := linkTo(nd, c.Addr); ps.awaiting || ps.peerLink != 9 || nd.due[0] != 72*s {
		t.Fatalf("c's ack with a stale echo was not credited: %+v, due %v", ps, nd.due[0])
	}
	if len(rc.down) != 0 {
		t.Fatalf("deaths %v", rc.down)
	}
}

// TestLinkIdsLearnedInOneExchange runs real nodes over the simulated
// network up to the first ack: by then the pinger knows the acker's id for
// it and the acker knows the pinger's, so every later ping and ack between
// the two is found by index at both ends.
func TestLinkIdsLearnedInOneExchange(t *testing.T) {
	cl := newCluster(t, 6, 3, DefaultConfig())
	cl.assemble()
	acked := func() (*Node, *pingState) {
		for _, nd := range cl.nodes {
			for i := range nd.links {
				if ps := &nd.links[i]; ps.seq == 1 && !ps.awaiting {
					return nd, ps
				}
			}
		}
		return nil, nil
	}
	var pinger *Node
	var ps *pingState
	for pinger == nil && cl.sim.Step() {
		pinger, ps = acked()
	}
	if pinger == nil {
		t.Fatal("no ping was ever acked")
	}
	acker := cl.byName[ps.name]
	id, backID := pinger.LinkID(ps.route.Addr), acker.LinkID(pinger.self.Addr)
	back := linkTo(acker, pinger.self.Addr)
	if ps.peerLink != backID || back.peerLink != id {
		t.Fatalf("after one exchange %s holds id %d and echoes %d, %s holds id %d and echoes %d",
			pinger.self.Name, id, ps.peerLink, ps.name, backID, back.peerLink)
	}
}
