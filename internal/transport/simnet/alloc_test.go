package simnet

// Allocation-regression tests for the typed-message hot path. The paper's
// economy argument (§5.2, §7.2) is that steady-state liveness checking
// piggybacks on traffic the overlay sends anyway; the engineering
// counterpart here is that the simulated transport's send->deliver->handle
// cycle allocates nothing once warm, so 16,000-node runs are bounded by
// protocol work, not the allocator. These tests pin that at 0 allocs/op;
// any regression (a new boxing site, an unpooled record, a fresh closure
// per delivery) fails CI.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fuse/internal/transport"
)

// pooledProbe mirrors the overlay's pooled ping record: a Pooled message
// with a payload slice that Release must drop.
type pooledProbe struct {
	transport.Body
	Seq     uint64
	Payload []byte
}

var probePool = sync.Pool{New: func() any { return new(pooledProbe) }}

func newPooledProbe() *pooledProbe { return probePool.Get().(*pooledProbe) }

// probeReleases counts Release calls, for the exactly-once pins.
var probeReleases int

func (m *pooledProbe) Release() {
	probeReleases++
	*m = pooledProbe{}
	probePool.Put(m)
}

func init() {
	transport.Register("simnet.test.pooledProbe", func() transport.Message { return newPooledProbe() })
}

// TestSendDeliverCycleZeroAlloc pins the core claim of the typed message
// union: a pooled request/reply cycle over the simulated transport - the
// shape of the overlay's ping/ack - completes with zero heap allocations
// once routes, delivery records, and message pools are warm.
func TestSendDeliverCycleZeroAlloc(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a, b := net.nodes[addrs[0]], net.nodes[addrs[1]]
	// B answers every probe with a pooled reply, as a ping handler does.
	net.SetHandler(addrs[1], func(from transport.Addr, msg transport.Message) {
		reply := newPooledProbe()
		reply.Seq = msg.(*pooledProbe).Seq
		b.Send(from, reply)
	})
	got := 0
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) { got++ })

	cycle := func() {
		m := newPooledProbe()
		m.Seq = uint64(got)
		a.Send(addrs[1], m)
		net.sim.Run()
	}
	cycle() // warm route caches, delivery pool, message pools

	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("send/deliver/reply cycle allocates %.1f/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("no replies delivered; the cycle under test never ran")
	}
}

// TestPooledRecordClearedBeforeReuse guards the delivery-pool reuse path:
// a recycled record must never leak a previous delivery's payload slice
// (in FUSE terms, one link's piggybacked group-ID hash surfacing on
// another link's ping). The receiver of a payload-free probe must observe
// nil, even though the very record it receives just carried 20 bytes.
func TestPooledRecordClearedBeforeReuse(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a := net.nodes[addrs[0]]
	var seen [][]byte
	net.SetHandler(addrs[1], func(_ transport.Addr, msg transport.Message) {
		seen = append(seen, msg.(*pooledProbe).Payload)
	})

	secret := []byte("twenty-byte-group-id")
	withPayload := newPooledProbe()
	withPayload.Payload = secret
	a.Send(addrs[1], withPayload)
	net.sim.Run()

	// Drain the probe pool through enough fresh records that the recycled
	// one is reused, each sent without a payload.
	for i := 0; i < 8; i++ {
		a.Send(addrs[1], newPooledProbe())
		net.sim.Run()
	}

	if len(seen) != 9 {
		t.Fatalf("delivered %d probes, want 9", len(seen))
	}
	if string(seen[0]) != string(secret) {
		t.Fatalf("first delivery carried %q, want the payload", seen[0])
	}
	for i, p := range seen[1:] {
		if p != nil {
			t.Fatalf("payload-free delivery %d leaked a previous payload %q", i+1, p)
		}
	}
}

// TestReleaseRunsOnDropPaths pins that messages dropped by the transport
// (blocked links, unknown destinations, crashed or detached endpoints,
// broken sockets) are still recycled: the Pooled contract is
// release-exactly-once on every path, not just successful delivery. Every
// path is entered both ways a message reaches the one send body: through
// Env.Send and through a dialed Route.
func TestReleaseRunsOnDropPaths(t *testing.T) {
	entries := []struct {
		name string
		send func(a *node, to transport.Addr, m transport.Message)
	}{
		{"Env.Send", func(a *node, to transport.Addr, m transport.Message) { a.Send(to, m) }},
		{"SendRoute", func(a *node, to transport.Addr, m transport.Message) { r := a.Dial(to); a.SendRoute(&r, m) }},
	}
	for _, via := range entries {
		net, addrs := testNet(t, 2, Options{RetriesBeforeBreak: 3, RetryRTO: time.Second})
		a := net.nodes[addrs[0]]
		net.SetHandler(addrs[1], func(transport.Addr, transport.Message) {})

		check := func(name string, to transport.Addr) {
			t.Helper()
			m := newPooledProbe()
			m.Payload = []byte(name)
			before, dropped := probeReleases, net.Dropped()
			via.send(a, to, m)
			net.sim.Run()
			if m.Payload != nil {
				t.Fatalf("%s, %s: dropped message was not released (payload retained)", via.name, name)
			}
			if got := probeReleases - before; got != 1 {
				t.Fatalf("%s, %s: released %d times, want exactly once", via.name, name, got)
			}
			// A crashed sender's sends never reach the network and are not
			// counted; every other path counts one drop.
			if want := dropped + 1; name != "crashed-sender" && net.Dropped() != want {
				t.Fatalf("%s, %s: dropped = %d, want %d", via.name, name, net.Dropped(), want)
			}
		}
		check("unknown-destination", "nowhere")
		net.BlockLink(addrs[0], addrs[1])
		check("blocked-link", addrs[1])
		net.ClearRules()
		net.SetLinkLoss(addrs[0], addrs[1], 1)
		check("socket-break", addrs[1])
		net.ClearRules()
		net.Detach(addrs[1])
		check("detached-destination", addrs[1])
		net.Rejoin(addrs[1])
		net.Detach(addrs[0])
		check("detached-sender", addrs[1])
		net.Rejoin(addrs[0])
		net.Crash(addrs[1])
		check("crashed-destination", addrs[1])
		net.Crash(addrs[0])
		check("crashed-sender", addrs[1])
		if net.Delivered() != 0 {
			t.Fatalf("%s: %d messages delivered on drop paths", via.name, net.Delivered())
		}
	}
}

// TestUnknownDestinationsLeaveNoCacheEntry pins what sends leave behind:
// sends (and dials) to addresses nobody ever listens on are counted as
// drops, never as sent, leave no pending router and resolve no route. A
// node keeps no route cache at all: Env.Send resolves its destination
// afresh each time, and every Dial hands out an unresolved route that
// resolves at its own first send and is held by nothing but its caller.
func TestUnknownDestinationsLeaveNoCacheEntry(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a := net.nodes[addrs[0]]
	for i := 0; i < 100; i++ {
		garbage := transport.Addr(fmt.Sprintf("garbage-%d", i))
		a.Send(garbage, num(i))
		r := a.Dial(garbage)
		a.SendRoute(&r, num(i))
		if r != (transport.Route{Addr: garbage}) {
			t.Fatalf("a send to %s resolved its route to %+v", garbage, r)
		}
	}
	net.sim.Run()
	if net.Dropped() != 200 || net.Sent() != 0 {
		t.Fatalf("dropped = %d, sent = %d; want 200 and 0", net.Dropped(), net.Sent())
	}
	if len(a.pending) != 0 {
		t.Fatalf("%d pending routers left behind by sends to unknown addresses", len(a.pending))
	}
	// Env.Send to a live node hands no later Dial anything resolved.
	a.Send(addrs[1], num(0))
	p := a.Dial(addrs[1])
	if p != (transport.Route{Addr: addrs[1]}) || len(a.pending) != 0 {
		t.Fatalf("Dial after Env.Send: route %+v, %d pending; want a bare address", p, len(a.pending))
	}
	a.SendRoute(&p, num(1))
	q := a.Dial(addrs[1])
	if q != (transport.Route{Addr: addrs[1]}) || p.Dst != net.nodes[addrs[1]] {
		t.Fatal("a second Dial saw the first route's resolution")
	}
	net.sim.Run()
	if net.Sent() != 2 {
		t.Fatalf("sent = %d, want 2", net.Sent())
	}
}

// TestDialBeforeAddNodeDeliversOnceNodeExists pins late resolution: a
// route dialed for an address with no node yet drops while there is none
// and delivers once there is, over the topology path looked up at that
// first successful send, which the route keeps.
func TestDialBeforeAddNodeDeliversOnceNodeExists(t *testing.T) {
	net, addrs := testNet(t, 1, Options{})
	a := net.nodes[addrs[0]]
	p := a.Dial("late")
	a.SendRoute(&p, str("too early"))
	net.sim.Run()
	if net.Dropped() != 1 || net.Sent() != 0 {
		t.Fatalf("send before AddNode: dropped = %d, sent = %d; want 1 and 0", net.Dropped(), net.Sent())
	}

	router := net.topo.AttachPoints(3, net.sim.Rand())[2]
	late := net.AddNode("late", router)
	var got []string
	var at time.Duration
	net.SetHandler("late", func(from transport.Addr, msg transport.Message) {
		if from != addrs[0] {
			t.Errorf("delivered from %q, want %q", from, addrs[0])
		}
		got, at = append(got, msg.(*tmsg).V), late.Elapsed()
	})
	sentAt := net.sim.Elapsed()
	a.SendRoute(&p, str("hello"))
	net.sim.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered %q, want one hello", got)
	}
	want := net.topo.Path(a.router, router)
	if at-sentAt != want.Latency {
		t.Fatalf("delivery took %v, want the path latency %v", at-sentAt, want.Latency)
	}
	if p.Dst != late || p.Latency != want.Latency || p.Loss != want.Loss {
		t.Fatalf("the route kept %+v, want the late node over %+v", p, want)
	}
}

// TestDialedLinksResolveWithOneSweep: a node that dialed routes to k
// existing peers looks all k paths up at its first send, with one
// batched topology query - one sweep from its router, into no pooled
// tree - and each route then resolves at its own first send, on a memo
// hit, to the path Path answers. A route dialed after that send waits for
// its own, and the same holds when the first send is an Env.Send.
func TestDialedLinksResolveWithOneSweep(t *testing.T) {
	const k = 12
	for _, first := range []string{"SendRoute", "Env.Send"} {
		net, addrs := testNet(t, k+2, Options{})
		a := net.nodes[addrs[0]]
		routes := make([]transport.Route, k)
		for i := range routes {
			routes[i] = a.Dial(addrs[1+i])
		}
		if len(a.pending) != k {
			t.Fatalf("%s: after %d dials: %d pending; want %d", first, k, len(a.pending), k)
		}
		before := net.topo.RouteStats()
		if first == "SendRoute" {
			a.SendRoute(&routes[k/2], num(0))
		} else {
			a.Send(addrs[k+1], num(0))
		}
		net.sim.Run()
		st := net.topo.RouteStats()
		if st.Sweeps-before.Sweeps != 1 || st.Trees != before.Trees {
			t.Fatalf("%s: first send after %d dials ran %d sweeps and pooled %d trees, want 1 and 0",
				first, k, st.Sweeps-before.Sweeps, st.Trees-before.Trees)
		}
		if len(a.pending) != 0 {
			t.Fatalf("%s: after the first send: %d pending; want 0", first, len(a.pending))
		}
		for i := range routes {
			r := &routes[i]
			a.SendRoute(r, num(1))
			dst := net.nodes[addrs[1+i]]
			if want := net.topo.Path(a.router, dst.router); r.Dst != dst || r.Latency != want.Latency || r.Loss != want.Loss {
				t.Fatalf("%s: route to %s resolved to %+v, want path %+v", first, addrs[1+i], r, want)
			}
		}
		if st := net.topo.RouteStats(); st.Sweeps-before.Sweeps != 1 || st.Trees != before.Trees {
			t.Fatalf("%s: the routes' own first sends ran %d more sweeps and pooled %d trees, want 0 and 0",
				first, st.Sweeps-before.Sweeps-1, st.Trees-before.Trees)
		}
		late := a.Dial(addrs[k+1])
		if len(a.pending) != 0 || late.Dst != nil {
			t.Fatalf("%s: dial after the first send: %d pending, resolved %v; want 0 and false",
				first, len(a.pending), late.Dst != nil)
		}
		a.SendRoute(&late, num(1))
		if late.Dst != net.nodes[addrs[k+1]] {
			t.Fatalf("%s: the late route did not resolve at its own send", first)
		}
	}
}
