package overlay

// Allocation regression for the overlay's steady-state liveness checking:
// with pooled ping/ack records, in-place Timer.Reset, and the simulated
// transport's pooled deliveries, whole ping intervals must execute
// without a single heap allocation. This is the overlay-level half of the
// 0 allocs/op pin (the raw transport cycle is pinned in simnet's
// alloc_test.go); the repo benchmark's steady-state workloads (bench/)
// time the same cycle with FUSE piggybacking on top.

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/telemetry"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

func TestSteadyStatePingCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	// Virtual time is free: the paper's real 60 s ping interval costs the
	// same number of simulator events as a compressed one, and its 20 s
	// ack timeout keeps topology latencies from mimicking failures.
	cfg := DefaultConfig()
	cl := newCluster(t, 8, 7, cfg)
	cl.assemble()

	// Warm up: several full intervals populate route caches, the delivery
	// pool, the ping pools, and settle every ping state machine into its
	// self-resetting rhythm.
	cl.sim.RunFor(5 * cfg.PingInterval)
	before := cl.net.Delivered()

	allocs := testing.AllocsPerRun(20, func() {
		cl.sim.RunFor(cfg.PingInterval)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ping interval allocates %.1f/op, want 0", allocs)
	}

	// Sanity: the window under test actually carried ping traffic, and
	// nobody was declared dead (an idle or collapsing overlay would pass
	// the alloc check vacuously).
	if cl.net.Delivered() == before {
		t.Fatal("no deliveries during the measured intervals")
	}
	for i, rc := range cl.clients {
		if len(rc.down) != 0 {
			t.Fatalf("node %d reported neighbors down during steady state: %v", i, rc.down)
		}
	}
}

// newTelemetryCluster is newCluster with a metrics registry attached and
// proto-level tracing enabled before the overlay stacks are built, so
// every node resolves its lane and registers its counters — the
// telemetry-enabled twin of the plain builder, used to prove the
// instrumentation itself stays off the heap.
func newTelemetryCluster(t testing.TB, n int, seed int64, cfg Config) (*cluster, *telemetry.Registry) {
	t.Helper()
	sim := eventsim.New(seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(seed))
	net := simnet.New(sim, topo, simnet.Options{})
	reg := telemetry.New(eventsim.Epoch, 1)
	reg.EnableTrace(telemetry.TraceProto)
	net.SetTelemetry(reg)
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
	return cl, reg
}

// TestSteadyStatePingCycleZeroAllocTelemetry re-runs the steady-state
// alloc pin with the telemetry layer attached and proto-level tracing
// enabled: counter increments and histogram observations are plain
// atomic adds into preallocated lane slabs, and proto-level trace events
// never fire during healthy pinging, so instrumentation must not cost a
// single allocation. This is the CI alloc-gate's telemetry half.
func TestSteadyStatePingCycleZeroAllocTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	cfg := DefaultConfig()
	cl, reg := newTelemetryCluster(t, 8, 7, cfg)
	cl.assemble()

	cl.sim.RunFor(5 * cfg.PingInterval)
	sent, _ := reg.Value("overlay_pings_sent_total")

	allocs := testing.AllocsPerRun(20, func() {
		cl.sim.RunFor(cfg.PingInterval)
	})
	if allocs != 0 {
		t.Fatalf("telemetry-enabled steady-state ping interval allocates %.1f/op, want 0", allocs)
	}

	// Sanity: the instrumentation measured the window rather than being
	// silently disconnected (a nil lane would also alloc nothing).
	after, ok := reg.Value("overlay_pings_sent_total")
	if !ok || after <= sent {
		t.Fatalf("ping counter did not advance across measured intervals (%d -> %d)", sent, after)
	}
	acks, _ := reg.Value("overlay_ping_acks_total")
	if acks == 0 {
		t.Fatal("no ping acks recorded by telemetry")
	}
	if n, sum, ok := reg.HistogramValue("overlay_ping_rtt_ms"); !ok || n == 0 || sum <= 0 {
		t.Fatalf("rtt histogram empty (count=%d sum=%s)", n, sum)
	}
}

// TestPingTimerResetsInPlace pins the Timer.Reset half of the bargain:
// a node serves all its links from one liveness timer that it re-arms in
// place, so with nothing in flight the simulator holds exactly one
// pending event per node, whatever the number of links, and across
// steady-state intervals the only other pending events are the messages
// in flight - no per-link timers, no cancelled-and-reallocated ones.
func TestPingTimerResetsInPlace(t *testing.T) {
	cfg := DefaultConfig()
	cl := newCluster(t, 12, 9, cfg)
	cl.assemble()
	links := 0
	for _, nd := range cl.nodes {
		links += linkCount(nd)
	}
	if links < 3*len(cl.nodes) {
		t.Fatalf("only %d links over %d nodes; the count below would prove little", links, len(cl.nodes))
	}
	if got := cl.sim.Pending(); got != len(cl.nodes) {
		t.Fatalf("%d events pending after assemble, want one liveness timer per node (%d)", got, len(cl.nodes))
	}
	for i := 1; i <= 56; i++ {
		cl.sim.RunFor(cfg.PingInterval / 7)
		inFlight := int(cl.net.Sent() - cl.net.Delivered() - cl.net.Dropped())
		if got := cl.sim.Pending(); got != len(cl.nodes)+inFlight {
			t.Fatalf("after %d/7 intervals: %d events pending with %d messages in flight, want %d timers; ping timers are not resetting in place",
				i, got, inFlight, len(cl.nodes))
		}
	}
}

// TestSyncPingsUnchangedZeroAlloc pins the in-place reconciliation: a
// syncPings over tables that did not change walks them, restamps every
// ping cycle and retires nothing, without building a neighbor list or a
// wanted set.
func TestSyncPingsUnchangedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	cl := newCluster(t, 40, 7, DefaultConfig())
	cl.assemble()
	nd := cl.nodes[0]
	pinged := linkCount(nd)
	if pinged == 0 || pinged != len(nd.Neighbors()) {
		t.Fatalf("assembled node pings %d of %d neighbors", pinged, len(nd.Neighbors()))
	}
	if allocs := testing.AllocsPerRun(100, nd.syncPings); allocs != 0 {
		t.Fatalf("syncPings with nothing to change allocates %.1f/op, want 0", allocs)
	}
	if linkCount(nd) != pinged || len(cl.clients[0].up) != pinged {
		t.Fatalf("idle syncPings changed the schedule: %d cycles, %d OnNeighborUp calls, want %d of each",
			linkCount(nd), len(cl.clients[0].up), pinged)
	}
}

// TestOpenLinkAndFirstPingZeroAlloc pins that a link is one record of at
// most 80 B: on a link table with spare capacity, opening a link to a new
// neighbor and sending its first ping allocate nothing, because the slot
// holds the transport's route by value and the route resolves in place.
// The link is closed again and the ping and its ack delivered in each
// run, so every run opens the same slot afresh.
func TestOpenLinkAndFirstPingZeroAlloc(t *testing.T) {
	if size := unsafe.Sizeof(pingState{}); size > 80 {
		t.Fatalf("a link slot is %d B, want at most 80", size)
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	cfg := DefaultConfig()
	cl := newCluster(t, 40, 7, cfg)
	cl.assemble()
	cl.sim.RunFor(2 * cfg.PingInterval)
	nd := cl.nodes[0]
	nd.SetClient(nil) // the recording client's logs would allocate
	var stranger NodeRef
	for _, other := range cl.nodes[1:] {
		if nd.LinkID(other.Self().Addr) == 0 {
			stranger = other.Self()
			break
		}
	}
	if stranger.IsZero() {
		t.Fatal("every node is node 0's neighbor; no link left to open")
	}
	open := func() {
		i := nd.startPinging(stranger)
		nd.due[i] = nd.env.Elapsed()
		nd.pingTick()
		if !nd.links[i].awaiting {
			t.Fatal("the new link's first ping was not sent")
		}
		nd.closeLink(i)
		cl.sim.RunFor(time.Second)
	}
	open() // the first open may grow the table; later ones reuse its slot
	sent := cl.net.Sent()
	if allocs := testing.AllocsPerRun(50, open); allocs != 0 {
		t.Fatalf("opening a link and sending its first ping allocates %.1f/op, want 0", allocs)
	}
	if cl.net.Sent() < sent+2*50 {
		t.Fatalf("%d messages sent over 50 opens, want at least a ping and an ack each", cl.net.Sent()-sent)
	}
}
