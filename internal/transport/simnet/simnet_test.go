package simnet

import (
	"testing"
	"time"

	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/transport"
)

// tmsg and imsg are test payloads: the transport only carries registered
// Message records now.
type tmsg struct {
	transport.Body
	V string
}

type imsg struct {
	transport.Body
	I int
}

func init() {
	transport.Register("simnet.test.str", func() transport.Message { return new(tmsg) })
	transport.Register("simnet.test.int", func() transport.Message { return new(imsg) })
}

func str(v string) *tmsg { return &tmsg{V: v} }
func num(i int) *imsg    { return &imsg{I: i} }

// testNet builds a small deterministic network with n nodes and no
// overheads (unless opts override), returning the net and node addresses.
func testNet(t *testing.T, n int, opts Options) (*Net, []transport.Addr) {
	t.Helper()
	sim := eventsim.New(42)
	topo := netmodel.Generate(netmodel.DefaultConfig(42))
	net := New(sim, topo, opts)
	pts := topo.AttachPoints(n, sim.Rand())
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		net.AddNode(addrs[i], pts[i])
	}
	return net, addrs
}

func TestDeliveryAndLatency(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	var gotFrom transport.Addr
	var gotMsg string
	var at time.Duration
	net.SetHandler(addrs[1], func(from transport.Addr, msg transport.Message) {
		gotFrom, gotMsg, at = from, msg.(*tmsg).V, net.nodes[addrs[1]].Elapsed()
	})
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) {})
	env := net.nodes[addrs[0]]
	env.Send(addrs[1], str("hello"))
	net.sim.Run()
	if gotFrom != addrs[0] || gotMsg != "hello" {
		t.Fatalf("got %v %v", gotFrom, gotMsg)
	}
	want := net.topo.Path(net.Router(addrs[0]), net.Router(addrs[1])).Latency
	if at != want {
		t.Fatalf("delivery latency %v, want path latency %v", at, want)
	}
}

func TestSendOverheadSerializesSender(t *testing.T) {
	opts := Options{SendOverhead: 10 * time.Millisecond}
	net, addrs := testNet(t, 2, opts)
	var arrivals []time.Duration
	net.SetHandler(addrs[1], func(transport.Addr, transport.Message) {
		arrivals = append(arrivals, net.nodes[addrs[1]].Elapsed())
	})
	env := net.nodes[addrs[0]]
	for i := 0; i < 3; i++ {
		env.Send(addrs[1], num(i))
	}
	net.sim.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	for i := 1; i < 3; i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap != opts.SendOverhead {
			t.Fatalf("gap %d = %v, want %v (serialized sends)", i, gap, opts.SendOverhead)
		}
	}
}

func TestBlockedLinkDropsDirectionally(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	got := map[transport.Addr]int{}
	for _, a := range addrs {
		a := a
		net.SetHandler(a, func(from transport.Addr, msg transport.Message) { got[a]++ })
	}
	net.BlockLink(addrs[0], addrs[1])
	net.nodes[addrs[0]].Send(addrs[1], str("x")) // dropped
	net.nodes[addrs[1]].Send(addrs[0], str("y")) // delivered: other direction open
	net.sim.Run()
	if got[addrs[1]] != 0 {
		t.Fatal("blocked direction delivered")
	}
	if got[addrs[0]] != 1 {
		t.Fatal("open direction did not deliver")
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
	net.UnblockLink(addrs[0], addrs[1])
	net.nodes[addrs[0]].Send(addrs[1], str("x2"))
	net.sim.Run()
	if got[addrs[1]] != 1 {
		t.Fatal("unblocked link did not deliver")
	}
}

func TestPartitionBlocksAcrossGroupsOnly(t *testing.T) {
	net, addrs := testNet(t, 4, Options{})
	got := map[transport.Addr]int{}
	for _, a := range addrs {
		a := a
		net.SetHandler(a, func(transport.Addr, transport.Message) { got[a]++ })
	}
	net.Partition(addrs[:2], addrs[2:])
	net.nodes[addrs[0]].Send(addrs[1], str("in"))  // same side
	net.nodes[addrs[0]].Send(addrs[2], str("out")) // across
	net.nodes[addrs[3]].Send(addrs[2], str("in"))  // same side
	net.nodes[addrs[3]].Send(addrs[1], str("out")) // across
	net.sim.Run()
	if got[addrs[1]] != 1 || got[addrs[2]] != 1 {
		t.Fatalf("intra-partition traffic broken: %v", got)
	}
	if net.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", net.Dropped())
	}
	net.ClearRules()
	net.nodes[addrs[0]].Send(addrs[2], str("after"))
	net.sim.Run()
	if got[addrs[2]] != 2 {
		t.Fatal("ClearRules did not restore connectivity")
	}
}

func TestCrashStopsTimersAndTraffic(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	fired := 0
	delivered := 0
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) { delivered++ })
	env := net.nodes[addrs[0]]
	env.After(time.Second, func() { fired++ })
	net.Crash(addrs[0])
	// A message sent to the crashed node and a send attempt from it.
	net.SetHandler(addrs[1], func(transport.Addr, transport.Message) { delivered++ })
	net.nodes[addrs[1]].Send(addrs[0], str("to-dead"))
	net.nodes[addrs[0]].Send(addrs[1], str("from-dead"))
	net.sim.Run()
	if fired != 0 {
		t.Fatal("timer fired on crashed node")
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
}

func TestRestartDropsStaleTimersButReceivesNew(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	staleFired := false
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) {})
	env := net.nodes[addrs[0]]
	env.After(time.Second, func() { staleFired = true })
	net.Crash(addrs[0])
	env2 := net.Restart(addrs[0])
	delivered := 0
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) { delivered++ })
	newFired := false
	env2.After(2*time.Second, func() { newFired = true })
	net.SetHandler(addrs[1], func(transport.Addr, transport.Message) {})
	net.nodes[addrs[1]].Send(addrs[0], str("hello-again"))
	net.sim.Run()
	if staleFired {
		t.Fatal("pre-crash timer fired after restart")
	}
	if !newFired {
		t.Fatal("post-restart timer did not fire")
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestLossBreaksConnectionEventually(t *testing.T) {
	opts := Options{RetriesBeforeBreak: 3, RetryRTO: 100 * time.Millisecond}
	net, addrs := testNet(t, 2, opts)
	delivered := 0
	net.SetHandler(addrs[1], func(transport.Addr, transport.Message) { delivered++ })
	net.SetLinkLoss(addrs[0], addrs[1], 1.0) // always lose: must break after retries
	net.nodes[addrs[0]].Send(addrs[1], str("doomed"))
	net.sim.Run()
	if delivered != 0 {
		t.Fatal("message delivered despite total loss")
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
}

func TestModerateLossIsMaskedByRetries(t *testing.T) {
	opts := Options{RetriesBeforeBreak: 4, RetryRTO: 10 * time.Millisecond}
	net, addrs := testNet(t, 2, opts)
	delivered := 0
	net.SetHandler(addrs[1], func(transport.Addr, transport.Message) { delivered++ })
	net.SetLinkLoss(addrs[0], addrs[1], 0.10)
	const msgs = 2000
	for i := 0; i < msgs; i++ {
		net.nodes[addrs[0]].Send(addrs[1], num(i))
	}
	net.sim.Run()
	// Loss per message is 0.10^4 = 1e-4; expect ~0.2 losses in 2000.
	if delivered < msgs-5 {
		t.Fatalf("delivered %d/%d; retries are not masking loss", delivered, msgs)
	}
}

func TestRetriesAddLatency(t *testing.T) {
	opts := Options{RetriesBeforeBreak: 5, RetryRTO: time.Second}
	net, addrs := testNet(t, 2, opts)
	var sentAt []time.Duration
	var maxDelay time.Duration
	base := net.topo.Path(net.Router(addrs[0]), net.Router(addrs[1])).Latency
	net.SetHandler(addrs[1], func(_ transport.Addr, msg transport.Message) {
		i := msg.(*imsg).I
		if d := net.nodes[addrs[1]].Elapsed() - sentAt[i] - base; d > maxDelay {
			maxDelay = d
		}
	})
	// High loss: most deliveries need one or more retransmissions.
	net.SetLinkLoss(addrs[0], addrs[1], 0.95)
	for i := 0; i < 50; i++ {
		sentAt = append(sentAt, net.sim.Elapsed())
		net.nodes[addrs[0]].Send(addrs[1], num(i))
		net.sim.Run()
	}
	if maxDelay < time.Second {
		t.Fatalf("max extra delay %v; retries add no latency", maxDelay)
	}
}

func TestSendToUnknownAddrDropsSilently(t *testing.T) {
	net, addrs := testNet(t, 1, Options{})
	net.SetHandler(addrs[0], func(transport.Addr, transport.Message) {})
	net.nodes[addrs[0]].Send("nope", str("x"))
	net.sim.Run()
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
}

func TestDuplicateAddrPanics(t *testing.T) {
	net, addrs := testNet(t, 1, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.AddNode(addrs[0], 0)
}

func TestCountersConsistent(t *testing.T) {
	net, addrs := testNet(t, 3, Options{})
	for _, a := range addrs {
		net.SetHandler(a, func(transport.Addr, transport.Message) {})
	}
	net.BlockLink(addrs[0], addrs[1])
	net.nodes[addrs[0]].Send(addrs[1], num(1)) // dropped
	net.nodes[addrs[0]].Send(addrs[2], num(2)) // delivered
	net.nodes[addrs[1]].Send(addrs[2], num(3)) // delivered
	net.sim.Run()
	if net.Sent() != 3 || net.Delivered() != 2 || net.Dropped() != 1 {
		t.Fatalf("sent=%d delivered=%d dropped=%d", net.Sent(), net.Delivered(), net.Dropped())
	}
}

func TestPerNodeRandDeterministic(t *testing.T) {
	build := func() []int64 {
		net, addrs := testNet(t, 3, Options{})
		var out []int64
		for _, a := range addrs {
			out = append(out, net.nodes[a].Rand().Int63())
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("per-node rng not deterministic across identical builds")
		}
	}
}

func TestRulesComposeAndClearSelectively(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a, b := addrs[0], addrs[1]

	// A block and a loss override on the same pair coexist...
	net.SetLinkLoss(a, b, 0.5)
	net.BlockLink(a, b)
	if !net.Blocked(a, b) {
		t.Fatal("block not installed")
	}
	if loss, ok := net.LossOverride(a, b); !ok || loss != 0.5 {
		t.Fatalf("loss override = %v,%v, want 0.5,true", loss, ok)
	}

	// ...and removing one leaves the other in force.
	net.UnblockLink(a, b)
	if net.Blocked(a, b) {
		t.Fatal("block survived UnblockLink")
	}
	if loss, ok := net.LossOverride(a, b); !ok || loss != 0.5 {
		t.Fatalf("loss override lost by UnblockLink: %v,%v", loss, ok)
	}
	net.BlockLink(a, b)
	net.ClearLinkLoss(a, b)
	if !net.Blocked(a, b) {
		t.Fatal("block lost by ClearLinkLoss")
	}
	if _, ok := net.LossOverride(a, b); ok {
		t.Fatal("loss override survived ClearLinkLoss")
	}

	// ClearRule removes everything at once, and empty entries are dropped
	// from the table entirely (the send fast path keys off RuleCount).
	net.SetLinkLoss(a, b, 0.25)
	net.ClearRule(a, b)
	if net.RuleCount() != 0 {
		t.Fatalf("RuleCount = %d after ClearRule, want 0", net.RuleCount())
	}
	net.SetLinkLoss(b, a, 0.25)
	net.BlockLink(b, a)
	net.UnblockLink(b, a)
	net.ClearLinkLoss(b, a)
	if net.RuleCount() != 0 {
		t.Fatalf("RuleCount = %d after removing both overrides, want 0", net.RuleCount())
	}
}

func TestHealPartitionLeavesLossRampIntact(t *testing.T) {
	net, addrs := testNet(t, 4, Options{})
	sideA, sideB := addrs[:2], addrs[2:]

	// A loss ramp on an intra-side pair predates the partition.
	net.SetLinkLoss(sideA[0], sideA[1], 0.9)
	net.Partition(sideA, sideB)
	if !net.Blocked(sideA[0], sideB[0]) || !net.Blocked(sideB[1], sideA[1]) {
		t.Fatal("partition not installed")
	}

	net.HealPartition(sideA, sideB)
	for _, a := range sideA {
		for _, b := range sideB {
			if net.Blocked(a, b) || net.Blocked(b, a) {
				t.Fatalf("pair %s<->%s still blocked after heal", a, b)
			}
		}
	}
	if loss, ok := net.LossOverride(sideA[0], sideA[1]); !ok || loss != 0.9 {
		t.Fatalf("loss ramp destroyed by HealPartition: %v,%v", loss, ok)
	}
	if net.RuleCount() != 1 {
		t.Fatalf("RuleCount = %d after heal, want 1 (the loss override)", net.RuleCount())
	}
}

// TestInterleavedRuleLifecycleKeepsTableExact walks a rule table through
// the kind of interleaved set/clear/heal sequence the scenario engine
// composes (loss ramp, partition, selective unblock, heal, ramp clear)
// and checks the accessors plus RuleCount at every step. RuleCount
// exactness matters beyond bookkeeping: the send fast path skips the
// rule lookup entirely when the table is empty, so a leaked empty entry
// would tax every send in the run.
func TestInterleavedRuleLifecycleKeepsTableExact(t *testing.T) {
	net, addrs := testNet(t, 6, Options{})
	sideA, sideB := addrs[:3], addrs[3:]

	step := func(want int, what string) {
		t.Helper()
		if got := net.RuleCount(); got != want {
			t.Fatalf("RuleCount = %d after %s, want %d", got, what, want)
		}
	}
	step(0, "build")

	// A two-step loss ramp on one intra-side pair: the second SetLinkLoss
	// replaces the first, it does not stack a second entry.
	net.SetLinkLoss(sideA[0], sideA[1], 0.3)
	net.SetLinkLoss(sideA[0], sideA[1], 0.7)
	step(1, "two ramp steps on one pair")
	if loss, ok := net.LossOverride(sideA[0], sideA[1]); !ok || loss != 0.7 {
		t.Fatalf("loss = %v,%v after second ramp step, want 0.7,true", loss, ok)
	}

	// A partition: 3x3 cross pairs, both directions, plus the ramp.
	net.Partition(sideA, sideB)
	step(19, "partition")

	// Selectively unblock one direction of one cross pair (the engine's
	// intransitive drills do this); the reverse direction must hold.
	net.UnblockLink(sideA[0], sideB[0])
	step(18, "one-direction unblock")
	if net.Blocked(sideA[0], sideB[0]) {
		t.Fatal("unblocked direction still blocked")
	}
	if !net.Blocked(sideB[0], sideA[0]) {
		t.Fatal("reverse direction lost with the unblock")
	}

	// A loss override on a still-partitioned cross pair shares that
	// pair's entry; healing must strip only the block bit from it.
	net.SetLinkLoss(sideB[1], sideA[1], 0.4)
	step(18, "loss override on a blocked pair")
	net.HealPartition(sideA, sideB)
	step(2, "heal")
	if net.Blocked(sideB[1], sideA[1]) {
		t.Fatal("cross-pair block survived HealPartition")
	}
	if loss, ok := net.LossOverride(sideB[1], sideA[1]); !ok || loss != 0.4 {
		t.Fatalf("cross-pair loss = %v,%v after heal, want 0.4,true", loss, ok)
	}

	// Healing an already-healed partition, and clearing overrides that do
	// not exist, are no-ops - they must not manufacture empty entries.
	net.HealPartition(sideA, sideB)
	net.UnblockLink(sideB[2], sideA[2])
	net.ClearLinkLoss(sideB[2], sideA[2])
	step(2, "redundant heal and clears")

	// Retiring the two survivors one way each empties the table.
	net.ClearLinkLoss(sideA[0], sideA[1])
	net.ClearRule(sideB[1], sideA[1])
	step(0, "final clears")
	if _, ok := net.LossOverride(sideA[0], sideA[1]); ok {
		t.Fatal("ramp override survived ClearLinkLoss")
	}
}

// TestOverlappingPartitionsShareBlocks pins a composition caveat: blocks
// are a bit per directional pair, not a refcount, so when two partitions
// overlap on a pair, healing either one unblocks that pair for both.
// The scenario engine relies on this being the contract (it allows at
// most one partition at a time); if blocks ever become refcounted, this
// test - and that restriction - should change together.
func TestOverlappingPartitionsShareBlocks(t *testing.T) {
	net, addrs := testNet(t, 3, Options{})
	a, b, c := addrs[:1], addrs[1:2], addrs[2:]

	net.Partition(a, b) // blocks a<->b
	net.Partition(b, c) // blocks b<->c
	step := net.RuleCount()
	if step != 4 {
		t.Fatalf("RuleCount = %d after two partitions, want 4", step)
	}

	// Healing a|b removes its pair outright even though conceptually the
	// pair "belonged" to one partition only - no double-entry bookkeeping.
	net.HealPartition(a, b)
	if net.Blocked(a[0], b[0]) || net.Blocked(b[0], a[0]) {
		t.Fatal("a<->b still blocked after healing its partition")
	}
	if !net.Blocked(b[0], c[0]) || !net.Blocked(c[0], b[0]) {
		t.Fatal("unrelated b<->c partition disturbed by healing a|b")
	}
	if net.RuleCount() != 2 {
		t.Fatalf("RuleCount = %d after healing a|b, want 2", net.RuleCount())
	}
	net.HealPartition(b, c)
	if net.RuleCount() != 0 {
		t.Fatalf("RuleCount = %d after healing both, want 0", net.RuleCount())
	}
}

func TestDetachUnplugsWithoutStoppingTimers(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a, b := addrs[0], addrs[1]
	var got []string
	net.SetHandler(a, func(_ transport.Addr, m transport.Message) { got = append(got, "a:"+m.(*tmsg).V) })
	net.SetHandler(b, func(_ transport.Addr, m transport.Message) { got = append(got, "b:"+m.(*tmsg).V) })
	na, nb := net.nodes[a], net.nodes[b]

	// In-flight messages toward a detached endpoint are dropped.
	nb.Send(a, str("in-flight"))
	net.Detach(a)
	if !net.Detached(a) {
		t.Fatal("Detached not reported")
	}
	// Sends from a detached endpoint are dropped, but its timers run.
	ticked := false
	na.After(time.Second, func() {
		ticked = true
		na.Send(b, str("from-detached"))
	})
	net.sim.Run()
	if !ticked {
		t.Fatal("detached node's timer did not fire")
	}
	if len(got) != 0 {
		t.Fatalf("messages crossed a detached endpoint: %v", got)
	}

	// After Rejoin, traffic flows again in both directions.
	net.Rejoin(a)
	na.Send(b, str("up1"))
	nb.Send(a, str("up2"))
	net.sim.Run()
	if len(got) != 2 || got[0] != "b:up1" || got[1] != "a:up2" {
		t.Fatalf("post-rejoin traffic = %v", got)
	}
}

func TestRestartClearsDetach(t *testing.T) {
	net, addrs := testNet(t, 2, Options{})
	a, b := addrs[0], addrs[1]
	var got int
	net.SetHandler(b, func(transport.Addr, transport.Message) { got++ })
	net.Detach(a)
	net.Crash(a)
	env := net.Restart(a)
	if net.Detached(a) {
		t.Fatal("restart left the endpoint detached")
	}
	env.Send(b, str("back"))
	net.sim.Run()
	if got != 1 {
		t.Fatalf("restarted node's send not delivered (got %d)", got)
	}
}
