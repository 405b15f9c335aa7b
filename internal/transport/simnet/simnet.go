// Package simnet is the simulated messaging layer: it delivers messages
// between protocol stacks over a netmodel topology on an eventsim virtual
// clock.
//
// It substitutes for the paper's ModelNet emulation cluster. Messages
// experience the router-level path latency between the two endpoints'
// attachment points, a per-message sender-side serialization overhead (the
// paper measured 2.8 ms for its XML messaging layer), and TCP-like loss
// masking: a lossy route drops an individual transmission with the route's
// end-to-end loss probability, the "connection" retransmits with an
// exponentially backed-off timeout, and if all retransmissions fail the
// message is dropped entirely - the socket-break behaviour that produces
// the paper's Figure 12 false positives at high loss rates.
//
// The package also provides the fault injection the experiments and the
// scenario engine need: node crash and restart, endpoint detach/rejoin,
// directional link blocking (for intransitive connectivity), per-pair
// loss overrides, and full partitions. Blocks and loss overrides on a
// pair compose independently and are removable one at a time (ClearRule,
// ClearLinkLoss, HealPartition), so one injected fault can heal while
// others persist.
//
// The send path is engineered for paper-scale overlays (16,000 nodes
// exchanging hundreds of thousands of pings per virtual minute). A node
// is a transport.Dialer: SendRoute fills the caller's transport.Route in
// place with the destination node and the topology path's latency and
// loss, so a periodic sender that keeps its neighbour's route does no
// lookup at all per message, and the route is the only record of it:
// simnet holds nothing per route, and the node keeps no cache of
// destinations, so when the overlay drops a neighbour its route goes
// with the slot. Env.Send resolves its destination on every call, an
// address lookup and a hit in the topology's pair memo, and keeps
// nothing. A route resolves at its first send that finds a node at its
// address, so a dial may precede the destination's AddNode. The routes a
// node dials to existing nodes before its first send, the neighbours its
// overlay was assembled with, leave their routers in the node's pending
// set; that send looks their paths up together with its own in one
// topology call, which costs at most one single-source sweep however
// many there are and memoizes every pair, and each of those routes then
// resolves at its own first send on a memo hit. Beyond that,
// deliveries are pooled objects with reused callback closures handed to
// the simulator's handle-free Schedule path, and the fault-rule table is
// only consulted when rules exist. Messages are typed records passed by
// pointer (transport.Message), and pooled records are recycled after
// their final delivery or on any drop path, so after warmup a
// steady-state ping cycle allocates nothing at all (pinned by
// alloc_test.go).
package simnet

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"time"

	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// Options tune the TCP-emulation behaviour of the simulated transport.
type Options struct {
	// SendOverhead is the per-message serialization cost paid serially at
	// the sender. The paper measured 2.8 ms per send in its messaging
	// layer; this serial cost is what makes notification latency rise
	// with group size at the root (Figure 8).
	SendOverhead time.Duration

	// DeliverOverhead is the per-message cost paid at the receiver (the
	// paper measured ~1.1 ms of virtual-node multiplexing overhead).
	DeliverOverhead time.Duration

	// RetriesBeforeBreak is the number of transmissions attempted before
	// the emulated TCP connection gives up and the message is lost. With
	// per-route loss q the message-loss probability is q^RetriesBeforeBreak.
	RetriesBeforeBreak int

	// RetryRTO is the first retransmission timeout; it doubles per retry.
	RetryRTO time.Duration
}

// DefaultOptions mirror the paper's messaging layer measurements.
func DefaultOptions() Options {
	return Options{
		SendOverhead:       2800 * time.Microsecond,
		DeliverOverhead:    1100 * time.Microsecond,
		RetriesBeforeBreak: 4,
		RetryRTO:           time.Second,
	}
}

// Net connects simulated nodes over a topology.
//
// Every node belongs to one eventsim shard and all mutable steady-state
// structures - delivery pools, traffic counters - are striped per shard
// (netSlot), so parallel windows touch disjoint state. Fault-injection
// methods and the aggregate counters must only be called at fences
// (between Run calls or from control-lane events), which is where every
// caller in this repository already sits.
type Net struct {
	sim  *eventsim.Sim
	topo *netmodel.Topology
	opts Options

	nodes map[transport.Addr]*node
	rules map[rulePair]rule

	// shards are the simulator's event lanes; slots holds the matching
	// per-shard state stripes. shardOf places nodes on them.
	shards []*eventsim.Shard
	slots  []netSlot

	// telemetry, when attached, hands each node the registry lane
	// matching its event shard (lane 1+shard; lane 0 is the control
	// lane's) via the transport-level LaneProvider interface.
	telemetry *telemetry.Registry
}

// SetTelemetry attaches a registry: nodes added before or after resolve
// their stripe through TelemetryLane, and the network's own per-slot
// message counters are exported as snapshot-time collectors (no second
// counter on the send/deliver hot path). Call before the run starts.
func (n *Net) SetTelemetry(reg *telemetry.Registry) {
	n.telemetry = reg
	if reg == nil {
		return
	}
	reg.CounterFunc("simnet_messages_sent_total",
		"messages handed to the simulated network", func() int64 { return int64(n.Sent()) })
	reg.CounterFunc("simnet_messages_delivered_total",
		"messages delivered to a live handler", func() int64 { return int64(n.Delivered()) })
	reg.CounterFunc("simnet_messages_dropped_total",
		"messages dropped (crashed/detached/partitioned destinations)", func() int64 { return int64(n.Dropped()) })
}

// netSlot is one shard's stripe of the network's mutable steady state.
// The padding keeps stripes on distinct cache lines so parallel windows
// do not false-share counter updates.
type netSlot struct {
	// freeDeliveries pools in-flight delivery records; each carries a
	// closure built once and reused for every message it ferries.
	// Records are drawn from the sending node's slot and recycled into
	// the destination's, both touched only by the owning shard.
	freeDeliveries []*delivery

	sent      uint64
	delivered uint64
	dropped   uint64

	_ [16]byte
}

type rulePair struct{ from, to transport.Addr }

type rule struct {
	block   bool
	loss    float64
	hasLoss bool
}

// New creates a simulated network over topo driven by sim. Nodes are
// placed on sim's shards; a sim that was given none gets one, on which the
// whole network then runs in a single lane with nothing to synchronize.
// With several, sim's lookahead must not exceed MinDeliveryDelay (the
// simulator's barrier merge panics on a delivery that undercuts it).
func New(sim *eventsim.Sim, topo *netmodel.Topology, opts Options) *Net {
	if opts.RetriesBeforeBreak < 1 {
		opts.RetriesBeforeBreak = 1
	}
	shards := sim.Shards()
	if len(shards) == 0 {
		shards = sim.EnableShards(1, 1, 0)
	}
	return &Net{
		sim:    sim,
		topo:   topo,
		opts:   opts,
		nodes:  make(map[transport.Addr]*node),
		rules:  make(map[rulePair]rule),
		shards: shards,
		slots:  make([]netSlot, len(shards)),
	}
}

// MinDeliveryDelay returns the smallest virtual delay any cross-shard
// delivery can experience: serialization overhead, one traversal of the
// topology's cheapest inter-AS link, and receiver overhead. It is the
// lookahead to give eventsim.EnableShards for a network over topo with
// these options.
func MinDeliveryDelay(topo *netmodel.Topology, opts Options) time.Duration {
	return opts.SendOverhead + topo.MinInterASLatency() + opts.DeliverOverhead
}

// shardOf maps an attachment router to a shard index. Keying the
// assignment on the router's AS keeps every intra-AS pair - down to
// metro links and same-router nodes at zero latency - on one shard, so
// every cross-shard delivery leaves its AS over at least one inter-AS
// link and clears MinDeliveryDelay.
func (n *Net) shardOf(router netmodel.RouterID) int { return n.topo.ASOf(router) % len(n.shards) }

// node implements transport.Env for one simulated endpoint.
type node struct {
	net     *Net
	addr    transport.Addr
	router  netmodel.RouterID
	handler transport.Handler
	rng     *rand.Rand
	// shard is the node's event lane; slot is its index, which is also
	// the node's stripe in the net's per-shard state.
	shard   *eventsim.Shard
	slot    int
	crashed bool
	// detached unplugs the endpoint from the network while its process
	// keeps running (timers fire, sends and receives are dropped).
	detached bool
	epoch    uint64 // incremented on restart; stale callbacks are dropped
	// nextFree is when the sender-side serialization queue drains.
	nextFree time.Duration

	// pending holds the routers of the nodes Dial was asked for before
	// the node's first resolved send; that send looks their paths up with
	// its own destination's (see pathTo). From then on resolved is set and
	// a route dialed later costs nothing until its own first send, so one
	// the overlay drops before using it costs no route lookup.
	pending  []netmodel.RouterID
	resolved bool
}

// TelemetryLane implements telemetry.LaneProvider: the node's metric
// stripe is the registry lane matching its event shard, so hot-path
// writes stay worker-local and merged snapshots are byte-identical
// across worker counts (lane layout depends on the shard count only).
func (nd *node) TelemetryLane() *telemetry.Lane {
	reg := nd.net.telemetry
	if reg == nil {
		return nil
	}
	return reg.Lane(1 + nd.slot)
}

// Dial implements transport.Dialer with an unresolved route. Until the
// node's first resolved send, a route to an address that has a node is
// to one of the neighbours its overlay was assembled with, so its router
// joins pending, to be looked up in that send's WarmRoutes batch.
func (nd *node) Dial(to transport.Addr) transport.Route {
	if !nd.resolved {
		if dst := nd.net.nodes[to]; dst != nil {
			if nd.pending == nil {
				// One allocation for an assembled node's ~20 neighbours.
				nd.pending = make([]netmodel.RouterID, 0, 32)
			}
			nd.pending = append(nd.pending, dst.router)
		}
	}
	return transport.Route{Addr: to}
}

// pathTo returns the topology path to dst. The node's first call asks
// for the pending routers' paths with dst's in one WarmRoutes batch
// (one worker, no tree pooled), which memoizes them: the node's assembled
// neighbours cost it at most one sweep, not one each, and their routes,
// dst's included, resolve on memo hits.
func (nd *node) pathTo(dst *node) netmodel.Path {
	topo := nd.net.topo
	if !nd.resolved {
		if len(nd.pending) > 0 {
			pairs := make([][2]netmodel.RouterID, 0, len(nd.pending)+1)
			for _, r := range append(nd.pending, dst.router) {
				pairs = append(pairs, [2]netmodel.RouterID{nd.router, r})
			}
			topo.WarmRoutes(pairs, 1)
		}
		nd.pending, nd.resolved = nil, true
	}
	return topo.Path(nd.router, dst.router)
}

// delivery is a pooled in-flight message. Its run closure is built once
// and reused, so the per-send scheduling cost is one pooled event and
// zero allocations.
type delivery struct {
	net   *Net
	from  transport.Addr
	dst   *node
	msg   transport.Message
	epoch uint64
	run   func()
}

func (n *Net) newDelivery(slot int) *delivery {
	pool := &n.slots[slot].freeDeliveries
	if k := len(*pool); k > 0 {
		d := (*pool)[k-1]
		(*pool)[k-1] = nil
		*pool = (*pool)[:k-1]
		return d
	}
	d := &delivery{net: n}
	d.run = d.deliver
	return d
}

// wireRoundTrip is nil in every production run. Tests set it (through
// export_test.go) to pass each delivered message through the wire codec:
// it takes ownership of msg and returns the decoded copy, which deliver
// hands to the handler in msg's place.
var wireRoundTrip func(transport.Message) transport.Message

// deliver hands the message to the destination's handler (or counts a
// drop) and recycles the record. Recycling happens before the handler
// runs so that sends made from within it reuse this same record; the
// message itself is recycled only after the handler returns (final
// delivery completes), per the transport.Pooled contract.
func (d *delivery) deliver() {
	net := d.net
	dst, from, msg, epoch := d.dst, d.from, d.msg, d.epoch
	d.dst, d.msg = nil, nil
	slot := &net.slots[dst.slot]
	slot.freeDeliveries = append(slot.freeDeliveries, d)
	if dst.crashed || dst.detached || dst.epoch != epoch || dst.handler == nil {
		slot.dropped++
		transport.ReleaseMessage(msg)
		return
	}
	slot.delivered++
	if wireRoundTrip != nil {
		msg = wireRoundTrip(msg)
	}
	dst.handler(from, msg)
	transport.ReleaseMessage(msg)
}

// AddNode attaches a new endpoint at the given router. The returned Env is
// inert until SetHandler installs a message handler.
func (n *Net) AddNode(addr transport.Addr, router netmodel.RouterID) transport.Env {
	if _, dup := n.nodes[addr]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", addr))
	}
	slot := n.shardOf(router)
	nd := &node{
		net:      n,
		addr:     addr,
		router:   router,
		rng:      rand.New(newPCGSource(n.sim.Rand().Int63())),
		shard:    n.shards[slot],
		slot:     slot,
		nextFree: n.sim.Elapsed(),
	}
	n.nodes[addr] = nd
	return nd
}

// pcgSource backs a node's *rand.Rand with math/rand/v2's PCG: 16 B of
// state where math/rand's own source is 5,424 B, for the few draws a
// node makes.
type pcgSource struct{ randv2.PCG }

func newPCGSource(seed int64) *pcgSource {
	s := &pcgSource{}
	s.Seed(seed)
	return s
}

func (s *pcgSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

// SetHandler installs the message handler for addr.
func (n *Net) SetHandler(addr transport.Addr, h transport.Handler) {
	nd := n.mustNode(addr)
	nd.handler = h
}

// Crash fail-stops the node: it no longer sends, receives, or fires
// timers. Its address remains allocated so it can be restarted.
func (n *Net) Crash(addr transport.Addr) {
	nd := n.mustNode(addr)
	nd.crashed = true
	nd.handler = nil
}

// Restart revives a crashed node with no handler and a new timer epoch,
// modelling a process that lost all volatile state. The caller installs a
// fresh protocol stack with SetHandler. Restart replaces the whole
// endpoint, so a Detach in force is cleared too - the revived node can
// reach the network again (re-issue Detach after Restart to model a
// node that comes back up behind a dead link).
func (n *Net) Restart(addr transport.Addr) transport.Env {
	nd := n.mustNode(addr)
	nd.crashed = false
	nd.detached = false
	nd.epoch++
	nd.handler = nil
	nd.nextFree = n.sim.Elapsed()
	return nd
}

// Crashed reports whether the node is currently crashed.
func (n *Net) Crashed(addr transport.Addr) bool { return n.mustNode(addr).crashed }

// Router returns the attachment point of addr.
func (n *Net) Router(addr transport.Addr) netmodel.RouterID { return n.mustNode(addr).router }

func (n *Net) mustNode(addr transport.Addr) *node {
	nd, ok := n.nodes[addr]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", addr))
	}
	return nd
}

// setRule stores r for the pair, dropping the entry entirely once neither
// a block nor a loss override remains. Blocks and loss overrides live in
// the same entry but compose independently: removing one never disturbs
// the other, so a partition can heal while a loss ramp persists.
func (n *Net) setRule(p rulePair, r rule) {
	if !r.block && !r.hasLoss {
		delete(n.rules, p)
		return
	}
	n.rules[p] = r
}

// BlockLink drops all traffic from -> to (directional, so intransitive
// connectivity failures can be modelled). Any loss override on the pair
// is preserved for when the block is lifted.
func (n *Net) BlockLink(from, to transport.Addr) {
	r := n.rules[rulePair{from, to}]
	r.block = true
	n.rules[rulePair{from, to}] = r
}

// BlockBoth drops traffic in both directions between a and b.
func (n *Net) BlockBoth(a, b transport.Addr) {
	n.BlockLink(a, b)
	n.BlockLink(b, a)
}

// UnblockLink removes a directional block, leaving any loss override on
// the pair in force.
func (n *Net) UnblockLink(from, to transport.Addr) {
	p := rulePair{from, to}
	r, ok := n.rules[p]
	if !ok {
		return
	}
	r.block = false
	n.setRule(p, r)
}

// UnblockBoth removes the blocks in both directions between a and b.
func (n *Net) UnblockBoth(a, b transport.Addr) {
	n.UnblockLink(a, b)
	n.UnblockLink(b, a)
}

// SetLinkLoss overrides the end-to-end loss probability for the
// directional pair, replacing the topology-derived route loss. Any block
// on the pair is preserved.
func (n *Net) SetLinkLoss(from, to transport.Addr, loss float64) {
	r := n.rules[rulePair{from, to}]
	r.loss = loss
	r.hasLoss = true
	n.rules[rulePair{from, to}] = r
}

// ClearLinkLoss removes a directional loss override, restoring the
// topology-derived route loss while leaving any block in force.
func (n *Net) ClearLinkLoss(from, to transport.Addr) {
	p := rulePair{from, to}
	r, ok := n.rules[p]
	if !ok {
		return
	}
	r.loss, r.hasLoss = 0, false
	n.setRule(p, r)
}

// ClearRule removes every override (block and loss) on the directional
// pair in one step.
func (n *Net) ClearRule(from, to transport.Addr) {
	delete(n.rules, rulePair{from, to})
}

// Blocked reports whether a directional block is in force on the pair.
func (n *Net) Blocked(from, to transport.Addr) bool {
	return n.rules[rulePair{from, to}].block
}

// LossOverride returns the pair's loss override and whether one is set.
func (n *Net) LossOverride(from, to transport.Addr) (float64, bool) {
	r := n.rules[rulePair{from, to}]
	return r.loss, r.hasLoss
}

// RuleCount reports how many directional pairs currently carry an
// override; fault-injection engines use it to verify selective healing.
func (n *Net) RuleCount() int { return len(n.rules) }

// Partition blocks all traffic between the listed groups (traffic within a
// group is unaffected).
func (n *Net) Partition(groups ...[]transport.Addr) {
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					n.BlockBoth(a, b)
				}
			}
		}
	}
}

// HealPartition removes the blocks a Partition over the same groups
// installed, and only those: loss overrides and unrelated blocks survive,
// so one partition can heal while other injected faults persist.
func (n *Net) HealPartition(groups ...[]transport.Addr) {
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					n.UnblockBoth(a, b)
				}
			}
		}
	}
}

// ClearRules removes all blocks and loss overrides.
func (n *Net) ClearRules() { n.rules = make(map[rulePair]rule) }

// Detach unplugs the endpoint from the network without stopping its
// process: timers keep firing, but every message it sends or should
// receive (including ones already in flight) is dropped. The inverse of
// Rejoin; together they model a node-scoped network outage, which is not
// expressible as pair rules without enumerating every other endpoint.
func (n *Net) Detach(addr transport.Addr) { n.mustNode(addr).detached = true }

// Rejoin plugs a detached endpoint back into the network.
func (n *Net) Rejoin(addr transport.Addr) { n.mustNode(addr).detached = false }

// Detached reports whether the endpoint is currently unplugged.
func (n *Net) Detached(addr transport.Addr) bool { return n.mustNode(addr).detached }

// Sent returns the number of Send calls that reached the network (from
// live nodes). Like all aggregate counters it sums the per-shard stripes
// and must be read at a fence.
func (n *Net) Sent() uint64 {
	var total uint64
	for i := range n.slots {
		total += n.slots[i].sent
	}
	return total
}

// Delivered returns the number of messages handed to a handler.
func (n *Net) Delivered() uint64 {
	var total uint64
	for i := range n.slots {
		total += n.slots[i].delivered
	}
	return total
}

// Dropped returns the number of messages lost to blocks, socket breaks, or
// dead destinations.
func (n *Net) Dropped() uint64 {
	var total uint64
	for i := range n.slots {
		total += n.slots[i].dropped
	}
	return total
}

// --- transport.Env implementation ---

func (nd *node) Addr() transport.Addr { return nd.addr }
func (nd *node) Rand() *rand.Rand     { return nd.rng }

// Elapsed returns the node's local virtual clock, its shard's: inside a
// window it may run ahead of other shards and of the simulator's fence
// clock, but it is exactly the executing event's time.
func (nd *node) Elapsed() time.Duration { return nd.shard.Elapsed() }

func (nd *node) After(d time.Duration, fn func()) transport.Timer {
	epoch := nd.epoch
	wrapped := func() {
		if nd.crashed || nd.epoch != epoch {
			return
		}
		fn()
	}
	return nd.shard.After(d, wrapped)
}

// Send resolves to afresh and caches nothing.
func (nd *node) Send(to transport.Addr, msg transport.Message) {
	if !nd.canSend(msg) {
		return
	}
	dst := nd.net.nodes[to]
	if dst == nil {
		nd.drop(msg)
		return
	}
	path := nd.pathTo(dst)
	nd.send(dst, path.Latency, path.Loss, msg)
}

// SendRoute implements transport.Dialer: it resolves r at its first send
// that finds a node at r.Addr, and keeps what it found in r.
func (nd *node) SendRoute(r *transport.Route, msg transport.Message) {
	if !nd.canSend(msg) {
		return
	}
	dst, _ := r.Dst.(*node)
	if dst == nil {
		if dst = nd.net.nodes[r.Addr]; dst == nil {
			nd.drop(msg)
			return
		}
		path := nd.pathTo(dst)
		r.Dst, r.Latency, r.Loss = dst, path.Latency, path.Loss
	}
	nd.send(dst, r.Latency, r.Loss, msg)
}

// canSend reports whether the node is plugged in and up; if not, msg is
// released, and counted as dropped unless the node is crashed.
func (nd *node) canSend(msg transport.Message) bool {
	switch {
	case nd.crashed:
		transport.ReleaseMessage(msg)
	case nd.detached:
		nd.drop(msg)
	default:
		return true
	}
	return false
}

// drop counts msg as dropped at the sender and releases it.
func (nd *node) drop(msg transport.Message) {
	nd.net.slots[nd.slot].dropped++
	transport.ReleaseMessage(msg)
}

// send is the one send body, behind Env.Send and SendRoute: msg leaves
// for dst over a path of the given latency and loss.
func (nd *node) send(dst *node, latency time.Duration, loss float64, msg transport.Message) {
	net := nd.net
	net.slots[nd.slot].sent++

	if len(net.rules) > 0 {
		r := net.rules[rulePair{nd.addr, dst.addr}]
		if r.block {
			nd.drop(msg)
			return
		}
		if r.hasLoss {
			loss = r.loss
		}
	}

	// Sender-side serialization: messages leave one at a time, each
	// paying SendOverhead. This serial queue is what the paper's Figure 8
	// attributes its group-size dependence to.
	now := nd.shard.Elapsed()
	depart := now
	if nd.nextFree > depart {
		depart = nd.nextFree
	}
	depart += net.opts.SendOverhead
	nd.nextFree = depart

	// TCP-like retransmission: each attempt independently succeeds with
	// probability 1-loss; exhausting the attempts breaks the connection
	// and loses the message.
	var retryDelay time.Duration
	delivered := false
	rto := net.opts.RetryRTO
	for attempt := 0; attempt < net.opts.RetriesBeforeBreak; attempt++ {
		if loss <= 0 || nd.rng.Float64() >= loss {
			delivered = true
			break
		}
		retryDelay += rto
		rto *= 2
	}
	if !delivered {
		nd.drop(msg)
		return
	}

	dl := net.newDelivery(nd.slot)
	dl.from, dl.dst, dl.msg, dl.epoch = nd.addr, dst, msg, dst.epoch
	// The total delay is at least SendOverhead + path latency +
	// DeliverOverhead; a cross-shard destination is in a different AS
	// (shardOf keys shards on ASes), so its path crosses at least one
	// inter-AS link and the delay clears MinDeliveryDelay - the lookahead
	// bound the barrier merge enforces.
	delay := depart - now + latency + retryDelay + net.opts.DeliverOverhead
	nd.shard.Post(dst.shard, delay, dl.run)
}

var (
	_ transport.Env    = (*node)(nil)
	_ transport.Dialer = (*node)(nil)
)
