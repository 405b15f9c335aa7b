// Package overlay is a clean-room implementation of the SkipNet-style
// content-addressable overlay that the paper's FUSE implementation runs
// on. It provides exactly the functionality FUSE requires of its overlay
// (§6.1 of the paper):
//
//   - routing by node name with a client upcall at every intermediate hop,
//   - a routing table visible to the client,
//   - bidirectional liveness pings between routing-table neighbors with a
//     client-supplied piggyback payload on every ping, and
//   - notification to the client when a neighbor is declared dead.
//
// Structure: every node has a unique name and a numeric ID derived from
// the SHA-1 of the name, interpreted as base-8 digits (the paper
// configures SkipNet with "a base of size 8"). Nodes form a sorted
// circular ring by name at level 0 (maintained through leaf sets, "a leaf
// set of size 16"), and at level h > 0 a ring per h-digit numeric-ID
// prefix. Routing proceeds clockwise by name, greedily taking the
// neighbor closest to the destination without passing it; this yields
// O(log n) expected hops and, when the destination name is absent, the
// message stops at the destination's predecessor, which triggers the
// route-dead upcall (the paper relies on this to detect "no next hop for
// an InstallChecking message").
//
// Liveness checking runs on one timer per node, not one per neighbor.
// Every neighbor has a slot in a dense link table of records held by
// value, and a parallel array, due, holds the instant each link's
// current phase ends: the next ping while it sleeps out the interval,
// the ack deadline while a ping is outstanding. The node's timer is armed for the earliest entry and its
// callback scans the few dozen contiguous entries, pinging or declaring
// dead whichever have fallen due. An ack that arrives in time costs no
// event at all: it moves its link's entry from the deadline to the next
// ping, and the deadline that did not expire never fires. A ping cycle is
// thereby three simulator events (tick, ping delivery, ack delivery), and
// a 16,000-node overlay keeps 16,000 standing timers rather than hundreds
// of thousands; the timer is re-armed in place via the transport's
// reschedule support, so none of it allocates in steady state. First
// pings are phase-staggered uniformly over the interval, keeping
// background load smooth at any scale. Pings and acks carry each end's
// slot number for the link, so both handlers find their record by index
// instead of hashing the sender's address, and each record holds its
// neighbor's transport.Route by value: the address, and what the
// transport resolved it to at its first send, so a ping touches no other
// per-neighbor record on the way out.
// The link table is the only index of a node's links: the cold paths
// that start from an address (table reconciliation, a ping whose echoed
// id is stale) scan its few dozen contiguous records.
//
// A link's id is its client's key too. The client hears when a slot is
// opened (Client.OnNeighborUp) and closed (Client.OnLinkClosed), and gets
// the id with every payload it supplies or receives (Client.LinkPayload),
// so it can keep its own per-link state by index: between the open and
// the close an id names one neighbor, and nothing needs to check an
// address against it.
//
// The structure (base, leaf set, levels, hop budgets) is fixed by
// constants; Config holds only the ping interval and timeout, which a
// live node scales by its time scale.
package overlay

import (
	"crypto/sha1"
	"time"

	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// NodeRef identifies an overlay node: a stable name plus the transport
// address it currently listens on. Protocols above the overlay pass
// NodeRefs around; the overlay resolves names to addresses for routing.
type NodeRef struct {
	Name string
	Addr transport.Addr
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Name == "" && r.Addr == "" }

func (r NodeRef) String() string { return r.Name }

// The overlay's structure: the paper's SkipNet configuration ("a base of
// size 8", "a leaf set of size 16") and this implementation's level and
// hop budgets.
const (
	digitBase     = 8   // numeric-ID digit base
	leafSize      = 16  // total leaf set size (half per side)
	maxLevels     = 16  // ring levels above the root ring
	ringSearchMax = 32  // hop budget for ring-neighbor searches
	routeTTL      = 100 // hop budget for routed messages
)

// Config is the overlay's liveness timing, the one part of it a node
// scales (fuse.NodeConfig.TimeScale).
type Config struct {
	PingInterval time.Duration // neighbor liveness-check period
	PingTimeout  time.Duration // unanswered ping => neighbor dead
}

// DefaultConfig returns the paper's timing: a 60 s ping period, and the
// 20 s ping timeout of its crash-notification experiment.
func DefaultConfig() Config {
	return Config{PingInterval: 60 * time.Second, PingTimeout: 20 * time.Second}
}

// Scale returns a copy of the config with both durations multiplied by f.
func (c Config) Scale(f float64) Config {
	c.PingInterval = time.Duration(float64(c.PingInterval) * f)
	c.PingTimeout = time.Duration(float64(c.PingTimeout) * f)
	return c
}

// RouteInfo describes a routed client message at an upcall.
type RouteInfo struct {
	Origin NodeRef // node that initiated the route
	Dest   string  // destination name
	Prev   NodeRef // node the message came from (zero at the origin)
	Next   NodeRef // node the message is being forwarded to (zero at dest)
	// Arrived is true when this node is the destination.
	Arrived bool
	// Dead is true when this node has no next hop toward Dest (the
	// destination is not in the overlay); the message stops here.
	Dead bool
	Hops int
}

// Client is the interface the layer above the overlay (FUSE) implements.
// All upcalls run on the node's single-threaded event loop.
type Client interface {
	// OnRouteMessage is invoked for a client message at every
	// intermediate hop, at the destination, and at the node where
	// routing dies. Forwarding happens after the upcall returns.
	OnRouteMessage(msg transport.Message, info RouteInfo)

	// LinkPayload supplies the piggyback content for a liveness ping
	// about to be sent to neighbor. A nil return piggybacks nothing.
	//
	// link is this node's id for the link to neighbor: its slot in the
	// link table plus one. An id is valid from the OnNeighborUp that
	// opens it to the OnLinkClosed that closes it, and names one
	// neighbor all that time, so a client may index per-link state by
	// it without checking the neighbor's address. A closed id is reused
	// for the next neighbor to enter, lowest first.
	LinkPayload(link uint32, neighbor NodeRef) []byte

	// OnLinkPayload examines the piggyback content of a ping received
	// from neighbor. link is as for LinkPayload, or 0 when the sender is
	// not in this node's routing table.
	OnLinkPayload(link uint32, neighbor NodeRef, payload []byte)

	// OnNeighborDown reports that a routing-table neighbor failed its
	// liveness check and is being removed from the table. It fires
	// before the overlay closes the link and attempts to repair the
	// table entry.
	OnNeighborDown(neighbor NodeRef)

	// OnNeighborUp reports that a node entered the routing table and is
	// now monitored with liveness pings over the link id link. It fires
	// for every neighbor: during assembly, on join, and as churn repairs
	// the table. FUSE uses it after a crash recovery to reconcile
	// checking state with each neighbor as soon as the link exists
	// instead of waiting for the first ping exchange.
	OnNeighborUp(link uint32, neighbor NodeRef)

	// OnLinkClosed reports that neighbor left the routing table (after
	// OnNeighborDown, if it died) or the node stopped, so link no
	// longer names it.
	OnLinkClosed(link uint32, neighbor NodeRef)
}

// nopClient lets a Node run without an attached client.
type nopClient struct{}

func (nopClient) OnRouteMessage(transport.Message, RouteInfo) {}
func (nopClient) LinkPayload(uint32, NodeRef) []byte          { return nil }
func (nopClient) OnLinkPayload(uint32, NodeRef, []byte)       {}
func (nopClient) OnNeighborDown(NodeRef)                      {}
func (nopClient) OnNeighborUp(uint32, NodeRef)                {}
func (nopClient) OnLinkClosed(uint32, NodeRef)                {}

// Node is one overlay participant. It must only be touched from its Env's
// event loop (message handler and timer callbacks).
type Node struct {
	env    transport.Env
	cfg    Config
	self   NodeRef
	digits []byte
	client Client

	// Level-0 state: leaf sets sorted by clockwise (leafR) and
	// counterclockwise (leafL) closeness. The immediate successor is
	// leafR[0], the predecessor leafL[0].
	leafR []NodeRef
	leafL []NodeRef

	// Ring state for levels >= 1: rights[h] / lefts[h] are this node's
	// clockwise/counterclockwise neighbors in the ring of nodes sharing
	// h numeric-ID digits. Index 0 is unused (derived from leaf sets).
	// Both tables start empty and grow together, only as far as the
	// highest level ever written (ringSlot); ring reads past them as
	// empty.
	rights []NodeRef
	lefts  []NodeRef

	// Liveness: links is the dense table of ping cycles, held by value (a
	// link's id is its index plus one; a free slot is the zero
	// pingState) and due, parallel to it, is when each link's current
	// phase ends on the env's Elapsed clock (never for a free slot). One
	// timer serves them all: it is armed for armed, which is at or before
	// the earliest due entry, and tick is pingTick bound once. The cold
	// paths that hold only an address find its slot by a scan (slotOf).
	links []pingState
	due   []time.Duration
	timer transport.Timer
	armed time.Duration
	tick  func()

	// pingGen is bumped by every syncPings and stamps the refs it found.
	// Every slot a pass keeps carries that pass's stamp, so a wrap is
	// harmless.
	pingGen uint16

	// searches has a bit set for each in-flight ring-neighbour search
	// (see searchBit) so repair does not flood duplicates.
	searches uint32

	// joining is set while a join lookup awaits its reply: the first
	// reply clears it, and a reply that finds it clear is dropped.
	joining bool
	stopped bool

	tm ovTelemetry
}

// ovTelemetry holds the overlay's metric handles, resolved once at
// construction. A nil lane (no registry behind the env) makes every
// write a single-branch no-op.
type ovTelemetry struct {
	lane          *telemetry.Lane
	pingsSent     telemetry.Counter
	pingsRecv     telemetry.Counter
	acksRecv      telemetry.Counter
	neighborsDead telemetry.Counter
	rtt           telemetry.Histogram
}

// searchBit is the bit of Node.searches that stands for a ring search at
// level (1 to maxLevels) in one direction.
func searchBit(level int, right bool) uint32 {
	bit := uint32(1) << (2 * (level - 1))
	if right {
		bit <<= 1
	}
	return bit
}

// New creates a detached overlay node for env. Call SetClient, then either
// Join (live protocol) or let AssembleStatic wire the tables directly.
func New(env transport.Env, cfg Config, name string) *Node {
	if name == "" {
		panic("overlay: empty node name")
	}
	n := &Node{
		env:    env,
		cfg:    cfg,
		self:   NodeRef{Name: name, Addr: env.Addr()},
		digits: DigitsOf(name, digitBase, maxLevels),
		client: nopClient{},
		armed:  never,
	}
	n.tick = n.pingTick
	if lane := telemetry.FromEnv(env); lane != nil {
		reg := lane.Registry()
		n.tm = ovTelemetry{
			lane:          lane,
			pingsSent:     reg.Counter("overlay_pings_sent_total", "liveness pings sent"),
			pingsRecv:     reg.Counter("overlay_pings_received_total", "liveness pings received"),
			acksRecv:      reg.Counter("overlay_ping_acks_total", "ping acks received in time"),
			neighborsDead: reg.Counter("overlay_neighbor_deaths_total", "liveness checks declaring a neighbor dead"),
			rtt:           reg.Histogram("overlay_ping_rtt_ms", "ping round-trip time"),
		}
	}
	return n
}

// Self returns this node's reference.
func (n *Node) Self() NodeRef { return n.self }

// SetClient attaches the protocol layer above the overlay.
func (n *Node) SetClient(c Client) {
	if c == nil {
		n.client = nopClient{}
		return
	}
	n.client = c
}

// Stop halts liveness checking. Pending pings are abandoned, and every
// link is closed.
func (n *Node) Stop() {
	n.stopped = true
	if n.timer != nil {
		n.timer.Stop()
	}
	for i := range n.links {
		if n.links[i].open() {
			n.closeLink(i)
		}
	}
	n.links, n.due = nil, nil
}

// DigitsOf derives a node's numeric ID: the SHA-1 of its name split into
// base-b digits. Deriving (rather than choosing randomly, as SkipNet does)
// keeps identical runs reproducible; the digits are still uniformly
// distributed, which is all the ring construction needs.
func DigitsOf(name string, base, count int) []byte {
	sum := sha1.Sum([]byte(name))
	digits := make([]byte, count)
	// Use the hash as a big integer, extracting digits by repeated
	// modulus. Recycle the hash bytes in a rolling fashion; uniformity
	// over small bases is preserved well enough for ring balancing.
	acc := uint64(0)
	bits := 0
	bi := 0
	for i := 0; i < count; i++ {
		for bits < 24 {
			acc = acc<<8 | uint64(sum[bi%len(sum)])
			bi++
			bits += 8
		}
		digits[i] = byte(acc % uint64(base))
		acc /= uint64(base)
		bits -= 3
	}
	return digits
}

// SharedPrefix returns how many leading digits a and b share.
func SharedPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// eachTableRef visits every routing-table entry naming another node, in
// the tables' fixed order: leafR, leafL, then rights[h] and lefts[h]
// upward. A node held by several tables is visited once per table.
func (n *Node) eachTableRef(visit func(NodeRef)) {
	other := func(r NodeRef) {
		if !r.IsZero() && r.Addr != n.self.Addr {
			visit(r)
		}
	}
	for _, r := range n.leafR {
		other(r)
	}
	for _, r := range n.leafL {
		other(r)
	}
	for h := 1; h < len(n.rights); h++ {
		other(n.rights[h])
		other(n.lefts[h])
	}
}

// ring returns the level-h ring neighbor on the right (clockwise) or
// left side; a level past the tables is empty.
func (n *Node) ring(h int, right bool) NodeRef {
	if h >= len(n.rights) {
		return NodeRef{}
	}
	if right {
		return n.rights[h]
	}
	return n.lefts[h]
}

// ringSlot returns the level-h entry on one side for writing, first
// growing both tables to exactly h+1 levels if they are shorter.
func (n *Node) ringSlot(h int, right bool) *NodeRef {
	if h >= len(n.rights) {
		rights, lefts := make([]NodeRef, h+1), make([]NodeRef, h+1)
		copy(rights, n.rights)
		copy(lefts, n.lefts)
		n.rights, n.lefts = rights, lefts
	}
	if right {
		return &n.rights[h]
	}
	return &n.lefts[h]
}

// Neighbors returns the distinct set of routing-table neighbors, the
// nodes this overlay node monitors with liveness pings. This is the
// "routing table is visible to the client" functionality of §6.1.
func (n *Node) Neighbors() []NodeRef {
	seen := make(map[transport.Addr]bool)
	var out []NodeRef
	n.eachTableRef(func(r NodeRef) {
		if !seen[r.Addr] {
			seen[r.Addr] = true
			out = append(out, r)
		}
	})
	return out
}

// Successor returns the level-0 clockwise neighbor.
func (n *Node) Successor() NodeRef {
	if len(n.leafR) == 0 {
		return NodeRef{}
	}
	return n.leafR[0]
}

// Predecessor returns the level-0 counterclockwise neighbor.
func (n *Node) Predecessor() NodeRef {
	if len(n.leafL) == 0 {
		return NodeRef{}
	}
	return n.leafL[0]
}

// --- clockwise name-space geometry ---

// cwDist compares a and b by clockwise distance from anchor. It returns a
// negative value when a is strictly closer clockwise, 0 when equal, and
// positive when farther. The anchor itself sorts farthest (a full loop).
func cwDist(anchor, a, b string) int {
	sa, sb := cwSegment(anchor, a), cwSegment(anchor, b)
	if sa != sb {
		return sa - sb
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cwSegment(anchor, x string) int {
	switch {
	case x > anchor:
		return 0
	case x < anchor:
		return 1
	default:
		return 2
	}
}

// betweenCW reports whether x lies in the clockwise-open interval (a, b).
// When a == b the interval is the whole circle minus a.
func betweenCW(a, x, b string) bool {
	if x == a || x == b {
		return false
	}
	if a == b {
		return true
	}
	return cwDist(a, x, b) < 0
}
