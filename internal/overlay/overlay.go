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
// Every neighbor has a slot in a dense link table, and a parallel array,
// due, holds the instant each link's current phase ends: the next ping
// while it sleeps out the interval, the ack deadline while a ping is
// outstanding. The node's timer is armed for the earliest entry and its
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
// neighbor as a destination the transport resolved once (transport.Dial).
package overlay

import (
	"crypto/sha1"
	"fmt"
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

// Config carries the overlay parameters. The defaults mirror the paper's
// evaluation setup (60 s ping period, base 8, leaf set 16) with a 20 s
// ping timeout from its crash-notification experiment.
type Config struct {
	Base          int           // numeric-ID digit base
	LeafSize      int           // total leaf set size (half per side)
	MaxLevels     int           // ring levels above the root ring
	PingInterval  time.Duration // neighbor liveness-check period
	PingTimeout   time.Duration // unanswered ping => neighbor dead
	RingSearchMax int           // hop budget for ring-neighbor searches
	RouteTTL      int           // hop budget for routed messages
}

// DefaultConfig returns the paper's overlay configuration.
func DefaultConfig() Config {
	return Config{
		Base:          8,
		LeafSize:      16,
		MaxLevels:     16,
		PingInterval:  60 * time.Second,
		PingTimeout:   20 * time.Second,
		RingSearchMax: 32,
		RouteTTL:      100,
	}
}

// Scale returns a copy of the config with all durations multiplied by f,
// used by tests to run protocol time faster.
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

	// PingPayload supplies the piggyback content for a liveness ping
	// about to be sent to neighbor. A nil return piggybacks nothing.
	PingPayload(neighbor NodeRef) []byte

	// OnPingPayload examines the piggyback content of a ping received
	// from neighbor.
	OnPingPayload(neighbor NodeRef, payload []byte)

	// OnNeighborDown reports that a routing-table neighbor failed its
	// liveness check and has been removed from the table. It fires
	// before the overlay attempts to repair the table entry.
	OnNeighborDown(neighbor NodeRef)

	// OnNeighborUp reports that a node entered the routing table and is
	// now monitored with liveness pings. It fires for every neighbor:
	// during assembly, on join, and as churn repairs the table. FUSE uses
	// it after a crash recovery to reconcile checking state with each
	// neighbor as soon as the link exists instead of waiting for the
	// first ping exchange.
	OnNeighborUp(neighbor NodeRef)
}

// nopClient lets a Node run without an attached client.
type nopClient struct{}

func (nopClient) OnRouteMessage(transport.Message, RouteInfo) {}
func (nopClient) PingPayload(NodeRef) []byte                  { return nil }
func (nopClient) OnPingPayload(NodeRef, []byte)               {}
func (nopClient) OnNeighborDown(NodeRef)                      {}
func (nopClient) OnNeighborUp(NodeRef)                        {}

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
	rights []NodeRef
	lefts  []NodeRef

	// Liveness: links is the dense table of ping cycles (a link's id is
	// its index plus one; a free slot is nil) and due, parallel to it, is
	// when each link's current phase ends on the elapsed() clock (never
	// for a free slot). One timer serves them all: it is armed for armed,
	// which is at or before the earliest due entry, and tick is pingTick
	// bound once. pings indexes the same cycles by address for the cold
	// paths: table reconciliation, and a message carrying no usable id.
	links   []*pingState
	due     []time.Duration
	timer   transport.Timer
	armed   time.Duration
	tick    func()
	start   time.Time
	pings   map[transport.Addr]*pingState
	pingGen uint64 // bumped by every syncPings; stamps the refs it found

	// searches tracks in-flight ring-neighbor searches by level so
	// repair does not flood duplicates.
	searches map[searchKey]bool

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

type searchKey struct {
	level int
	right bool
}

// New creates a detached overlay node for env. Call SetClient, then either
// Join (live protocol) or let AssembleStatic wire the tables directly.
func New(env transport.Env, cfg Config, name string) *Node {
	if name == "" {
		panic("overlay: empty node name")
	}
	n := &Node{
		env:      env,
		cfg:      cfg,
		self:     NodeRef{Name: name, Addr: env.Addr()},
		digits:   DigitsOf(name, cfg.Base, cfg.MaxLevels),
		client:   nopClient{},
		rights:   make([]NodeRef, cfg.MaxLevels+1),
		lefts:    make([]NodeRef, cfg.MaxLevels+1),
		armed:    never,
		start:    env.Now(),
		pings:    make(map[transport.Addr]*pingState),
		searches: make(map[searchKey]bool),
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

// Stop halts liveness checking. Pending pings are abandoned.
func (n *Node) Stop() {
	n.stopped = true
	if n.timer != nil {
		n.timer.Stop()
	}
	n.links, n.due, n.pings = nil, nil, map[transport.Addr]*pingState{}
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
	for h := 1; h <= n.cfg.MaxLevels; h++ {
		other(n.rights[h])
		other(n.lefts[h])
	}
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

func (n *Node) logf(format string, args ...any) {
	n.env.Logf("overlay %s: %s", n.self.Name, fmt.Sprintf(format, args...))
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
