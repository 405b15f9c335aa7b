package overlay

import (
	"sync"

	"fuse/internal/transport"
)

// Wire messages. Every type embeds body and registers itself with the
// transport codec, so the same protocol code runs over the simulated and
// the TCP transport. Messages travel as pointers through the
// transport.Message union; the ping-cycle pair is pool-backed so
// steady-state liveness checking sends without heap allocation.

// body is the transport marker, unexported so it stays off the wire. Its
// method makes a message the overlay's: Handle claims exactly the types
// that embed it.
type body struct{ transport.Body }

func (body) overlayMessage() {}

// msgPing is the periodic liveness check between routing-table neighbors,
// carrying the client's piggyback payload (FUSE's 20-byte group hash).
//
// Link is the sender's link id for the receiver (see pingState.id; 0 when
// the sender keeps no link to it) and PeerLink the receiver's own id for
// the sender as the sender last heard it (0 = not heard yet). They let
// each end find its per-neighbor record by slice index instead of
// hashing From.Addr. An id is a hint the receiver checks against From.Addr
// before using, never an authority: a stale or forged one costs a map
// lookup, nothing else.
type msgPing struct {
	body
	From     NodeRef
	Seq      uint64
	Payload  []byte
	Link     uint32
	PeerLink uint32
}

// msgPingAck answers a ping. Link and PeerLink are as in msgPing.
type msgPingAck struct {
	body
	From     NodeRef
	Seq      uint64
	Link     uint32
	PeerLink uint32
}

// The ping-cycle records are drawn from pools: one ping and one ack per
// neighbor per interval is the overlay's entire steady-state traffic, and
// pooling them (together with the transport's pooled deliveries and
// in-place timer resets) is what makes that cycle allocation-free.
var (
	pingPool    = sync.Pool{New: func() any { return new(msgPing) }}
	pingAckPool = sync.Pool{New: func() any { return new(msgPingAck) }}
)

func newMsgPing() *msgPing       { return pingPool.Get().(*msgPing) }
func newMsgPingAck() *msgPingAck { return pingAckPool.Get().(*msgPingAck) }

// Release zeroes the record - dropping the payload alias so no piggyback
// bytes leak into a later delivery - and returns it to the pool.
func (m *msgPing) Release() {
	*m = msgPing{}
	pingPool.Put(m)
}

func (m *msgPingAck) Release() {
	*m = msgPingAck{}
	pingAckPool.Put(m)
}

var (
	_ transport.Pooled = (*msgPing)(nil)
	_ transport.Pooled = (*msgPingAck)(nil)
)

// msgRoute carries a payload through the overlay toward a destination
// name, hop by hop.
type msgRoute struct {
	body
	Dest    string
	Origin  NodeRef
	LastHop NodeRef
	Hops    int
	TTL     int
	Inner   transport.Message
}

// msgJoinLookup is routed toward the joiner's own name; the node at which
// routing stops (the joiner's future predecessor) answers with the state
// the joiner needs to insert itself.
type msgJoinLookup struct {
	body
	Joiner NodeRef
}

// msgJoinReply carries the predecessor's view to the joiner.
type msgJoinReply struct {
	body
	Pred  NodeRef
	LeafR []NodeRef
	LeafL []NodeRef
}

// msgLevel0Insert announces a new node to its level-0 neighborhood; the
// recipients splice it into their leaf sets.
type msgLevel0Insert struct {
	body
	Node NodeRef
}

// msgLeafRequest asks a peer for its leaf sets (used to refill a depleted
// leaf set after failures).
type msgLeafRequest struct {
	body
	From NodeRef
}

// msgLeafReply returns the peer's leaf sets.
type msgLeafReply struct {
	body
	From  NodeRef
	LeafR []NodeRef
	LeafL []NodeRef
}

// msgRingSearch walks a ring at WalkLevel looking for the first node whose
// numeric ID extends the origin's prefix to MatchLen digits; that node
// becomes the origin's ring neighbor at MatchLen.
type msgRingSearch struct {
	body
	Origin   NodeRef
	MatchLen int
	WalkLeft bool // walk counterclockwise (searching for a left neighbor)
	HopsLeft int
}

// msgRingFound answers a ring search.
type msgRingFound struct {
	body
	Node     NodeRef
	MatchLen int
	WalkLeft bool
}

// msgRingInsert announces the origin as a new member of the MatchLen ring
// adjacent to the recipient; the recipient splices it in as its left or
// right neighbor at that level.
type msgRingInsert struct {
	body
	Node   NodeRef
	Level  int
	AsLeft bool // true: Node becomes recipient's left neighbor
}

// msgRingInsertAck confirms a ring insert and tells the joiner its other
// neighbor at the level (the recipient's displaced pointer).
type msgRingInsertAck struct {
	body
	From      NodeRef
	Level     int
	WasLeft   bool // recipient spliced Node in as its left neighbor
	Displaced NodeRef
}

// msgSetRingNeighbor directs the recipient to replace its pointer at
// Level.
type msgSetRingNeighbor struct {
	body
	Node  NodeRef
	Level int
	Right bool // set recipient's right pointer (else left)
}

func init() {
	transport.Register("overlay.ping", func() transport.Message { return newMsgPing() })
	transport.Register("overlay.pingAck", func() transport.Message { return newMsgPingAck() })
	transport.Register("overlay.route", func() transport.Message { return new(msgRoute) })
	transport.Register("overlay.joinLookup", func() transport.Message { return new(msgJoinLookup) })
	transport.Register("overlay.joinReply", func() transport.Message { return new(msgJoinReply) })
	transport.Register("overlay.level0Insert", func() transport.Message { return new(msgLevel0Insert) })
	transport.Register("overlay.leafRequest", func() transport.Message { return new(msgLeafRequest) })
	transport.Register("overlay.leafReply", func() transport.Message { return new(msgLeafReply) })
	transport.Register("overlay.ringSearch", func() transport.Message { return new(msgRingSearch) })
	transport.Register("overlay.ringFound", func() transport.Message { return new(msgRingFound) })
	transport.Register("overlay.ringInsert", func() transport.Message { return new(msgRingInsert) })
	transport.Register("overlay.ringInsertAck", func() transport.Message { return new(msgRingInsertAck) })
	transport.Register("overlay.setRingNeighbor", func() transport.Message { return new(msgSetRingNeighbor) })
}

// Handle dispatches an incoming transport message to the overlay. It
// returns false when the message is not an overlay message, so a node's
// top-level handler can try other protocol layers. A stopped node still
// claims every overlay message, and drops it, so none is misrouted to
// another layer. A running one drops a bare msgJoinLookup: a lookup only
// ever travels inside a msgRoute.
func (n *Node) Handle(from transport.Addr, msg transport.Message) bool {
	if _, ok := msg.(interface{ overlayMessage() }); !ok {
		return false
	}
	if n.stopped {
		return true
	}
	switch m := msg.(type) {
	case *msgPing:
		n.handlePing(m)
	case *msgPingAck:
		n.handlePingAck(m)
	case *msgRoute:
		n.handleRoute(m)
	case *msgJoinReply:
		n.handleJoinReply(m)
	case *msgLevel0Insert:
		n.handleLevel0Insert(m)
	case *msgLeafRequest:
		n.handleLeafRequest(m)
	case *msgLeafReply:
		n.handleLeafReply(m)
	case *msgRingSearch:
		n.handleRingSearch(m)
	case *msgRingFound:
		n.handleRingFound(m)
	case *msgRingInsert:
		n.handleRingInsert(m)
	case *msgRingInsertAck:
		n.handleRingInsertAck(m)
	case *msgSetRingNeighbor:
		n.handleSetRingNeighbor(m)
	}
	return true
}
