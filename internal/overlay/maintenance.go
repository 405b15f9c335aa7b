package overlay

import (
	"hash/maphash"
	"math"
	"slices"
	"time"

	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// Maintenance: leaf-set bookkeeping, neighbor liveness pings with client
// piggyback, failure detection, and routing-table repair (leaf refill and
// ring-neighbor searches).

// considerLeaf offers ref as a leaf-set candidate, splicing it into the
// clockwise and counterclockwise leaf sets if it is among the closest
// known nodes. It reports whether any table changed.
func (n *Node) considerLeaf(ref NodeRef) bool {
	if ref.IsZero() || ref.Name == n.self.Name {
		return false
	}
	changed := false
	if insertSorted(&n.leafR, ref, leafSize/2, func(a, b NodeRef) bool {
		return cwDist(n.self.Name, a.Name, b.Name) < 0
	}) {
		changed = true
	}
	if insertSorted(&n.leafL, ref, leafSize/2, func(a, b NodeRef) bool {
		// Counterclockwise closeness is the reverse clockwise order.
		return cwDist(n.self.Name, a.Name, b.Name) > 0
	}) {
		changed = true
	}
	if changed {
		n.syncPings()
	}
	return changed
}

// insertSorted splices ref into the slice ordered by less, keeping at most
// max entries and rejecting duplicates. It reports whether the slice
// changed.
func insertSorted(s *[]NodeRef, ref NodeRef, max int, less func(a, b NodeRef) bool) bool {
	for _, e := range *s {
		if e.Name == ref.Name {
			return false
		}
	}
	pos := len(*s)
	for i, e := range *s {
		if less(ref, e) {
			pos = i
			break
		}
	}
	if pos >= max {
		return false
	}
	*s = append(*s, NodeRef{})
	copy((*s)[pos+1:], (*s)[pos:])
	(*s)[pos] = ref
	if len(*s) > max {
		*s = (*s)[:max]
	}
	return true
}

// removeRef deletes the node with the given address from every table. It
// reports whether anything was removed.
func (n *Node) removeRef(addr transport.Addr) bool {
	removed := false
	filter := func(s []NodeRef) []NodeRef {
		out := s[:0]
		for _, e := range s {
			if e.Addr == addr {
				removed = true
				continue
			}
			out = append(out, e)
		}
		return out
	}
	n.leafR = filter(n.leafR)
	n.leafL = filter(n.leafL)
	for h := 1; h < len(n.rights); h++ {
		if n.rights[h].Addr == addr {
			n.rights[h] = NodeRef{}
			removed = true
		}
		if n.lefts[h].Addr == addr {
			n.lefts[h] = NodeRef{}
			removed = true
		}
	}
	return removed
}

// --- liveness pings ---

// pingState is one neighbor's liveness record, a slot of Node.links: who
// it is, how to reach it without a lookup, and where its two-phase cycle
// stands - a ping goes out and the link waits PingTimeout for the ack
// (awaiting), then sleeps out the rest of PingInterval and pings again.
// It owns no timer: when the current phase ends is Node.due[id-1], and
// the node's one timer serves whichever link's entry comes first. The
// link's id is its slot's index plus one, sent as Link in every ping and
// ack so the neighbor can echo it back. The slot is the only record of
// the neighbor on the node, the transport's included: route holds its
// address and, once the first send has resolved it, what the transport
// resolved it to. A free slot is the zero record. A slot is 80 B
// (TestOpenLinkAndFirstPingZeroAlloc holds it there): hence seq's 32 bits
// and gen's 16, which wrap harmlessly.
type pingState struct {
	name     string          // the neighbor's name; ref() adds route.Addr
	route    transport.Route // the neighbor's address, resolved in place by its first send
	seq      uint32          // seq of the last ping sent
	key      uint32          // addrKey(route.Addr), which a scan compares before the address
	peerLink uint32          // the neighbor's id for us as last heard, echoed to it as PeerLink
	gen      uint16          // Node.pingGen of the last syncPings that found the neighbor in the tables
	awaiting bool            // between a send and its ack or ack deadline
}

// ref is the neighbor the slot holds.
func (ps *pingState) ref() NodeRef { return NodeRef{Name: ps.name, Addr: ps.route.Addr} }

// open reports whether the slot holds a link: eachTableRef hands out no
// zero NodeRef, so an open slot is never the zero record.
func (ps *pingState) open() bool { return ps.name != "" || ps.route.Addr != "" }

// linkSlab is how many slots the link table grows by when it is full.
const linkSlab = 8

// never is the due entry of a free slot in the link table.
const never = time.Duration(math.MaxInt64)

// syncPings reconciles the ping schedule with the routing tables in
// place: every ref the tables hold is stamped with this pass's
// generation, a ref without a ping cycle gets one on the spot, and
// whatever is left with an older stamp has left the tables and stops
// being pinged. The walk is in table order, not map order, because each
// new cycle draws its phase from the node's rng: a stable order keeps
// identically seeded runs identical.
func (n *Node) syncPings() {
	if n.stopped {
		return
	}
	n.pingGen++
	n.eachTableRef(func(ref NodeRef) {
		i := n.slotOf(ref.Addr)
		if i < 0 {
			i = n.startPinging(ref)
		}
		n.links[i].gen = n.pingGen
	})
	for i := range n.links {
		if ps := &n.links[i]; ps.open() && ps.gen != n.pingGen {
			n.closeLink(i)
		}
	}
}

// closeLink frees slot i and tells the client its link is closed. The
// timer, if it was armed for this link, fires, finds nothing due and
// re-arms.
func (n *Node) closeLink(i int) {
	ref := n.links[i].ref()
	n.links[i], n.due[i] = pingState{}, never
	n.client.OnLinkClosed(uint32(i+1), ref)
}

// slotOf is the slot of the link to addr, or -1: a scan of the table
// that compares the addresses' keys, and an address only where they agree.
func (n *Node) slotOf(addr transport.Addr) int {
	key := addrKey(addr)
	for i := range n.links {
		if ps := &n.links[i]; ps.key == key && ps.route.Addr == addr && ps.open() {
			return i
		}
	}
	return -1
}

// keySeed seeds addrKey. Keys only ever meet keys of the same process.
var keySeed = maphash.MakeSeed()

// addrKey is a 32-bit hash of addr: equal keys say only that the
// addresses may be equal.
func addrKey(addr transport.Addr) uint32 { return uint32(maphash.String(keySeed, string(addr))) }

// LinkID returns this node's id for its link to addr, 0 if addr is not a
// routing-table neighbor.
func (n *Node) LinkID(addr transport.Addr) uint32 { return uint32(n.slotOf(addr) + 1) }

// startPinging begins the ping cycle of a neighbor that just entered the
// tables, in the lowest free slot of the link table, tells the client,
// and returns the slot.
func (n *Node) startPinging(ref NodeRef) int {
	i := slices.IndexFunc(n.links, func(ps pingState) bool { return !ps.open() })
	if i < 0 {
		i = len(n.links)
		if i == cap(n.links) {
			// A few slots at a time, not twice the table: a node keeps a
			// few dozen neighbors for as long as it runs.
			n.links = append(make([]pingState, 0, i+linkSlab), n.links...)
		}
		n.links, n.due = append(n.links, pingState{}), append(n.due, never)
	}
	n.links[i] = pingState{name: ref.Name, route: transport.NewRoute(n.env, ref.Addr), key: addrKey(ref.Addr)}
	// Stagger first pings uniformly over the interval so a large
	// overlay's background load is smooth, as a deployed system's
	// would be.
	phase := time.Duration(n.env.Rand().Int63n(int64(n.cfg.PingInterval) + 1))
	now := n.env.Elapsed()
	n.due[i] = now + phase
	if n.due[i] < n.armed {
		n.arm(n.due[i], now)
	}
	n.client.OnNeighborUp(uint32(i+1), ref)
	return i
}

// arm sets the node's timer to fire at at, now being the current reading
// of the env's Elapsed clock; in place from pingTick and whenever the
// timer is still pending.
func (n *Node) arm(at, now time.Duration) {
	n.armed = at
	if n.timer != nil && n.timer.Reset(at-now) {
		return
	}
	n.timer = n.env.After(at-now, n.tick)
}

// pingTick serves every link whose phase has ended - the next ping is
// due, or the last ping's ack deadline passed unanswered - and re-arms the
// timer for the earliest entry left, which it finds in the same pass.
// Links due in the same tick are served in link-id order. A tick that
// finds nothing due (the link it was armed for was acked, which moved its
// entry later, or retired) only re-arms.
func (n *Node) pingTick() {
	if n.stopped {
		return
	}
	n.armed = never
	now := n.env.Elapsed()
	next, edited := never, false
	// neighborDead edits the table under the loop, so index it afresh,
	// and look the earliest entry up again after it.
	for i := 0; i < len(n.due); i++ {
		if d := n.due[i]; d > now {
			next = min(next, d)
			continue
		}
		ps := &n.links[i]
		if ps.awaiting {
			n.neighborDead(ps.ref())
			edited = true
			continue
		}
		ps.seq++
		ps.awaiting = true
		n.due[i] = now + n.cfg.PingTimeout
		next = min(next, n.due[i])
		// The ping record comes from the pool and aliases the client's cached
		// payload; the transport recycles it (dropping the alias) after
		// delivery, so the steady-state send allocates nothing.
		id := uint32(i + 1)
		m := newMsgPing()
		m.From, m.Seq, m.Payload = n.self, uint64(ps.seq), n.client.LinkPayload(id, ps.ref())
		m.Link, m.PeerLink = id, ps.peerLink
		transport.SendRoute(n.env, &ps.route, m)
		n.tm.pingsSent.Inc(n.tm.lane)
		if n.tm.lane.Tracing(telemetry.TraceVerbose) {
			n.tm.lane.Record(n.env.Elapsed(), "ping", n.self.Name, "", 0, 0, ps.name)
		}
	}
	if edited {
		next = never
		for _, d := range n.due {
			next = min(next, d)
		}
	}
	if next < never {
		n.arm(next, now)
	}
}

// linkOf finds the slot of the neighbor at addr in the link table: the
// one the link id it echoed names when that slot holds addr, else the one
// a scan finds, else -1. The echo comes off the wire, so it may be stale:
// the id the neighbor last heard may have been closed and reused since.
func (n *Node) linkOf(id uint32, addr transport.Addr) int {
	if i := int(id) - 1; i >= 0 && i < len(n.links) && n.links[i].route.Addr == addr && n.links[i].open() {
		return i
	}
	return n.slotOf(addr)
}

func (n *Node) handlePing(m *msgPing) {
	n.tm.pingsRecv.Inc(n.tm.lane)
	i := n.linkOf(m.PeerLink, m.From.Addr)
	n.client.OnLinkPayload(uint32(i+1), m.From, m.Payload)
	ack := newMsgPingAck()
	ack.From, ack.Seq, ack.PeerLink = n.self, m.Seq, m.Link
	if i < 0 {
		// Not our neighbor (its tables run ahead of ours, or ours of its).
		n.env.Send(m.From.Addr, ack)
		return
	}
	ps := &n.links[i]
	ps.peerLink = m.Link
	ack.Link = uint32(i + 1)
	transport.SendRoute(n.env, &ps.route, ack)
}

// handlePingAck credits an ack that arrives inside its ping's deadline:
// the link's phase now ends PingInterval after the send instead of
// PingTimeout after it. Moving the entry is all it takes - no timer is
// touched and no event fires for the deadline that did not expire.
func (n *Node) handlePingAck(m *msgPingAck) {
	i := n.linkOf(m.PeerLink, m.From.Addr)
	if i < 0 {
		return
	}
	ps := &n.links[i]
	if !ps.awaiting || m.Seq != uint64(ps.seq) {
		return
	}
	ps.peerLink = m.Link
	ps.awaiting = false
	sentAt := n.due[i] - n.cfg.PingTimeout
	n.due[i] = sentAt + n.cfg.PingInterval
	n.tm.acksRecv.Inc(n.tm.lane)
	n.tm.rtt.Observe(n.tm.lane, n.env.Elapsed()-sentAt)
	if n.tm.lane.Tracing(telemetry.TraceVerbose) {
		n.tm.lane.Record(n.env.Elapsed(), "ack", n.self.Name, "", 0, 0, ps.name)
	}
}

// neighborDead handles a failed liveness check: report to the client,
// remove the neighbor from the tables, and repair the holes it left.
func (n *Node) neighborDead(ref NodeRef) {
	if n.stopped {
		return
	}
	if n.slotOf(ref.Addr) < 0 {
		return
	}
	n.tm.neighborsDead.Inc(n.tm.lane)
	if n.tm.lane.Tracing(telemetry.TraceProto) {
		n.tm.lane.Record(n.env.Elapsed(), "neighbor-dead", n.self.Name, "", 0, 0, ref.Name)
	}
	n.client.OnNeighborDown(ref)

	// Remember which ring levels pointed at the dead node before
	// removal so repair can target them.
	var needRight, needLeft []int
	for h := 1; h < len(n.rights); h++ {
		if n.rights[h].Addr == ref.Addr {
			needRight = append(needRight, h)
		}
		if n.lefts[h].Addr == ref.Addr {
			needLeft = append(needLeft, h)
		}
	}
	n.removeRef(ref.Addr)
	n.syncPings()

	// Leaf refill: any deficit prompts one request to the farthest
	// surviving leaf (who knows nodes beyond our horizon). This is
	// event-driven - one message per detected death - so it cannot
	// storm, and it keeps table density from decaying under churn.
	half := leafSize / 2
	if len(n.leafR) < half || len(n.leafL) < half {
		if peer, ok := n.leafRefillPeer(); ok {
			n.env.Send(peer.Addr, &msgLeafRequest{From: n.self})
		}
	}
	for _, h := range needRight {
		n.startRingSearch(h, true)
	}
	for _, h := range needLeft {
		n.startRingSearch(h, false)
	}
}

func (n *Node) leafRefillPeer() (NodeRef, bool) {
	if len(n.leafR) > 0 {
		return n.leafR[len(n.leafR)-1], true
	}
	if len(n.leafL) > 0 {
		return n.leafL[len(n.leafL)-1], true
	}
	for h := 1; h < len(n.rights); h++ {
		if !n.rights[h].IsZero() {
			return n.rights[h], true
		}
		if !n.lefts[h].IsZero() {
			return n.lefts[h], true
		}
	}
	return NodeRef{}, false
}

func (n *Node) handleLeafRequest(m *msgLeafRequest) {
	n.considerLeaf(m.From)
	n.env.Send(m.From.Addr, &msgLeafReply{
		From:  n.self,
		LeafR: append([]NodeRef(nil), n.leafR...),
		LeafL: append([]NodeRef(nil), n.leafL...),
	})
}

func (n *Node) handleLeafReply(m *msgLeafReply) {
	n.considerLeaf(m.From)
	for _, r := range m.LeafR {
		n.considerLeaf(r)
	}
	for _, r := range m.LeafL {
		n.considerLeaf(r)
	}
}

func (n *Node) handleLevel0Insert(m *msgLevel0Insert) {
	if n.considerLeaf(m.Node) {
		// Share our view so the newcomer discovers its neighborhood.
		n.env.Send(m.Node.Addr, &msgLeafReply{
			From:  n.self,
			LeafR: append([]NodeRef(nil), n.leafR...),
			LeafL: append([]NodeRef(nil), n.leafL...),
		})
	}
}

// --- ring-neighbor search & repair ---

// startRingSearch walks the level-1 below ring looking for this node's
// nearest neighbor in the level ring (sharing `level` numeric-ID digits).
func (n *Node) startRingSearch(level int, right bool) {
	if level < 1 || level > maxLevels {
		return
	}
	bit := searchBit(level, right)
	if n.searches&bit != 0 {
		return
	}
	start := n.walkNeighbor(level-1, right)
	if start.IsZero() {
		return
	}
	n.searches |= bit
	// Allow a retry eventually even if the search dies silently.
	n.env.After(n.cfg.PingInterval, func() { n.searches &^= bit })
	n.env.Send(start.Addr, &msgRingSearch{
		Origin:   n.self,
		MatchLen: level,
		WalkLeft: !right,
		HopsLeft: ringSearchMax,
	})
}

// walkNeighbor returns this node's neighbor at walkLevel in the walk
// direction (right = clockwise).
func (n *Node) walkNeighbor(walkLevel int, right bool) NodeRef {
	if walkLevel <= 0 {
		if right {
			return n.Successor()
		}
		return n.Predecessor()
	}
	return n.ring(walkLevel, right)
}

func (n *Node) handleRingSearch(m *msgRingSearch) {
	if m.Origin.Name == n.self.Name {
		return // walked the full circle
	}
	originDigits := DigitsOf(m.Origin.Name, digitBase, maxLevels)
	if SharedPrefix(n.digits, originDigits) >= m.MatchLen {
		n.env.Send(m.Origin.Addr, &msgRingFound{
			Node:     n.self,
			MatchLen: m.MatchLen,
			WalkLeft: m.WalkLeft,
		})
		return
	}
	if m.HopsLeft <= 1 {
		return
	}
	next := n.walkNeighbor(m.MatchLen-1, !m.WalkLeft)
	if next.IsZero() {
		return
	}
	// Forward the record itself (it is not pooled, so handing it to a
	// second delivery is safe) with one fewer hop in its budget.
	m.HopsLeft--
	n.env.Send(next.Addr, m)
}

func (n *Node) handleRingFound(m *msgRingFound) {
	level := m.MatchLen
	if level < 1 || level > maxLevels {
		return
	}
	n.searches &^= searchBit(level, !m.WalkLeft)
	cand := m.Node
	if cand.Name == n.self.Name {
		return
	}
	candDigits := DigitsOf(cand.Name, digitBase, maxLevels)
	if SharedPrefix(n.digits, candDigits) < level {
		return
	}
	if m.WalkLeft {
		n.adoptRingNeighbor(level, cand, false)
		// We are cand's nearest clockwise ring member: become its right.
		n.env.Send(cand.Addr, &msgRingInsert{Node: n.self, Level: level, AsLeft: false})
	} else {
		n.adoptRingNeighbor(level, cand, true)
		// We are cand's nearest counterclockwise member: become its left.
		n.env.Send(cand.Addr, &msgRingInsert{Node: n.self, Level: level, AsLeft: true})
	}
	// Climb: once a ring pointer at this level exists, the next level
	// becomes searchable.
	n.climbFrom(level)
}

// adoptRingNeighbor installs cand as the level ring neighbor if it is
// closer than the current pointer (or the pointer is empty). It reports
// whether the pointer changed.
func (n *Node) adoptRingNeighbor(level int, cand NodeRef, right bool) bool {
	cur := n.ring(level, right)
	if cand.Name == n.self.Name {
		return false
	}
	closer := false
	if cur.IsZero() {
		closer = true
	} else if right && cwDist(n.self.Name, cand.Name, cur.Name) < 0 {
		closer = true
	} else if !right && cwDist(n.self.Name, cand.Name, cur.Name) > 0 {
		closer = true
	}
	if !closer {
		return false
	}
	*n.ringSlot(level, right) = cand
	n.syncPings()
	return true
}

func (n *Node) handleRingInsert(m *msgRingInsert) {
	level := m.Level
	if level < 1 || level > maxLevels {
		return
	}
	candDigits := DigitsOf(m.Node.Name, digitBase, maxLevels)
	if SharedPrefix(n.digits, candDigits) < level {
		return
	}
	var displaced NodeRef
	if m.AsLeft {
		displaced = n.ring(level, false)
		if !n.adoptRingNeighbor(level, m.Node, false) {
			return
		}
	} else {
		displaced = n.ring(level, true)
		if !n.adoptRingNeighbor(level, m.Node, true) {
			return
		}
	}
	n.env.Send(m.Node.Addr, &msgRingInsertAck{
		From:      n.self,
		Level:     level,
		WasLeft:   m.AsLeft,
		Displaced: displaced,
	})
	// Tell the displaced neighbor its pointer toward us now goes through
	// the newcomer.
	if !displaced.IsZero() && displaced.Name != m.Node.Name {
		n.env.Send(displaced.Addr, &msgSetRingNeighbor{
			Node:  m.Node,
			Level: level,
			Right: m.AsLeft, // we displaced our left => their right changes
		})
	}
}

func (n *Node) handleRingInsertAck(m *msgRingInsertAck) {
	level := m.Level
	if level < 1 || level > maxLevels {
		return
	}
	if m.WasLeft {
		// The acker took us as its left: it is our right neighbor, and
		// whoever it displaced is our left.
		n.adoptRingNeighbor(level, m.From, true)
		if !m.Displaced.IsZero() {
			n.adoptRingNeighbor(level, m.Displaced, false)
		}
	} else {
		n.adoptRingNeighbor(level, m.From, false)
		if !m.Displaced.IsZero() {
			n.adoptRingNeighbor(level, m.Displaced, true)
		}
	}
	n.climbFrom(level)
}

func (n *Node) handleSetRingNeighbor(m *msgSetRingNeighbor) {
	if m.Level < 1 || m.Level > maxLevels {
		return
	}
	candDigits := DigitsOf(m.Node.Name, digitBase, maxLevels)
	if SharedPrefix(n.digits, candDigits) < m.Level {
		return
	}
	n.adoptRingNeighbor(m.Level, m.Node, m.Right)
}

// climbFrom starts searches for the next ring level once this one has a
// pointer, continuing the join's level-by-level table construction.
func (n *Node) climbFrom(level int) {
	next := level + 1
	if next > maxLevels {
		return
	}
	if n.ring(next, true).IsZero() {
		n.startRingSearch(next, true)
	}
	if n.ring(next, false).IsZero() {
		n.startRingSearch(next, false)
	}
}
