package core

import (
	"bytes"
	"slices"

	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Liveness checking (§6.3): tree links, ping piggyback hashes, list
// reconciliation, and the link-failure transition that converts any local
// observation into a group-wide notification.

// addTreeLink installs (or refreshes) the monitored link to neighbor for
// group id at sequence seq, and registers the pair in the per-link index.
func (f *Fuse) addTreeLink(id GroupID, seq uint64, neighbor overlay.NodeRef) {
	if neighbor.IsZero() || neighbor.Addr == f.self.Addr {
		return
	}
	g := f.record(id)
	if seq > g.seq {
		g.seq = seq
	}
	ls := f.linkFor(neighbor)
	i := 0
	for i < len(g.links) && g.links[i].ls.neighbor.Addr < neighbor.Addr {
		i++
	}
	if i == len(g.links) || g.links[i].ls != ls {
		g.links = slices.Insert(g.links, i, treeLink{ls: ls})
		ls.attach(g)
	}
	g.links[i].installedAt = f.env.Elapsed()
	f.ensureLinkTimer(ls)
}

// linkFailed implements the paper's core transition: a node that decides a
// tree link has failed "ceases to acknowledge pings for the given FUSE
// group along all its links" - concretely, it spreads a SoftNotification
// to every tree neighbor, drops its delegate state, and, if it is a member
// or the root, initiates repair. span is the telemetry span of the local
// observation that triggered this (0 when untraced); the soft spread
// carries it so downstream deliveries can name their cause.
func (f *Fuse) linkFailed(id GroupID, from overlay.NodeRef, span uint64) {
	if g := f.lookup(id); g != nil && len(g.links) > 0 {
		f.spreadSoft(g, g.seq, from.Addr, span)
	}
	f.reactToTreeFailure(id, span)
}

// spreadSoft sends a SoftNotification of generation seq to every tree
// neighbour of g but from, the link the failure came in on, and then
// drops g's checking state.
func (f *Fuse) spreadSoft(g *groupState, seq uint64, from transport.Addr, span uint64) {
	for _, l := range g.links {
		if l.ls.neighbor.Addr == from {
			continue
		}
		f.env.Send(l.ls.neighbor.Addr, &msgSoftNotification{ID: g.id, Seq: seq, From: f.self, Trace: span})
	}
	f.dropChecking(g.id)
}

// reactToTreeFailure triggers the role-specific response to a broken
// checking tree: members ask the root to repair, the root repairs
// directly, delegates do nothing further. The first non-zero span to
// reach a role's state sticks as its cause, so a later failure
// conclusion is attributed to the observation that started it.
func (f *Fuse) reactToTreeFailure(id GroupID, span uint64) {
	g := f.lookup(id)
	r := g.roles()
	switch {
	case r.root != nil:
		if r.root.cause == 0 {
			r.root.cause = span
		}
		f.scheduleRepair(g)
	case r.member != nil:
		if r.member.cause == 0 {
			r.member.cause = span
		}
		f.memberNeedsRepair(g)
	}
}

// handleSoft processes a SoftNotification (§6.4): discard if stale,
// otherwise forward through the tree, clean up delegate state, and react
// by role. SoftNotifications never reach the application.
func (f *Fuse) handleSoft(m *msgSoftNotification) {
	f.tm.softs.Inc(f.tm.lane)
	f.trace("soft", m.ID, m.Trace, 0, m.From.Name)
	if g := f.lookup(m.ID); g != nil && len(g.links) > 0 {
		if m.Seq < g.seq {
			return // stale generation: a repair already superseded it
		}
		f.spreadSoft(g, m.Seq, m.From.Addr, m.Trace)
	}
	// With or without checking state (a member's or root's tree may
	// already be torn down), the role reacts; a delegate does nothing.
	f.reactToTreeFailure(m.ID, m.Trace)
}

// --- overlay client interface ---

var _ overlay.Client = (*Fuse)(nil)

// OnRouteMessage receives overlay upcalls: InstallChecking messages at
// delegates, at the root, and at nodes where routing dies.
func (f *Fuse) OnRouteMessage(msg transport.Message, info overlay.RouteInfo) {
	ic, ok := msg.(*msgInstallChecking)
	if !ok {
		return
	}
	switch {
	case info.Dead:
		// No next hop toward the root: undo the partial path so the
		// member re-initiates repair, with backoff at the root
		// bounding the frequency (§6.5).
		span := f.tm.lane.NewSpan()
		f.trace("trigger", ic.ID, span, 0, "route-dead")
		if !info.Prev.IsZero() {
			f.env.Send(info.Prev.Addr, &msgSoftNotification{ID: ic.ID, Seq: ic.Seq, From: f.self, Trace: span})
		} else {
			// Died at the origin member itself.
			f.reactToTreeFailure(ic.ID, span)
		}
	case info.Arrived:
		f.installArrivedAtRoot(ic, info.Prev)
	default:
		// Delegate hop: monitor both sides of the path.
		f.addTreeLink(ic.ID, ic.Seq, info.Prev)
		f.addTreeLink(ic.ID, ic.Seq, info.Next)
	}
}

// installArrivedAtRoot credits a member's InstallChecking and monitors the
// last link of its path.
func (f *Fuse) installArrivedAtRoot(ic *msgInstallChecking, prev overlay.NodeRef) {
	r := f.lookup(ic.ID).roles()
	if rs := r.root; rs != nil {
		if ic.Seq < rs.seq {
			return // stale generation
		}
		f.tm.installs.Inc(f.tm.lane)
		f.trace("install", ic.ID, 0, 0, ic.Member.Name)
		delete(rs.installPending, ic.Member.Name)
		f.addTreeLink(ic.ID, ic.Seq, prev)
		if len(rs.installPending) == 0 {
			rs.installPending = nil
			stopTimer(rs.installTimer)
			rs.installTimer = nil
			rs.backoff = f.scaled(backoffInitial) // tree healthy again
			rs.cause = 0                          // prior observation repaired away
		}
		return
	}
	if r.creating != nil {
		// Install raced ahead of the create replies; remember it.
		r.creating.installArrived[ic.Member.Name] = prev
		return
	}
	// Group is gone at the root: tear the fresh path back down.
	if !prev.IsZero() {
		f.env.Send(prev.Addr, &msgSoftNotification{ID: ic.ID, Seq: ic.Seq, From: f.self})
	}
}

// LinkPayload supplies the piggyback hash for an overlay ping to
// neighbor over the overlay's link id link: the sum of the SHA-1 digests
// of the IDs of all groups whose checking tree includes the link to that
// neighbor (20 bytes, exactly the paper's overhead; see linkindex.go).
// The hash comes straight from the per-link index, its slot indexed by
// link id: O(1) per ping, not a scan over every group on the node. The
// caller may hold the slice while the ping is in flight: a membership
// change makes a fresh one and leaves these bytes as they were.
func (f *Fuse) LinkPayload(link uint32, neighbor overlay.NodeRef) []byte {
	ls := f.linkAt(link, neighbor.Addr)
	if ls == nil {
		return nil
	}
	return ls.linkHash()
}

// PingPayload is LinkPayload without a link id.
func (f *Fuse) PingPayload(neighbor overlay.NodeRef) []byte { return f.LinkPayload(0, neighbor) }

// OnLinkPayload checks the neighbor's piggybacked hash against our own
// cached view of the jointly monitored groups. A match re-arms the link's
// single shared deadline, refreshing every group on the link at once; a
// mismatch starts an explicit list exchange.
func (f *Fuse) OnLinkPayload(link uint32, neighbor overlay.NodeRef, payload []byte) {
	ls := f.linkAt(link, neighbor.Addr)
	if ls == nil {
		if len(payload) == 0 {
			return // neither side monitors anything across this link
		}
		// The neighbor monitors groups here that we know nothing about:
		// send our (empty) list so it can tear them down. Marked as a
		// reply: with no state on this link, the neighbor's counter-list
		// could never tell us anything, so don't solicit one per ping.
		f.env.Send(neighbor.Addr, &msgGroupLists{From: f.self, IsReply: true})
		return
	}
	if bytes.Equal(ls.linkHash(), payload) {
		f.resetLinkTimer(ls)
		return
	}
	f.tm.mismatches.Inc(f.tm.lane)
	f.trace("hash-mismatch", GroupID{}, 0, 0, neighbor.Name)
	f.sendReconcileProbe(neighbor)
}

// OnPingPayload is OnLinkPayload without a link id.
func (f *Fuse) OnPingPayload(neighbor overlay.NodeRef, payload []byte) {
	f.OnLinkPayload(0, neighbor, payload)
}

// OnNeighborUp moves a stranger's entry for neighbor, if there is one,
// into the slot of its new link id, membership and deadline as they were.
//
// Then it reconciles eagerly with the neighbor, but only inside the
// post-Recover probe window (§3.6 rejoin): a restarted node's neighbors
// still monitor groups across links the restart wiped, and without a
// probe they would only find out at the next ping exchange (or, if the
// restarted node never re-pings them, a full CheckTimeout later). The
// probe is an unsolicited GroupLists with our — empty — view of the
// link; the neighbor tears its stale entries down as link failures,
// which drives members to the root for the repair that rebuilds this
// node's per-link checking registry.
func (f *Fuse) OnNeighborUp(link uint32, neighbor overlay.NodeRef) {
	if ls := f.strangers[neighbor.Addr]; ls != nil {
		delete(f.strangers, neighbor.Addr)
		f.place(ls, link)
	}
	if f.env.Elapsed() >= f.recoverUntil {
		return
	}
	f.sendReconcileProbe(neighbor)
}

// OnLinkClosed moves the entry in link's slot, if any, to strangers: the
// groups riding the link stay on it, refreshed by whatever pings the
// neighbor still sends, until a check fails or they leave.
func (f *Fuse) OnLinkClosed(link uint32, neighbor overlay.NodeRef) {
	if ls := f.linkAt(link, neighbor.Addr); ls != nil {
		f.slots[link-1] = nil
		f.place(ls, 0)
	}
}

// sendReconcileProbe sends our current (possibly empty) group list for
// the link to neighbor, soliciting its view in return.
func (f *Fuse) sendReconcileProbe(neighbor overlay.NodeRef) {
	f.env.Send(neighbor.Addr, &msgGroupLists{From: f.self, Entries: f.linkEntries(neighbor.Addr), IsReply: false})
}

// OnNeighborDown converts an overlay-level link death into FUSE link
// failures for every group monitored across that link.
func (f *Fuse) OnNeighborDown(neighbor overlay.NodeRef) {
	if ls := f.linkAt(0, neighbor.Addr); ls != nil {
		f.failLink(ls, "neighbor-down ", overlay.NodeRef{}) // not triggered by a peer's soft: notify all links
	}
}

// linkEntries lists the groups whose checking tree crosses the link to
// addr with their sequence numbers, in the index's order - which the
// receiver's merge walk counts on - read from the records the index
// lists. Cold-path helper for reconciliation; the ping paths use the hash
// directly.
func (f *Fuse) linkEntries(addr transport.Addr) []listEntry {
	ls := f.linkAt(0, addr)
	if ls == nil {
		return nil
	}
	entries := make([]listEntry, len(ls.sorted))
	for i, g := range ls.sorted {
		entries[i] = listEntry{ID: g.id, Seq: g.seq}
	}
	return entries
}

// handleGroupLists reconciles after a hash mismatch (§6.3): agreement on
// any group proves the neighbor alive and re-arms the link's shared
// deadline; groups only we believe in are torn down as link failures -
// unless they are younger than the grace period, which covers the
// installation race during group creation. Both lists are in compareIDs
// order, so ours is walked against theirs, in place.
func (f *Fuse) handleGroupLists(m *msgGroupLists) {
	f.tm.reconciles.Inc(f.tm.lane)
	theirs := m.Entries
	byID := func(a, b listEntry) int { return compareIDs(a.ID, b.ID) }
	if !slices.IsSortedFunc(theirs, byID) {
		// A live peer owes us nothing: order a copy, not its message.
		theirs = slices.Clone(theirs)
		slices.SortFunc(theirs, byID)
	}
	now := f.env.Elapsed()
	agreed := false
	ls := f.linkAt(0, m.From.Addr)
	for i := 0; ls != nil && i < len(ls.sorted); {
		g := ls.sorted[i]
		id := g.id
		for len(theirs) > 0 && compareIDs(theirs[0].ID, id) < 0 {
			theirs = theirs[1:]
		}
		if listed(theirs, id) {
			agreed = true
			i++
			continue
		}
		if now-g.link(m.From.Addr).installedAt < f.scaled(gracePeriod) {
			i++ // too young to judge: the neighbor may not have installed yet
			continue
		}
		span := f.tm.lane.NewSpan()
		if span != 0 {
			f.trace("trigger", id, span, 0, "reconcile "+m.From.Name)
		}
		f.linkFailed(id, overlay.NodeRef{}, span)
		// The teardown edited ls.sorted in place, and a failure handler
		// may have torn down more than id: resume at the first ID alike
		// in name and counter that is left. One seen before is judged
		// again, the same way.
		i, _ = slices.BinarySearchFunc(ls.sorted, id, compareRecord)
	}
	if agreed && len(ls.sorted) > 0 { // not emptied by a teardown, so still indexed
		f.resetLinkTimer(ls)
	}
	if !m.IsReply {
		f.env.Send(m.From.Addr, &msgGroupLists{From: f.self, Entries: f.linkEntries(m.From.Addr), IsReply: true})
	}
}

// listed reports whether id heads entries, a list in compareIDs order:
// whether it is among the leading entries alike in name and counter.
func listed(entries []listEntry, id GroupID) bool {
	for _, e := range entries {
		if compareIDs(e.ID, id) != 0 {
			break
		}
		if e.ID == id {
			return true
		}
	}
	return false
}
