package core

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"slices"
	"strings"

	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// Per-link checking index. The paper's steady-state claim (§7.5) is that
// monitoring costs one 20-byte hash per overlay ping no matter how many
// groups ride the link. Keying checking state by group alone broke that
// at scale: every ping send and receive recomputed the piggyback hash
// from a scan over all groups on the node, and every (group, link) pair
// armed its own CheckTimeout timer. This index inverts the structure:
// each overlay link carries the IDs of the groups monitored across it,
// the hash over them, and one shared CheckTimeout deadline - all groups
// on a link are refreshed by the same matching-hash ping, so they share
// a clock. Ping sends and receives are O(1), and timers collapse from
// O(groups x links) to O(links).
//
// Maintained on every change: the membership list, kept sorted in place -
// an install or teardown is a binary search and one copy, not a
// re-collect and re-sort of the link's whole membership - and the running
// sum the piggyback is made of, so a change costs one small SHA-1 over
// the ID that changed, not a pass over the IDs the link holds. Cached
// until the next change: only the sum's 20-byte wire form.
//
// The index and the groups' records point at each other, and neither
// copies the other: the list holds each group's own *groupState (8 bytes
// an entry), and each of the group's treeLinks holds the *linkState it
// rides (its neighbor is the entry's). So a walk over a link reads every
// group's ID, generation and per-pair installedAt - the one thing the
// reconciliation grace period reads - straight from the record. The
// invariant: every record a list holds is the node's record for its ID
// (the one Fuse.lookup returns, from groups or clashes) and has a
// treeLink on that list's entry, and every treeLink's entry is the one
// the index holds for its neighbor's address.
//
// The piggyback is a hash of the *set*: each ID's SHA-1 (over its root
// name, a zero byte and its little-endian counter) is read as five
// little-endian uint32 lanes, and the link's 20 bytes are the lane-wise
// sum mod 2^32 of its IDs' digests. Addition commutes and inverts, so
// attach adds, detach subtracts, and draining a link returns the sum to
// exactly zero. It is addition and not XOR because the link holds a
// multiset of digests: two IDs alike in name and counter but rooted at
// different addresses digest alike, and under XOR such a pair would
// cancel - any two pairs would agree - where a sum counts it twice.
//
// Where an entry lives: by the overlay's link id. Fuse.slots[id-1] holds
// the entry for the neighbor the overlay's link id names (nil when no
// group rides that link), and the overlay tells the node when an id is
// opened and closed, so the ping paths, which carry the id, index the
// slot and never compare an address. A link to a node outside the
// overlay's tables - one that left them while groups still rode it, or a
// delegate hop the tables never held - keeps its entry in Fuse.strangers,
// by address. An entry moves with its link: to strangers when the
// overlay closes the id, into the new slot when the overlay opens one for
// that address again, with its membership, sum and deadline. Paths that
// start from an address (installs, reconciliation, neighbor death) find
// the slot with the overlay's scan of its table, then try strangers. The
// invariant: an entry sits in the slot of the id the overlay has open for
// its neighbor, in strangers if it has none, and nowhere else.

// linkState aggregates the checking state crossing one overlay link.
type linkState struct {
	neighbor overlay.NodeRef

	// sorted is the link's membership: the records of the groups
	// monitored across it - each the node's record itself -
	// ordered by their IDs' (Root.Name, Num), the order reconciliation
	// lists and walks them in. attach and detach edit it in place, so a
	// caller that tears groups down while walking the link iterates a
	// snapshot of the IDs or finds its place again after each teardown.
	sorted []*groupState

	// sum is the piggyback: the lane-wise sum of digestID over sorted.
	sum [5]uint32

	// slot is where the entry sits: the overlay's link id for neighbor
	// (its index in Fuse.slots plus one), 0 in Fuse.strangers.
	slot uint32

	// hash is sum in wire form, nil until the first ping after a
	// membership change asks for it (and always nil for an empty link,
	// which carries no payload). A ping in flight aliases it, so a change
	// drops it for a fresh slice and never rewrites its bytes.
	hash []byte

	// timer is the single CheckTimeout deadline shared by every group on
	// the link.
	timer transport.Timer
}

// linkFor returns (creating if needed) the index entry for the link to
// neighbor, refreshing the stored reference in case the neighbor's
// identity behind the address changed across a restart.
func (f *Fuse) linkFor(neighbor overlay.NodeRef) *linkState {
	ls := f.linkAt(0, neighbor.Addr)
	if ls == nil {
		ls = &linkState{neighbor: neighbor}
		f.place(ls, f.ov.LinkID(neighbor.Addr))
	}
	ls.neighbor = neighbor
	return ls
}

// linkAt returns the index entry for the link the overlay calls id to the
// neighbor at addr, or nil. An id is trusted: from open to close it names
// one neighbor. 0, no id, is resolved by the overlay's scan of its table,
// and failing that among strangers.
func (f *Fuse) linkAt(id uint32, addr transport.Addr) *linkState {
	if id == 0 {
		if id = f.ov.LinkID(addr); id == 0 {
			return f.strangers[addr]
		}
	}
	if int(id) <= len(f.slots) {
		return f.slots[id-1]
	}
	return nil
}

// place puts ls in the slot of link id, or among strangers for id 0.
func (f *Fuse) place(ls *linkState, id uint32) {
	ls.slot = id
	if id == 0 {
		if f.strangers == nil {
			f.strangers = make(map[transport.Addr]*linkState)
		}
		f.strangers[ls.neighbor.Addr] = ls
		return
	}
	if int(id) > len(f.slots) {
		// To the id and no further: the overlay hands out its lowest
		// free ids, so the table ends up one slot per link.
		f.slots = append(make([]*linkState, 0, id), f.slots...)[:id]
	}
	f.slots[id-1] = ls
}

// compareIDs is the index order: root name, then counter - the fields an
// ID's digest covers. IDs that differ only in Root.Addr compare equal;
// their relative order is immaterial.
func compareIDs(a, b GroupID) int {
	if c := strings.Compare(a.Root.Name, b.Root.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.Num, b.Num)
}

// compareRecord is compareIDs between a listed record's ID and id: the
// comparison a binary search over sorted takes.
func compareRecord(g *groupState, id GroupID) int { return compareIDs(g.id, id) }

// find locates id in sorted: its index if present, else where it belongs.
// The binary search lands on the first ID equal in name and counter; the
// exact match, if any, is within that run.
func (ls *linkState) find(id GroupID) (int, bool) {
	i, _ := slices.BinarySearchFunc(ls.sorted, id, compareRecord)
	for ; i < len(ls.sorted) && compareRecord(ls.sorted[i], id) == 0; i++ {
		if ls.sorted[i].id == id {
			return i, true
		}
	}
	return i, false
}

// digestID is one ID's term of the piggyback sum: the SHA-1 of its root
// name, a zero byte and its little-endian counter, as five lanes. The
// input is built on the stack; a name too long for it spills to the heap.
func digestID(id GroupID) (d [5]uint32) {
	var stack [128]byte
	buf := append(stack[:0], id.Root.Name...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, id.Num)
	h := sha1.Sum(buf)
	for k := range d {
		d[k] = binary.LittleEndian.Uint32(h[4*k:])
	}
	return d
}

// attach adds the group g records to the link's membership (a no-op if
// its ID is already there).
func (ls *linkState) attach(g *groupState) {
	if i, ok := ls.find(g.id); !ok {
		ls.sorted = slices.Insert(ls.sorted, i, g)
		for k, lane := range digestID(g.id) {
			ls.sum[k] += lane
		}
		ls.hash = nil
	}
}

// detach removes group id's record from the link's membership (a no-op
// if absent).
func (ls *linkState) detach(id GroupID) {
	if i, ok := ls.find(id); ok {
		ls.sorted = slices.Delete(ls.sorted, i, i+1)
		for k, lane := range digestID(id) {
			ls.sum[k] -= lane
		}
		ls.hash = nil
	}
}

// snapshot copies the link's IDs for a caller about to tear groups down
// while iterating: each teardown detaches from sorted in place, and may
// tear down more groups than the one it was called for, so the caller
// looks each ID up again before acting on it.
func (ls *linkState) snapshot() []GroupID {
	ids := make([]GroupID, len(ls.sorted))
	for i, g := range ls.sorted {
		ids[i] = g.id
	}
	return ids
}

// linkHash returns the piggyback's 20 bytes (nil for an empty link).
func (ls *linkState) linkHash() []byte {
	if ls.hash == nil && len(ls.sorted) > 0 {
		ls.hash = make([]byte, 0, sha1.Size)
		for _, lane := range ls.sum {
			ls.hash = binary.LittleEndian.AppendUint32(ls.hash, lane)
		}
	}
	return ls.hash
}

// detachLinks takes g off every link it rides and empties its tree. An
// entry its last group leaves is dropped from the index, and its timer
// with it.
func (f *Fuse) detachLinks(g *groupState) {
	for _, l := range g.links {
		ls := l.ls
		if ls.detach(g.id); len(ls.sorted) == 0 {
			stopTimer(ls.timer) // order-independent: no sends, no rng
			if ls.slot == 0 {
				delete(f.strangers, ls.neighbor.Addr)
			} else {
				f.slots[ls.slot-1] = nil
			}
		}
	}
	g.links, g.seq = nil, 0
}

// resetLinkTimer re-arms the link's shared CheckTimeout deadline. Only
// evidence that the neighbor is alive (a matching-hash ping, or
// reconciliation agreement) may call this. This runs once per received
// ping, so the deadline moves in place while it is pending instead of
// cancelling and reallocating a timer each time.
func (f *Fuse) resetLinkTimer(ls *linkState) {
	if ls.timer != nil && ls.timer.Reset(f.scaled(checkTimeout)) {
		return
	}
	stopTimer(ls.timer)
	ls.timer = f.env.After(f.scaled(checkTimeout), func() { f.linkTimedOut(ls) })
}

// ensureLinkTimer arms the shared deadline only when none is pending.
// Installs go through here, not resetLinkTimer: installing a group says
// nothing about the neighbor's liveness, and re-arming the deadline per
// install would let a steady stream of installs through a delegate
// postpone failure detection for every group already on the link. A
// newly indexed link gets a full CheckTimeout; later installs inherit
// the current deadline (an alive link refreshes it by ping well before
// expiry, and a fresh group's grace period rides on installedAt, not on
// this clock).
//
// Fairness bound: because the pending deadline was armed at some
// armTime <= install, it expires at armTime + CheckTimeout <= install +
// CheckTimeout. A group joining a link that then goes quiet therefore
// waits at most one full CheckTimeout past its own install before its
// failure is detected - sharing the clock never delays a group beyond
// what a private timer would have given it, it can only fire sooner.
// (TestAggregatedDeadlineFairnessBound pins both edges.)
func (f *Fuse) ensureLinkTimer(ls *linkState) {
	if ls.timer == nil {
		f.resetLinkTimer(ls)
	}
}

// linkTimedOut fires when no matching-hash ping refreshed the link
// within CheckTimeout: every group monitored across it has observed a
// link failure.
func (f *Fuse) linkTimedOut(ls *linkState) {
	if len(ls.sorted) == 0 {
		return // emptied, and so dropped, while the callback was in flight
	}
	f.tm.linkTimeouts.Inc(f.tm.lane)
	f.failLink(ls, "link-timeout ", ls.neighbor)
}

// failLink fails every group riding ls, each a trigger of its own traced
// as cause and the neighbor's name; from is as for linkFailed.
func (f *Fuse) failLink(ls *linkState, cause string, from overlay.NodeRef) {
	for _, id := range ls.snapshot() {
		if g := f.lookup(id); g != nil && g.link(ls.neighbor.Addr) != nil {
			span := f.tm.lane.NewSpan()
			if span != 0 {
				f.trace("trigger", id, span, 0, cause+ls.neighbor.Name)
			}
			f.linkFailed(id, from, span)
		}
	}
}
