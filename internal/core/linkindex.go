package core

import (
	"cmp"
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
// Maintained on every change: the ID list, kept sorted in place - an
// install or teardown is a binary search and one copy, not a re-collect
// and re-sort of the link's whole membership. Cached until the next
// change: only the 20-byte hash, recomputed by the first ping after it
// (one SHA-1 pass over the list). The treeLink itself, with the
// per-group installedAt the reconciliation grace period reads, is
// reached through checkState.links.

// linkState aggregates the checking state crossing one overlay link.
type linkState struct {
	neighbor overlay.NodeRef

	// sorted is the link's membership: the IDs of the groups monitored
	// across it, ordered by (Root.Name, Num) - the order the hash is
	// taken in. attach and detach edit it in place, so a caller that
	// tears groups down while walking the link iterates a snapshot.
	sorted []GroupID

	// hash is the piggyback digest over sorted, nil until the first ping
	// after a membership change asks for it (and always nil for an empty
	// link, which carries no payload).
	hash []byte

	// timer is the single CheckTimeout deadline shared by every group on
	// the link.
	timer transport.Timer
}

// linkFor returns (creating if needed) the index entry for the link to
// neighbor, refreshing the stored reference in case the neighbor's
// identity behind the address changed across a restart.
func (f *Fuse) linkFor(neighbor overlay.NodeRef) *linkState {
	ls, ok := f.links[neighbor.Addr]
	if !ok {
		ls = &linkState{neighbor: neighbor}
		f.links[neighbor.Addr] = ls
	}
	ls.neighbor = neighbor
	return ls
}

// compareIDs is the hash order: root name, then counter. IDs that differ
// only in Root.Addr compare equal; they hash alike, so their relative
// order is immaterial.
func compareIDs(a, b GroupID) int {
	if c := strings.Compare(a.Root.Name, b.Root.Name); c != 0 {
		return c
	}
	return cmp.Compare(a.Num, b.Num)
}

// find locates id in sorted: its index if present, else where it belongs.
// The binary search lands on the first ID equal in name and counter; the
// exact match, if any, is within that run.
func (ls *linkState) find(id GroupID) (int, bool) {
	i, _ := slices.BinarySearchFunc(ls.sorted, id, compareIDs)
	for ; i < len(ls.sorted) && compareIDs(ls.sorted[i], id) == 0; i++ {
		if ls.sorted[i] == id {
			return i, true
		}
	}
	return i, false
}

// attach adds id to the link's membership (a no-op if already there).
func (ls *linkState) attach(id GroupID) {
	if i, ok := ls.find(id); !ok {
		ls.sorted = slices.Insert(ls.sorted, i, id)
		ls.hash = nil
	}
}

// detach removes id from the link's membership (a no-op if absent).
func (ls *linkState) detach(id GroupID) {
	if i, ok := ls.find(id); ok {
		ls.sorted = slices.Delete(ls.sorted, i, i+1)
		ls.hash = nil
	}
}

// snapshot copies the link's IDs for a caller about to tear groups down
// while iterating: each teardown detaches from sorted in place.
func (ls *linkState) snapshot() []GroupID { return slices.Clone(ls.sorted) }

// linkHash returns the cached piggyback hash (nil for an empty link).
func (ls *linkState) linkHash() []byte {
	if ls.hash == nil {
		ls.hash = hashGroupIDs(ls.sorted)
	}
	return ls.hash
}

// detachFromLink removes group id from the index entry for addr,
// dropping the entry (and its timer) when the last group leaves.
func (f *Fuse) detachFromLink(id GroupID, addr transport.Addr) {
	ls, ok := f.links[addr]
	if !ok {
		return
	}
	ls.detach(id)
	if len(ls.sorted) == 0 {
		stopTimer(ls.timer) // order-independent: no sends, no rng
		delete(f.links, addr)
	}
}

// resetLinkTimer re-arms the link's shared CheckTimeout deadline. Only
// evidence that the neighbor is alive (a matching-hash ping, or
// reconciliation agreement) may call this. This runs once per received
// ping, so the deadline moves in place where the transport supports it
// instead of cancelling and reallocating a timer each time.
func (f *Fuse) resetLinkTimer(ls *linkState) {
	if ls.timer != nil && transport.ResetTimer(ls.timer, f.cfg.CheckTimeout) {
		return
	}
	stopTimer(ls.timer)
	ls.timer = f.env.After(f.cfg.CheckTimeout, func() { f.linkTimedOut(ls) })
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
	if f.links[ls.neighbor.Addr] != ls {
		return // emptied or replaced while the callback was in flight
	}
	f.logf("check timeout for link %s (%d groups)", ls.neighbor.Name, len(ls.sorted))
	f.tm.linkTimeouts.Inc(f.tm.lane)
	for _, id := range ls.snapshot() {
		if cs, ok := f.checking[id]; ok && cs.links[ls.neighbor.Addr] != nil {
			span := f.tm.lane.NewSpan()
			if span != 0 {
				f.trace("trigger", id, span, 0, "link-timeout "+ls.neighbor.Name)
			}
			f.linkFailed(id, ls.neighbor, span)
		}
	}
}
