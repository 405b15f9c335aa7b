// Package core implements FUSE, the paper's contribution: lightweight
// failure notification groups with distributed one-way agreement. Once a
// group is created, any member (or FUSE itself) can trigger a failure
// notification, and every live member is guaranteed to hear it within a
// bounded time, under node crashes and arbitrary network failures.
//
// The implementation follows §6 of the paper:
//
//   - CreateGroup contacts every member directly, in parallel, and blocks
//     (logically: completes its callback) only when all have replied, so a
//     successful create means every member was alive and installed.
//   - Each member routes an InstallChecking message through the overlay
//     toward the root; every node on the path becomes a *delegate*
//     monitoring (group, neighbor) tree links. The union of these paths is
//     the group's liveness-checking spanning tree. Links are organized in
//     a per-link index (linkindex.go): all groups crossing one overlay
//     link share a running piggyback hash and a single CheckTimeout
//     deadline.
//   - Steady-state monitoring costs nothing beyond the overlay's own
//     neighbor pings: each ping piggybacks a 20-byte hash of the set of
//     group IDs the two endpoints jointly monitor - the sum, in five
//     32-bit lanes, of the IDs' SHA-1 digests, so a group joining or
//     leaving a link adds or subtracts its own digest instead of
//     re-hashing the link (a sum, not XOR: IDs that digest alike must
//     count twice, not cancel). A matching hash re-arms the link's
//     shared deadline, refreshing every group on the link; a mismatch
//     triggers an explicit list reconciliation (with a grace period
//     protecting in-flight installs).
//   - A failed link (overlay ping timeout, FUSE timer expiry, or
//     reconciliation disagreement) makes the node stop acknowledging the
//     group and spread a SoftNotification through the tree; members react
//     by asking the root for a repair (NeedRepair), and the root rebuilds
//     the tree with direct GroupRepairRequests, sequence numbers
//     disambiguating generations of checking state.
//   - Repair failure, explicit SignalFailure, or repair reaching a node
//     with no knowledge of the group produces a HardNotification, which is
//     fanned member -> root -> members and invokes the application's
//     failure handler exactly once per node.
//
// Scale: all per-ping work is O(1) in the number of groups (the per-link
// index keeps the piggyback hash current as membership changes, at the
// cost of the one ID that changed), the timer population is O(monitored
// links) rather than O(groups x links), and the shared deadlines re-arm
// in place through the transport's timer reschedule support - properties
// the manygroups (2,000 groups on 100 nodes) and paperscale (16,000-node
// overlay) experiments measure. A group's checking state costs each node
// it crosses about 150 bytes: one record, its 16-byte index slot (the
// record's pointer by the ID's random counter), 16 bytes per tree link (a
// pointer to the link's index entry and an install time), and an 8-byte
// pointer to the record in each link's list, never a copy of its 40-byte
// ID. TestCheckingStateBytes reads 133 B with one tree link and 161 B
// with two, the record's index slot included, and holds both within 15%.
//
// Timing: the paper's parameters are constants (fuse.go), not
// configuration. A node's one timing knob is the time scale New takes,
// which multiplies them all; the simulator runs at 1.
package core

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// GroupID uniquely names a FUSE group. It embeds the root's identity so
// any member can reach the root directly for repair and notification.
type GroupID struct {
	Root overlay.NodeRef
	Num  uint64
}

// IsZero reports whether the ID is unset.
func (id GroupID) IsZero() bool { return id == GroupID{} }

func (id GroupID) String() string { return fmt.Sprintf("%s/%x", id.Root.Name, id.Num) }

// Reason diagnoses why a notification fired. The paper's semantics
// deliberately do not let applications distinguish causes across a
// partition; Reason is best-effort local diagnostics for logging and
// tests, not a protocol guarantee.
type Reason string

const (
	ReasonSignaled      Reason = "signaled"       // SignalFailure was called somewhere
	ReasonRepairTimeout Reason = "repair-timeout" // member waited in vain for the root
	ReasonRepairFailed  Reason = "repair-failed"  // root could not rebuild the tree
	ReasonNotified      Reason = "notified"       // a HardNotification arrived
)

// Notice is delivered to registered failure handlers.
type Notice struct {
	ID     GroupID
	Reason Reason
}

// Handler is an application failure callback.
type Handler func(Notice)

// The FUSE layer's timing: the paper's evaluation values (§7), which a
// node stretches by the time scale New takes.
const (
	// createTimeout bounds how long the root waits for all
	// GroupCreateReplies before declaring creation failed.
	createTimeout = 30 * time.Second

	// installTimeout bounds how long the root waits for every member's
	// InstallChecking to arrive before attempting a repair.
	installTimeout = 30 * time.Second

	// checkTimeout is the freshness bound on a monitored overlay link:
	// if no matching-hash ping (or reconciliation agreement) arrives
	// within it, every group riding the link is declared failed. The
	// deadline is shared by all groups on the link; a group installed on
	// an already-monitored link inherits its current deadline. It must
	// exceed the overlay's 60 s ping interval plus its 20 s ping timeout.
	checkTimeout = 90 * time.Second

	// memberRepairTimeout is how long a member waits for the root to
	// respond to NeedRepair before concluding the group has failed: the
	// paper's 1 minute.
	memberRepairTimeout = time.Minute

	// rootRepairTimeout is how long the root waits for all
	// GroupRepairReplies before declaring the group failed: the paper's
	// 2 minutes.
	rootRepairTimeout = 2 * time.Minute

	// gracePeriod protects freshly installed checking state from being
	// torn down by a reconciliation race during group creation.
	gracePeriod = 5 * time.Second

	// backoffInitial and backoffCap bound the per-group exponential
	// backoff between repair attempts, capped at the paper's 40 s.
	backoffInitial = 2 * time.Second
	backoffCap     = 40 * time.Second

	// NotificationBound is the paper's "bounded time" at scale 1: once
	// some member has been notified (the trigger: a SignalFailure, a
	// repair timeout, a failed repair), every other live member is
	// notified within this span of it. scenario.Engine.Report audits
	// every run against it. The terms are the chain a notification
	// takes when no message of the root's fan-out reaches a member:
	NotificationBound = 0 +
		// Detection. The trigger tore its group state down, so the
		// checking tree stops vouching for the group: a link's shared
		// deadline, armed no later than the trigger, expires within
		// checkTimeout of it (the aggregated-deadline fairness bound that
		// TestAggregatedDeadlineFairnessBound pins), and the overlay's
		// own liveness check (60 s ping interval + 20 s ping timeout) is
		// faster. A member that hears asks the root to repair.
		checkTimeout +
		// Repair backoff: the root defers a NeedRepair by at most one
		// backoff window.
		backoffCap +
		// Repair. The root's round ends within rootRepairTimeout in a
		// fan-out: a member that already notified answers the repair
		// request with a HardNotification, and one that never answers
		// fails the round. A root that stops instead sends the members
		// that answered it back through detection, and each gives up
		// on the root memberRepairTimeout after asking it again (a root
		// cut off from a member, or whose fan-out is lost, does the
		// same). That is the shape of the widest chains generated
		// schedules reach, 2m57s over 3,000 seeds: in seed 81 the root,
		// already repairing, stops 64 s after the trigger and its
		// members hear 109-112 s later. The sum counts
		// one detection: a root that stops late in a round begun a full
		// detection after the trigger could exceed it, and the audit is
		// what would find that run.
		rootRepairTimeout + memberRepairTimeout +
		// Propagation: the one-way messages the chain ends with
		// (NeedRepair, repair request and reply, the fan-out), given the
		// slack the protocol allows a message in flight.
		gracePeriod
)

// Fuse is the per-node FUSE layer. It attaches to an overlay node as its
// client and shares the node's single-threaded Env.
type Fuse struct {
	env   transport.Env
	ov    *overlay.Node
	scale float64 // multiplies every timing constant

	self overlay.NodeRef

	// groups holds one record for every group the node has any state
	// for - as its creator, root or member, or as a delegate on its
	// checking tree - by the counter the group's root drew at random
	// (GroupID.Num): a 16-byte slot that repeats none of the 40-byte ID
	// the record holds. A record whose counter another record already
	// holds goes to clashes instead, by its full ID. Every record sits in
	// exactly one of the two, and lookup tries groups, then clashes.
	// Each is nil until its first record.
	groups  map[uint64]*groupState
	clashes map[GroupID]*groupState

	// slots is the per-link checking index, by the overlay's link id
	// (slot id-1): for each link some group rides, the groups monitored
	// across it, their running piggyback hash, and the single shared
	// CheckTimeout deadline; nil for a link no group rides (see
	// linkindex.go). It is as long as the highest id that ever held an
	// entry.
	slots []*linkState

	// strangers holds, by address, the entries for links the overlay has
	// no id for: neighbors that left its tables, or never entered them,
	// while groups ride the link. Nil until the first one.
	strangers map[transport.Addr]*linkState

	// persist, when non-nil, records group memberships durably (§3.6
	// stable-storage variant).
	persist *MemStore

	// recoverUntil, when in the future, opens the post-Recover
	// reconciliation window: while it lasts, every neighbor the overlay
	// (re)acquires is sent an unsolicited GroupLists probe so stale
	// checking state from before the crash is torn down and repaired
	// immediately instead of on the next ping exchange (see
	// OnNeighborUp). The zero value (before any Recover) is always in
	// the past.
	recoverUntil time.Duration

	tm fuseTelemetry
}

// fuseTelemetry holds the FUSE layer's metric handles, resolved once at
// construction (a nil lane makes every write a no-op). Trace events use
// the same lane; notification spans are allocated at trigger sites,
// carried on Soft/HardNotification messages, and recorded as the parent
// of every delivery they cause.
type fuseTelemetry struct {
	lane         *telemetry.Lane
	created      telemetry.Counter
	createFailed telemetry.Counter
	installs     telemetry.Counter
	mismatches   telemetry.Counter
	reconciles   telemetry.Counter
	linkTimeouts telemetry.Counter
	repairs      telemetry.Counter
	softs        telemetry.Counter
	hards        telemetry.Counter
	notices      telemetry.Counter
}

// groupState is everything a node holds for one group, in one record:
// the group's checking tree links (the liveness-checking state that
// roots, members and delegates alike hold while on the tree) and, behind
// role, the node's part in the group beyond the tree. Each link's index
// entry lists this very record (linkState.sorted), not a copy of its ID,
// so a walk over a link reads the group's ID, generation and install
// times without a map probe. The node finds it by ID through lookup: in
// Fuse.groups by the ID's counter, or, when another record holds that
// counter, in Fuse.clashes. The record lives as long as it has a tree
// link or a role: a delegate's ends with its last link, anyone else's
// with teardown. The role sits behind one pointer, nil on a delegate, so
// a delegate's record stays in the 80-byte size class
// (TestCheckingStateBytes).
type groupState struct {
	id GroupID

	// seq is the checking tree's generation, 0 while the record has no
	// tree links.
	seq uint64

	// links is sorted by neighbor address - the order soft notifications
	// go out in, so identically seeded simulations emit identical event
	// sequences. A node sits on one to three of a group's tree links;
	// "has checking state" is "has a tree link".
	links []treeLink

	role *roleState // nil on a delegate
}

// roleState is a node's part in a group beyond its checking tree: the
// group's creator, root or member, and the application's failure
// handlers, which only such a node keeps.
type roleState struct {
	creating *creating
	root     *rootState
	member   *memberState
	handlers []Handler
}

// roles returns the record's role, the zero one for a delegate's record
// or a missing one (g nil): a copy to read the pieces from.
func (g *groupState) roles() roleState {
	if g == nil || g.role == nil {
		return roleState{}
	}
	return *g.role
}

// link returns the group's tree link to addr, or nil. The pointer is
// into links: good until the next addTreeLink.
func (g *groupState) link(addr transport.Addr) *treeLink {
	for i := range g.links {
		if g.links[i].ls.neighbor.Addr == addr {
			return &g.links[i]
		}
	}
	return nil
}

// creating tracks a CreateGroup in progress at the root.
type creating struct {
	members []overlay.NodeRef // excluding the root itself
	pending map[string]bool   // member names yet to reply
	// installArrived buffers InstallChecking arrivals that beat the last
	// GroupCreateReply (a benign race the paper's grace period covers).
	installArrived map[string]overlay.NodeRef // member name -> prev hop
	timer          transport.Timer
	done           func(GroupID, error)
}

// rootState is the root's view of a live group.
type rootState struct {
	seq     uint64
	members []overlay.NodeRef // excluding the root

	// installPending tracks members whose current-generation
	// InstallChecking has not yet arrived. Nil once the last of them is
	// credited: a healthy root keeps no empty map.
	installPending map[string]bool
	installTimer   transport.Timer

	// repairPending, when non-nil, tracks an in-flight repair attempt.
	repairPending map[string]bool
	repairTimer   transport.Timer

	backoff      time.Duration
	backoffUntil time.Duration
	backoffTimer transport.Timer

	// cause is the telemetry span of the first failure observation that
	// put this root into repair; a later rootFail's fan-out inherits it
	// so deliveries chain back to the original trigger. Volatile,
	// tracing-only, never persisted.
	cause uint64
}

// memberState is a non-root member's view of a live group. The root it
// asks for repair and tells of failures is the group ID's Root.
type memberState struct {
	seq uint64

	// repairTimer is armed while waiting for the root to react to our
	// NeedRepair; its expiry is the member-side failure conclusion.
	repairTimer transport.Timer

	// cause mirrors rootState.cause for the member-side conclusion.
	cause uint64
}

// treeLink is one monitored (group, neighbor) pair, in 16 bytes. ls is
// the link's index entry - the one the index holds for ls.neighbor, in
// its slot or among strangers, for as long as the pair exists - which
// holds the neighbor's reference and the freshness clock shared by every
// group on the link. installedAt, on the Env's
// Elapsed clock, stays per pair for the reconciliation grace period.
type treeLink struct {
	ls          *linkState
	installedAt time.Duration
}

// New creates the FUSE layer for an overlay node and installs itself as
// the overlay's client. scale, positive, multiplies every timing
// constant: 1 is the paper's timing.
func New(env transport.Env, ov *overlay.Node, scale float64) *Fuse {
	f := &Fuse{
		env:   env,
		ov:    ov,
		scale: scale,
		self:  ov.Self(),
	}
	if lane := telemetry.FromEnv(env); lane != nil {
		reg := lane.Registry()
		f.tm = fuseTelemetry{
			lane:         lane,
			created:      reg.Counter("fuse_groups_created_total", "groups whose creation completed at the root"),
			createFailed: reg.Counter("fuse_creates_failed_total", "group creations that timed out"),
			installs:     reg.Counter("fuse_installs_total", "InstallChecking arrivals credited at roots"),
			mismatches:   reg.Counter("fuse_hash_mismatch_total", "piggyback-hash mismatches observed on pings"),
			reconciles:   reg.Counter("fuse_reconciliations_total", "GroupLists reconciliation exchanges handled"),
			linkTimeouts: reg.Counter("fuse_link_timeouts_total", "per-link CheckTimeout expiries"),
			repairs:      reg.Counter("fuse_repairs_total", "root repair attempts started"),
			softs:        reg.Counter("fuse_soft_notifications_total", "SoftNotifications received"),
			hards:        reg.Counter("fuse_hard_notifications_total", "HardNotifications received"),
			notices:      reg.Counter("fuse_notices_delivered_total", "application failure handlers invoked"),
		}
	}
	ov.SetClient(f)
	return f
}

// scaled stretches one of the timing constants by the node's time scale.
func (f *Fuse) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * f.scale)
}

// LiveGroups returns the IDs of all groups this node currently holds any
// state for (creator, root, member, or delegate: one record each),
// ordered by root name, counter and root address.
func (f *Fuse) LiveGroups() []GroupID {
	ids := make([]GroupID, 0, len(f.groups)+len(f.clashes))
	for g := range f.records() {
		ids = append(ids, g.id)
	}
	slices.SortFunc(ids, func(a, b GroupID) int {
		if c := compareIDs(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.Root.Addr, b.Root.Addr)
	})
	return ids
}

// CheckingStats sizes the liveness-checking state for experiments:
// groups with checking state here, distinct (group, link) monitored
// pairs, and live check timers backing them.
func (f *Fuse) CheckingStats() (groups, pairs, timers int) {
	for g := range f.records() {
		if len(g.links) > 0 {
			groups++
			pairs += len(g.links)
		}
	}
	// One shared deadline per monitored link.
	for _, ls := range f.slots {
		if ls != nil {
			timers++
		}
	}
	return groups, pairs, timers + len(f.strangers)
}

// HasState reports whether the node holds any state for id.
func (f *Fuse) HasState(id GroupID) bool { return f.lookup(id) != nil }

// lookup returns id's record, or nil.
func (f *Fuse) lookup(id GroupID) *groupState {
	if g := f.groups[id.Num]; g != nil && g.id == id {
		return g
	}
	return f.clashes[id]
}

// records yields every record the node holds, in no particular order.
func (f *Fuse) records() iter.Seq[*groupState] {
	return func(yield func(*groupState) bool) {
		for _, g := range f.groups {
			if !yield(g) {
				return
			}
		}
		for _, g := range f.clashes {
			if !yield(g) {
				return
			}
		}
	}
}

// record returns id's record, making an empty one if there is none; the
// caller gives it a tree link or a role before the event ends.
func (f *Fuse) record(id GroupID) *groupState {
	if g := f.lookup(id); g != nil {
		return g
	}
	g := &groupState{id: id}
	if f.groups == nil {
		f.groups = make(map[uint64]*groupState)
	}
	if f.groups[id.Num] == nil {
		f.groups[id.Num] = g
		return g
	}
	if f.clashes == nil {
		f.clashes = make(map[GroupID]*groupState)
	}
	f.clashes[id] = g
	return g
}

// remove drops g, the record lookup returns for its ID, from the map that
// holds it.
func (f *Fuse) remove(g *groupState) {
	if f.groups[g.id.Num] == g {
		delete(f.groups, g.id.Num)
	} else {
		delete(f.clashes, g.id)
	}
}

// withRole returns id's record with a role, making either as needed; the
// caller fills the role in.
func (f *Fuse) withRole(id GroupID) *groupState {
	g := f.record(id)
	if g.role == nil {
		g.role = new(roleState)
	}
	return g
}

// RegisterFailureHandler registers a callback for failure notifications on
// id (Figure 1 of the paper). If the group is unknown - possibly because a
// notification already fired - the handler is invoked immediately.
func (f *Fuse) RegisterFailureHandler(h Handler, id GroupID) {
	if h == nil {
		return
	}
	g := f.lookup(id)
	if g == nil || g.role == nil { // unknown, or known only as a delegate
		f.env.After(0, func() { f.deliverNotice(h, Notice{ID: id, Reason: ReasonNotified}, 0) })
		return
	}
	g.role.handlers = append(g.role.handlers, h)
}

// SignalFailure explicitly triggers a failure notification for id
// (Figure 1). The local handler fires, the root is informed with a
// HardNotification, and the root fans the notification to all members.
func (f *Fuse) SignalFailure(id GroupID) {
	g := f.lookup(id)
	r := g.roles()
	switch {
	case r.root != nil:
		f.rootFail(g, ReasonSignaled)
	case r.member != nil:
		span := f.tm.lane.NewSpan()
		f.trace("trigger", id, span, 0, "signaled")
		f.env.Send(id.Root.Addr, &msgHardNotification{ID: id, From: f.self, Trace: span})
		f.notifyLocal(id, ReasonSignaled, span)
		f.teardown(id)
	}
	// Otherwise the group is unknown here: nothing to do; a registration
	// after this will fire immediately since no state exists.
}

// tracing gates protocol-event emission; call before building any event
// argument that costs an allocation.
func (f *Fuse) tracing() bool { return f.tm.lane.Tracing(telemetry.TraceProto) }

// trace emits one protocol event. The group string is only formatted
// when the trace is live, so disabled tracing costs one atomic load.
func (f *Fuse) trace(kind string, id GroupID, span, parent uint64, detail string) {
	if !f.tracing() {
		return
	}
	group := ""
	if !id.IsZero() {
		group = id.String()
	}
	f.tm.lane.Record(f.env.Elapsed(), kind, f.self.Name, group, span, parent, detail)
}

// notifyLocal invokes and clears all handlers for id, exactly once.
// span is the causal trigger's trace span (0 when untraced or unknown);
// each delivery event records it as Parent.
func (f *Fuse) notifyLocal(id GroupID, reason Reason, span uint64) {
	g := f.lookup(id)
	if g == nil || g.role == nil {
		return
	}
	hs := g.role.handlers
	g.role.handlers = nil
	n := Notice{ID: id, Reason: reason}
	for _, h := range hs {
		f.deliverNotice(h, n, span)
	}
}

func (f *Fuse) deliverNotice(h Handler, n Notice, span uint64) {
	f.tm.notices.Inc(f.tm.lane)
	f.trace("notify", n.ID, 0, span, string(n.Reason))
	h(n)
}

// teardown removes every piece of state for id - the record, with its
// role, handlers and tree links - and stops its timers.
func (f *Fuse) teardown(id GroupID) {
	if g := f.lookup(id); g != nil {
		r := g.roles()
		if r.creating != nil {
			stopTimer(r.creating.timer)
		}
		if rs := r.root; rs != nil {
			stopTimer(rs.installTimer)
			stopTimer(rs.repairTimer)
			stopTimer(rs.backoffTimer)
		}
		if ms := r.member; ms != nil {
			stopTimer(ms.repairTimer)
		}
		f.detachLinks(g)
		f.remove(g)
	}
	f.forget(id)
}

// dropChecking removes only the liveness-checking tree state for id,
// detaching it from every per-link index entry it rides on. The record
// stays if the node has a role in the group.
func (f *Fuse) dropChecking(id GroupID) {
	g := f.lookup(id)
	if g == nil {
		return
	}
	f.detachLinks(g)
	if g.role == nil {
		f.remove(g)
	}
}

func stopTimer(t transport.Timer) {
	if t != nil {
		t.Stop()
	}
}
