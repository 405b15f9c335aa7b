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
// overlay) experiments measure.
package core

import (
	"cmp"
	"fmt"
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

// Config holds the FUSE layer timing parameters. Defaults mirror the
// paper's evaluation: 1 minute member-repair timeout, 2 minute root-repair
// timeout, 5 second reconciliation grace period, exponential repair
// backoff capped at 40 seconds.
type Config struct {
	// CreateTimeout bounds how long the root waits for all
	// GroupCreateReplies before declaring creation failed.
	CreateTimeout time.Duration

	// InstallTimeout bounds how long the root waits for every member's
	// InstallChecking to arrive before attempting a repair.
	InstallTimeout time.Duration

	// CheckTimeout is the freshness bound on a monitored overlay link:
	// if no matching-hash ping (or reconciliation agreement) arrives
	// within it, every group riding the link is declared failed. The
	// deadline is shared by all groups on the link; a group installed on
	// an already-monitored link inherits its current deadline. It must
	// exceed the overlay ping interval plus ping timeout.
	CheckTimeout time.Duration

	// MemberRepairTimeout is how long a member waits for the root to
	// respond to NeedRepair before concluding the group has failed.
	MemberRepairTimeout time.Duration

	// RootRepairTimeout is how long the root waits for all
	// GroupRepairReplies before declaring the group failed.
	RootRepairTimeout time.Duration

	// GracePeriod protects freshly installed checking state from being
	// torn down by a reconciliation race during group creation.
	GracePeriod time.Duration

	// RepairBackoffInitial and RepairBackoffCap bound the per-group
	// exponential backoff between repair attempts.
	RepairBackoffInitial time.Duration
	RepairBackoffCap     time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		CreateTimeout:        30 * time.Second,
		InstallTimeout:       30 * time.Second,
		CheckTimeout:         90 * time.Second, // ping interval 60s + timeout 20s + slack
		MemberRepairTimeout:  time.Minute,
		RootRepairTimeout:    2 * time.Minute,
		GracePeriod:          5 * time.Second,
		RepairBackoffInitial: 2 * time.Second,
		RepairBackoffCap:     40 * time.Second,
	}
}

// Scale returns a copy with every duration multiplied by f (tests run
// protocol time compressed).
func (c Config) Scale(f float64) Config {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return Config{
		CreateTimeout:        s(c.CreateTimeout),
		InstallTimeout:       s(c.InstallTimeout),
		CheckTimeout:         s(c.CheckTimeout),
		MemberRepairTimeout:  s(c.MemberRepairTimeout),
		RootRepairTimeout:    s(c.RootRepairTimeout),
		GracePeriod:          s(c.GracePeriod),
		RepairBackoffInitial: s(c.RepairBackoffInitial),
		RepairBackoffCap:     s(c.RepairBackoffCap),
	}
}

// Fuse is the per-node FUSE layer. It attaches to an overlay node as its
// client and shares the node's single-threaded Env.
type Fuse struct {
	env transport.Env
	ov  *overlay.Node
	cfg Config

	self overlay.NodeRef

	creating map[GroupID]*creating
	roots    map[GroupID]*rootState
	members  map[GroupID]*memberState
	checking map[GroupID]*checkState
	handlers map[GroupID][]Handler

	// links is the per-link checking index: for each overlay link, the
	// groups monitored across it, their running piggyback hash, and the
	// single shared CheckTimeout deadline (see linkindex.go).
	links map[transport.Addr]*linkState

	// persist, when non-nil, records group memberships durably (§3.6
	// stable-storage variant).
	persist Persistence

	// recoverUntil, when in the future, opens the post-Recover
	// reconciliation window: while it lasts, every neighbor the overlay
	// (re)acquires is sent an unsolicited GroupLists probe so stale
	// checking state from before the crash is torn down and repaired
	// immediately instead of on the next ping exchange (see
	// OnNeighborUp). The zero value (before any Recover) is always in
	// the past.
	recoverUntil time.Time

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

// creating tracks a CreateGroup in progress at the root.
type creating struct {
	id      GroupID
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
	id      GroupID
	seq     uint64
	members []overlay.NodeRef // excluding the root

	// installPending tracks members whose current-generation
	// InstallChecking has not yet arrived.
	installPending map[string]bool
	installTimer   transport.Timer

	// repairPending, when non-nil, tracks an in-flight repair attempt.
	repairPending map[string]bool
	repairTimer   transport.Timer

	backoff      time.Duration
	backoffUntil time.Time
	backoffTimer transport.Timer

	// cause is the telemetry span of the first failure observation that
	// put this root into repair; a later rootFail's fan-out inherits it
	// so deliveries chain back to the original trigger. Volatile,
	// tracing-only, never persisted.
	cause uint64
}

// memberState is a non-root member's view of a live group.
type memberState struct {
	id   GroupID
	seq  uint64
	root overlay.NodeRef

	// repairTimer is armed while waiting for the root to react to our
	// NeedRepair; its expiry is the member-side failure conclusion.
	repairTimer transport.Timer

	// cause mirrors rootState.cause for the member-side conclusion.
	cause uint64
}

// checkState holds a node's liveness-checking tree links for one group.
// Roots, members and delegates all hold one when they are part of the
// tree.
type checkState struct {
	id  GroupID
	seq uint64

	// links is sorted by neighbor address - the order soft notifications
	// go out in, so identically seeded simulations emit identical event
	// sequences. A node sits on one to three of a group's tree links.
	links []treeLink
}

// link returns the group's tree link to addr, or nil. The pointer is
// into links: good until the next addTreeLink.
func (cs *checkState) link(addr transport.Addr) *treeLink {
	for i := range cs.links {
		if cs.links[i].neighbor.Addr == addr {
			return &cs.links[i]
		}
	}
	return nil
}

// treeLink is one monitored (group, neighbor) pair. Its freshness clock
// is the shared per-link deadline in the linkState index entry;
// installedAt stays per-pair for the reconciliation grace period.
type treeLink struct {
	neighbor    overlay.NodeRef
	installedAt time.Time
}

// New creates the FUSE layer for an overlay node and installs itself as
// the overlay's client.
func New(env transport.Env, ov *overlay.Node, cfg Config) *Fuse {
	f := &Fuse{
		env:      env,
		ov:       ov,
		cfg:      cfg,
		self:     ov.Self(),
		creating: make(map[GroupID]*creating),
		roots:    make(map[GroupID]*rootState),
		members:  make(map[GroupID]*memberState),
		checking: make(map[GroupID]*checkState),
		handlers: make(map[GroupID][]Handler),
		links:    make(map[transport.Addr]*linkState),
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

// LiveGroups returns the IDs of all groups this node currently holds any
// state for (root, member, or delegate), ordered by root name, counter
// and root address.
func (f *Fuse) LiveGroups() []GroupID {
	var out []GroupID
	for id := range f.roots {
		out = append(out, id)
	}
	for id := range f.members {
		out = append(out, id)
	}
	for id := range f.checking {
		out = append(out, id)
	}
	slices.SortFunc(out, func(a, b GroupID) int {
		if c := compareIDs(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.Root.Addr, b.Root.Addr)
	})
	return slices.Compact(out) // a root or member usually has checking state too
}

// CheckingStats sizes the liveness-checking state for experiments:
// groups with checking state here, distinct (group, link) monitored
// pairs, and live check timers backing them.
func (f *Fuse) CheckingStats() (groups, pairs, timers int) {
	groups = len(f.checking)
	for _, cs := range f.checking {
		pairs += len(cs.links)
	}
	timers = len(f.links) // one shared deadline per monitored link
	return groups, pairs, timers
}

// HasState reports whether the node holds any state for id.
func (f *Fuse) HasState(id GroupID) bool {
	if _, ok := f.roots[id]; ok {
		return true
	}
	if _, ok := f.members[id]; ok {
		return true
	}
	if _, ok := f.checking[id]; ok {
		return true
	}
	_, ok := f.creating[id]
	return ok
}

// RegisterFailureHandler registers a callback for failure notifications on
// id (Figure 1 of the paper). If the group is unknown - possibly because a
// notification already fired - the handler is invoked immediately.
func (f *Fuse) RegisterFailureHandler(h Handler, id GroupID) {
	if h == nil {
		return
	}
	if _, isRoot := f.roots[id]; !isRoot {
		if _, isMember := f.members[id]; !isMember {
			if _, inCreate := f.creating[id]; !inCreate {
				f.env.After(0, func() { f.deliverNotice(h, Notice{ID: id, Reason: ReasonNotified}, 0) })
				return
			}
		}
	}
	f.handlers[id] = append(f.handlers[id], h)
}

// SignalFailure explicitly triggers a failure notification for id
// (Figure 1). The local handler fires, the root is informed with a
// HardNotification, and the root fans the notification to all members.
func (f *Fuse) SignalFailure(id GroupID) {
	if rs, ok := f.roots[id]; ok {
		f.rootFail(rs, ReasonSignaled)
		return
	}
	if _, ok := f.members[id]; ok {
		span := f.tm.lane.NewSpan()
		f.trace("trigger", id, span, 0, "signaled")
		f.env.Send(id.Root.Addr, &msgHardNotification{ID: id, From: f.self, Trace: span})
		f.notifyLocal(id, ReasonSignaled, span)
		f.teardown(id)
		return
	}
	// Unknown group: nothing to do; a registration after this will fire
	// immediately since no state exists.
}

func (f *Fuse) logf(format string, args ...any) {
	f.env.Logf("fuse %s: %s", f.self.Name, fmt.Sprintf(format, args...))
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
	f.tm.lane.Emit(f.env.Now(), kind, f.self.Name, group, span, parent, detail)
}

// notifyLocal invokes and clears all handlers for id, exactly once.
// span is the causal trigger's trace span (0 when untraced or unknown);
// each delivery event records it as Parent.
func (f *Fuse) notifyLocal(id GroupID, reason Reason, span uint64) {
	hs := f.handlers[id]
	delete(f.handlers, id)
	if len(hs) == 0 {
		return
	}
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

// teardown removes every piece of state for id and stops its timers.
func (f *Fuse) teardown(id GroupID) {
	if c, ok := f.creating[id]; ok {
		stopTimer(c.timer)
		delete(f.creating, id)
	}
	if rs, ok := f.roots[id]; ok {
		stopTimer(rs.installTimer)
		stopTimer(rs.repairTimer)
		stopTimer(rs.backoffTimer)
		delete(f.roots, id)
	}
	if ms, ok := f.members[id]; ok {
		stopTimer(ms.repairTimer)
		delete(f.members, id)
	}
	f.dropChecking(id)
	f.forget(id)
}

// dropChecking removes only the liveness-checking tree state for id,
// detaching it from every per-link index entry it rides on.
func (f *Fuse) dropChecking(id GroupID) {
	cs, ok := f.checking[id]
	if !ok {
		return
	}
	for _, l := range cs.links {
		f.detachFromLink(id, l.neighbor.Addr)
	}
	delete(f.checking, id)
}

func stopTimer(t transport.Timer) {
	if t != nil {
		t.Stop()
	}
}
