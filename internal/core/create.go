package core

import (
	"errors"
	"fmt"

	"fuse/internal/overlay"
)

// Group creation (§6.2): the root contacts every member directly in
// parallel and succeeds only when all reply; members concurrently route
// InstallChecking messages toward the root to lay the liveness-checking
// tree.

// ErrCreateTimeout is reported when some member did not reply in time.
var ErrCreateTimeout = errors.New("fuse: group creation timed out")

// CreateGroup creates a FUSE group over members (which may, and usually
// does, include this node itself). done is invoked exactly once on this
// node's event loop: with the new group ID on success - guaranteeing every
// member was alive and installed - or with an error after the creation
// timeout, in which case any members that learned of the group are sent a
// failure notification (Figure 1's CreateGroup; the public fuse package
// wraps this in a blocking call for live deployments).
func (f *Fuse) CreateGroup(members []overlay.NodeRef, done func(GroupID, error)) {
	if done == nil {
		done = func(GroupID, error) {}
	}
	id := GroupID{Root: f.self, Num: f.env.Rand().Uint64()}
	others := make([]overlay.NodeRef, 0, len(members))
	seen := map[string]bool{f.self.Name: true}
	for _, m := range members {
		if m.Name == f.self.Name || seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		others = append(others, m)
	}

	if len(others) == 0 {
		// A singleton group: trivially created, nothing to monitor.
		f.withRole(id).role.root = new(rootState)
		f.env.After(0, func() { done(id, nil) })
		return
	}

	c := &creating{
		members:        others,
		pending:        make(map[string]bool, len(others)),
		installArrived: make(map[string]overlay.NodeRef),
		done:           done,
	}
	for _, m := range others {
		c.pending[m.Name] = true
	}
	f.withRole(id).role.creating = c

	for _, m := range others {
		f.env.Send(m.Addr, &msgGroupCreateRequest{ID: id, Members: members})
	}
	f.trace("create", id, 0, 0, "")
	c.timer = f.env.After(f.scaled(createTimeout), func() { f.createTimedOut(id) })
}

// handleCreateRequest installs member state and replies (§6.2): reply
// directly to the root and concurrently route an InstallChecking message
// toward it.
func (f *Fuse) handleCreateRequest(m *msgGroupCreateRequest) {
	if f.lookup(m.ID).roles().member != nil {
		// Duplicate (e.g. root retransmission): just re-reply.
		f.env.Send(m.ID.Root.Addr, &msgGroupCreateReply{ID: m.ID, Member: f.self})
		return
	}
	g := f.withRole(m.ID)
	g.role.member = new(memberState)
	f.saveMember(g)
	f.env.Send(m.ID.Root.Addr, &msgGroupCreateReply{ID: m.ID, Member: f.self})
	f.sendInstallChecking(m.ID, 0)
}

// sendInstallChecking routes the member's InstallChecking toward the root
// and begins monitoring the first link of the path.
func (f *Fuse) sendInstallChecking(id GroupID, seq uint64) {
	f.trace("install-send", id, 0, 0, "")
	first, ok := f.ov.RouteTo(id.Root.Name, &msgInstallChecking{ID: id, Seq: seq, Member: f.self})
	if !ok {
		// No overlay path to the root right now. The root's install
		// timer will notice the missing InstallChecking and drive
		// repair; meanwhile the member monitors nothing.
		return
	}
	f.addTreeLink(id, seq, first)
}

// handleCreateReply collects member acknowledgments at the root.
func (f *Fuse) handleCreateReply(m *msgGroupCreateReply) {
	g := f.lookup(m.ID)
	c := g.roles().creating
	if c == nil {
		// Late reply after the creation timed out: the paper's rule is
		// that removing the entry prevents late replies from installing
		// state. The member will be cleaned by the HardNotification the
		// timeout already sent.
		return
	}
	delete(c.pending, m.Member.Name)
	if len(c.pending) > 0 {
		return
	}
	// Everyone replied: promote to live root state.
	stopTimer(c.timer)
	rs := &rootState{
		members:        c.members,
		installPending: make(map[string]bool, len(c.members)),
		backoff:        f.scaled(backoffInitial),
	}
	for _, mem := range c.members {
		rs.installPending[mem.Name] = true
	}
	g.role.creating, g.role.root = nil, rs
	// Credit InstallChecking messages that raced ahead of the replies.
	for name, prev := range c.installArrived {
		delete(rs.installPending, name)
		if !prev.IsZero() {
			f.addTreeLink(g.id, 0, prev)
		}
	}
	f.saveRoot(g)
	f.armInstallTimer(g)
	f.tm.created.Inc(f.tm.lane)
	f.trace("create-ok", g.id, 0, 0, "")
	c.done(g.id, nil)
}

func (f *Fuse) armInstallTimer(g *groupState) {
	rs := g.role.root
	stopTimer(rs.installTimer)
	if len(rs.installPending) == 0 {
		rs.installPending = nil // every install already credited
		rs.installTimer = nil
		return
	}
	rs.installTimer = f.env.After(f.scaled(installTimeout), func() {
		if len(rs.installPending) > 0 {
			f.scheduleRepair(g)
		}
	})
}

// createTimedOut fails the creation of id: every member that might have
// installed state gets a HardNotification, and the caller learns the
// group never existed.
func (f *Fuse) createTimedOut(id GroupID) {
	c := f.lookup(id).roles().creating
	if c == nil {
		return
	}
	f.tm.createFailed.Inc(f.tm.lane)
	span := f.tm.lane.NewSpan()
	f.trace("create-fail", id, span, 0, "")
	missing := 0
	for _, m := range c.members {
		f.env.Send(m.Addr, &msgHardNotification{ID: id, From: f.self, Trace: span})
		if c.pending[m.Name] {
			missing++
		}
	}
	f.teardown(id)
	c.done(GroupID{}, fmt.Errorf("%w: %d of %d members unreachable", ErrCreateTimeout, missing, len(c.members)))
}
