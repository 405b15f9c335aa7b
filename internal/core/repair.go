package core

// Group repair (§6.5): the root rebuilds the liveness-checking tree with
// direct GroupRepairRequest messages; members answer directly and re-route
// InstallChecking messages. Per-group exponential backoff (capped, per the
// paper, at 40 seconds) bounds repair frequency during overlay churn.

// memberNeedsRepair sends NeedRepair to the root and arms the member-side
// failure timer. If a repair is already pending, the existing timer keeps
// counting: the member's deadline must not be extended by repeated local
// failures, or notification latency would be unbounded.
func (f *Fuse) memberNeedsRepair(g *groupState) {
	ms, id := g.role.member, g.id
	if ms.repairTimer != nil {
		return
	}
	f.env.Send(id.Root.Addr, &msgNeedRepair{ID: id, Seq: ms.seq, Member: f.self})
	ms.repairTimer = f.env.After(f.scaled(memberRepairTimeout), func() {
		// The root never responded: conclude the group has failed
		// (member-side guarantee). Tell the root anyway - if it is
		// alive behind an asymmetric failure, it will fan out the
		// notification.
		span := ms.cause
		f.trace("member-timeout", id, span, 0, "")
		f.env.Send(id.Root.Addr, &msgHardNotification{ID: id, From: f.self, Trace: span})
		f.notifyLocal(id, ReasonRepairTimeout, span)
		f.teardown(id)
	})
}

// handleNeedRepair lets a member prod the root into repairing.
func (f *Fuse) handleNeedRepair(m *msgNeedRepair) {
	g := f.lookup(m.ID)
	if g.roles().root == nil {
		// The group no longer exists here; the member must hear that as
		// a failure.
		f.env.Send(m.Member.Addr, &msgHardNotification{ID: m.ID, From: f.self})
		return
	}
	f.scheduleRepair(g)
}

// scheduleRepair starts a repair attempt, deferring it while the per-group
// backoff window is open and collapsing duplicate triggers.
func (f *Fuse) scheduleRepair(g *groupState) {
	rs := g.role.root
	if rs.repairPending != nil || rs.backoffTimer != nil {
		return // already repairing or already scheduled
	}
	if now := f.env.Elapsed(); now < rs.backoffUntil {
		rs.backoffTimer = f.env.After(rs.backoffUntil-now, func() {
			rs.backoffTimer = nil
			f.startRepair(g)
		})
		return
	}
	f.startRepair(g)
}

func (f *Fuse) startRepair(g *groupState) {
	rs := g.role.root
	if f.lookup(g.id).roles().root == nil || rs.repairPending != nil {
		return
	}
	if len(rs.members) == 0 {
		return // singleton group: nothing to repair
	}
	// Advance the generation: stale soft notifications and installs from
	// the previous tree no longer count.
	rs.seq++
	f.saveRoot(g)
	f.tm.repairs.Inc(f.tm.lane)
	f.trace("repair", g.id, rs.cause, 0, "")

	// Update the backoff window for the *next* attempt.
	rs.backoff = max(rs.backoff, f.scaled(backoffInitial))
	rs.backoffUntil = f.env.Elapsed() + rs.backoff
	rs.backoff = min(2*rs.backoff, f.scaled(backoffCap))

	rs.repairPending = make(map[string]bool, len(rs.members))
	rs.installPending = make(map[string]bool, len(rs.members))
	for _, m := range rs.members {
		rs.repairPending[m.Name] = true
		rs.installPending[m.Name] = true
		f.env.Send(m.Addr, &msgGroupRepairRequest{ID: g.id, Seq: rs.seq})
	}
	stopTimer(rs.repairTimer)
	rs.repairTimer = f.env.After(f.scaled(rootRepairTimeout), func() {
		if len(rs.repairPending) > 0 {
			// Some member never answered a direct request: the group
			// has failed (root-side guarantee).
			f.rootFail(g, ReasonRepairFailed)
		}
	})
}

// handleRepairRequest is the member side of repair: adopt the new
// sequence number, answer directly, and re-route InstallChecking.
func (f *Fuse) handleRepairRequest(m *msgGroupRepairRequest) {
	g := f.lookup(m.ID)
	ms := g.roles().member
	if ms == nil {
		// "If a repair message ever encounters a member that no longer
		// has knowledge of the group, it fails and signals a
		// HardNotification" - this guarantees repair cannot suppress a
		// notification that already reached some members.
		f.env.Send(m.ID.Root.Addr, &msgHardNotification{ID: m.ID, From: f.self})
		return
	}
	if m.Seq < ms.seq {
		return // stale repair generation
	}
	ms.seq = m.Seq
	f.saveMember(g)
	// The root is alive and repairing: stand down the member-side
	// failure timer (and the failure attribution it carried).
	stopTimer(ms.repairTimer)
	ms.repairTimer = nil
	ms.cause = 0

	// Replace our old view of the tree with the new generation.
	f.dropChecking(m.ID)
	f.env.Send(m.ID.Root.Addr, &msgGroupRepairReply{ID: m.ID, Seq: m.Seq, Member: f.self})
	f.sendInstallChecking(m.ID, m.Seq)
}

// handleRepairReply collects members' repair acknowledgments at the root.
func (f *Fuse) handleRepairReply(m *msgGroupRepairReply) {
	g := f.lookup(m.ID)
	rs := g.roles().root
	if rs == nil || rs.repairPending == nil || m.Seq != rs.seq {
		return
	}
	delete(rs.repairPending, m.Member.Name)
	if len(rs.repairPending) > 0 {
		return
	}
	// Every member answered; now wait for the InstallChecking wave.
	rs.repairPending = nil
	stopTimer(rs.repairTimer)
	rs.repairTimer = nil
	f.armInstallTimer(g)
}

// rootFail is the root-side failure fan-out: notify the application here,
// send HardNotifications to every member, and sweep the checking tree
// with SoftNotifications (the proactive cleanup of Figure 4). The
// fan-out inherits the span of the observation that drove the root here
// (or allocates one for a direct trigger like SignalFailure), so every
// member's delivery chains back to the same trigger event.
func (f *Fuse) rootFail(g *groupState, reason Reason) {
	rs, id := g.role.root, g.id
	span := rs.cause
	if span == 0 {
		span = f.tm.lane.NewSpan()
		f.trace("trigger", id, span, 0, string(reason))
	}
	f.trace("hard-fanout", id, span, 0, string(reason))
	for _, m := range rs.members {
		f.env.Send(m.Addr, &msgHardNotification{ID: id, From: f.self, Trace: span})
	}
	f.softSweep(g, span)
	f.notifyLocal(id, reason, span)
	f.teardown(id)
}

// softSweep sends SoftNotifications along all of g's tree links to clean
// delegate state proactively.
func (f *Fuse) softSweep(g *groupState, span uint64) {
	seq := g.seq + 1 // strictly newer than any installed generation
	for _, l := range g.links {
		f.env.Send(l.ls.neighbor.Addr, &msgSoftNotification{ID: g.id, Seq: seq, From: f.self, Trace: span})
	}
}

// handleHard delivers the application-visible notification (§6.4): the
// root fans it to all members; every receiver fires its handler exactly
// once and tears down group state.
func (f *Fuse) handleHard(m *msgHardNotification) {
	f.tm.hards.Inc(f.tm.lane)
	g := f.lookup(m.ID)
	switch r := g.roles(); {
	case r.root != nil:
		f.trace("hard-fanout", m.ID, m.Trace, 0, m.From.Name)
		for _, mem := range r.root.members {
			if mem.Addr == m.From.Addr {
				continue // the signaller already knows
			}
			f.env.Send(mem.Addr, &msgHardNotification{ID: m.ID, From: f.self, Trace: m.Trace})
		}
		f.softSweep(g, m.Trace)
		f.notifyLocal(m.ID, ReasonNotified, m.Trace)
		f.teardown(m.ID)
	case r.member != nil:
		f.notifyLocal(m.ID, ReasonNotified, m.Trace)
		f.teardown(m.ID)
	case r.creating != nil:
		// A member signalled failure while we were still creating.
		for _, mem := range r.creating.members {
			if mem.Addr != m.From.Addr {
				f.env.Send(mem.Addr, &msgHardNotification{ID: m.ID, From: f.self, Trace: m.Trace})
			}
		}
		f.teardown(m.ID)
		r.creating.done(GroupID{}, ErrGroupFailed)
	}
	// Otherwise the group is unknown (already notified): drop.
}

// ErrGroupFailed reports a creation aborted by a failure notification.
var ErrGroupFailed = errGroupFailed{}

type errGroupFailed struct{}

func (errGroupFailed) Error() string { return "fuse: group failed during creation" }
