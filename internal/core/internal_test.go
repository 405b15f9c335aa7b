package core

// White-box unit tests for protocol internals that the integration suite
// (fuse_test.go, package core_test) cannot reach directly: the piggyback
// hash, sequence-number guards, backoff arithmetic, and teardown
// bookkeeping. They run the FUSE layer over a minimal fake Env with a
// manually advanced clock.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// fakeEnv is a hand-cranked Env: sends are recorded, timers fire only
// when the test advances the clock.
type fakeEnv struct {
	addr   transport.Addr
	now    time.Time
	rng    *rand.Rand
	sent   []fakeSend
	timers []*fakeTimer

	// onSend, when set, runs after each send is recorded: a test's way to
	// make something happen in the middle of a protocol step.
	onSend func(fakeSend)
}

type fakeSend struct {
	to  transport.Addr
	msg transport.Message
}

type fakeTimer struct {
	at      time.Time
	fn      func()
	stopped bool
	fired   bool
}

func (t *fakeTimer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

func newFakeEnv(addr transport.Addr) *fakeEnv {
	return &fakeEnv{addr: addr, now: time.Unix(1000, 0), rng: rand.New(rand.NewSource(1))}
}

func (e *fakeEnv) Addr() transport.Addr { return e.addr }
func (e *fakeEnv) Now() time.Time       { return e.now }
func (e *fakeEnv) Rand() *rand.Rand     { return e.rng }
func (e *fakeEnv) Logf(string, ...any)  {}

func (e *fakeEnv) Send(to transport.Addr, msg transport.Message) {
	e.sent = append(e.sent, fakeSend{to: to, msg: msg})
	if e.onSend != nil {
		e.onSend(fakeSend{to: to, msg: msg})
	}
}

func (e *fakeEnv) After(d time.Duration, fn func()) transport.Timer {
	t := &fakeTimer{at: e.now.Add(d), fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves the clock and fires due timers in scheduling order.
func (e *fakeEnv) advance(d time.Duration) {
	e.now = e.now.Add(d)
	for _, t := range e.timers {
		if !t.stopped && !t.fired && !t.at.After(e.now) {
			t.fired = true
			t.fn()
		}
	}
}

func (e *fakeEnv) sentTo(addr transport.Addr) []transport.Message {
	var out []transport.Message
	for _, s := range e.sent {
		if s.to == addr {
			out = append(out, s.msg)
		}
	}
	return out
}

// newFakeFuse builds a FUSE layer on an isolated (neighborless) overlay
// node.
func newFakeFuse(name string) (*Fuse, *fakeEnv) {
	env := newFakeEnv(transport.Addr("addr-" + name))
	ov := overlay.New(env, overlay.DefaultConfig(), name)
	f := New(env, ov, DefaultConfig())
	return f, env
}

func ref(name string) overlay.NodeRef {
	return overlay.NodeRef{Name: name, Addr: transport.Addr("addr-" + name)}
}

// hashOf is the piggyback of a link holding ids, attached in that order.
func hashOf(ids ...GroupID) string {
	ls := &linkState{}
	for _, id := range ids {
		ls.attach(id)
	}
	return string(ls.linkHash())
}

func TestHashGroupIDsEmptyIsNil(t *testing.T) {
	ls := &linkState{}
	if h := ls.linkHash(); h != nil {
		t.Fatalf("empty hash = %x, want nil (idle links carry no payload)", h)
	}
}

func TestHashGroupIDsIsTwentyBytes(t *testing.T) {
	if h := hashOf(GroupID{Root: ref("a"), Num: 1}); len(h) != 20 {
		t.Fatalf("hash length %d, want 20 (the paper's piggyback size)", len(h))
	}
}

// Property: the hash is a pure function of the ID multiset and
// distinguishes different sets. An ID's digest covers its root's name
// and its counter, so the same name and counter rooted at two addresses
// (r and r2 below) is one digest held twice.
func TestHashGroupIDsProperty(t *testing.T) {
	r, r2 := ref("r"), overlay.NodeRef{Name: "r", Addr: "elsewhere"}
	prop := func(n1, n2 uint64) bool {
		a := hashOf(GroupID{Root: r, Num: n1}, GroupID{Root: r, Num: n2})
		if a != hashOf(GroupID{Root: r, Num: n2}, GroupID{Root: r, Num: n1}) {
			return false
		}
		if n1 != n2 {
			// {n1, n2} against {n1, n1}.
			twice := hashOf(GroupID{Root: r, Num: n1}, GroupID{Root: r2, Num: n1})
			if a == twice {
				return false
			}
			// {a, a'} against {b, b'}: a pair that digests alike must not
			// cancel, or any two such pairs would agree.
			if twice == hashOf(GroupID{Root: r, Num: n2}, GroupID{Root: r2, Num: n2}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkHashCacheCoherence drives the per-link index through random
// sequences of addTreeLink / dropChecking / seq bumps and checks, after
// every step, that the running piggyback hash for every link equals a
// from-scratch fold over the groups actually crossing it - the invariant
// PingPayload serves from.
func TestLinkHashCacheCoherence(t *testing.T) {
	f, _ := newFakeFuse("d")
	rng := rand.New(rand.NewSource(42))
	ids := make([]GroupID, 12)
	for i := range ids {
		ids[i] = GroupID{Root: ref("r"), Num: uint64(i + 1)}
	}
	neighbors := []overlay.NodeRef{ref("n1"), ref("n2"), ref("n3"), ref("n4")}

	naiveHash := func(addr transport.Addr) []byte {
		var on []GroupID
		for id, cs := range f.checking {
			if cs.link(addr) != nil {
				on = append(on, id)
			}
		}
		return refHashGroupIDs(on)
	}

	for step := 0; step < 2000; step++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(4) {
		case 0, 1:
			f.addTreeLink(id, uint64(rng.Intn(3)), neighbors[rng.Intn(len(neighbors))])
		case 2:
			f.dropChecking(id)
		case 3: // seq bump on an existing group: must not disturb the hash
			if cs, ok := f.checking[id]; ok {
				cs.seq++
			}
		}
		for _, nb := range neighbors {
			want := naiveHash(nb.Addr)
			got := f.PingPayload(nb)
			if string(got) != string(want) {
				t.Fatalf("step %d: running hash for link %s = %x, from scratch = %x", step, nb.Name, got, want)
			}
		}
	}

	// Index bookkeeping: every linkState entry must be non-empty and
	// mirror the per-group view exactly.
	pairs := 0
	for _, cs := range f.checking {
		pairs += len(cs.links)
	}
	indexed := 0
	for addr, ls := range f.links {
		if len(ls.sorted) == 0 {
			t.Fatalf("empty linkState for %s survived", addr)
		}
		indexed += len(ls.sorted)
	}
	if indexed != pairs {
		t.Fatalf("index holds %d pairs, checking map holds %d", indexed, pairs)
	}
}

// TestInstallsDoNotPostponeLinkFailure pins the shared deadline's arming
// rule: installing new groups on a link is not liveness evidence for the
// neighbor, so a steady stream of installs (faster than CheckTimeout)
// must not postpone failure detection for groups already riding the
// link. Only a matching-hash ping or reconciliation agreement re-arms.
func TestInstallsDoNotPostponeLinkFailure(t *testing.T) {
	f, env := newFakeFuse("d")
	peer := ref("peer")
	first := GroupID{Root: ref("r"), Num: 1}
	f.addTreeLink(first, 0, peer)
	// The neighbor never refreshes the link, but installs keep arriving
	// well inside CheckTimeout.
	for i := 0; i < 10; i++ {
		env.advance(f.cfg.CheckTimeout / 4)
		f.addTreeLink(GroupID{Root: ref("r"), Num: uint64(i + 2)}, 0, peer)
	}
	if _, ok := f.checking[first]; ok {
		t.Fatal("sustained installs postponed link-failure detection for an existing group")
	}
}

// TestAggregatedDeadlineFairnessBound pins the fairness bound documented
// on ensureLinkTimer: a group installed on a link whose shared deadline
// is already pending waits at most one full CheckTimeout past its own
// install before the quiet link fails it - never longer (the pending
// deadline was armed no later than the install), though possibly sooner
// (it inherits the remaining window).
func TestAggregatedDeadlineFairnessBound(t *testing.T) {
	// Mid-window install: the late group inherits the first group's
	// deadline and is torn down CheckTimeout/3 after its own install -
	// sooner than a private timer, within the bound.
	f, env := newFakeFuse("d")
	peer := ref("peer")
	first := GroupID{Root: ref("r"), Num: 1}
	late := GroupID{Root: ref("r"), Num: 2}
	f.addTreeLink(first, 0, peer)
	env.advance(2 * f.cfg.CheckTimeout / 3)
	f.addTreeLink(late, 0, peer)
	env.advance(f.cfg.CheckTimeout/3 + time.Second)
	if _, ok := f.checking[late]; ok {
		t.Fatal("late group outlived the shared deadline: waited more than a full CheckTimeout past its install")
	}

	// Worst case: the deadline is re-armed by a ping just before the
	// install, so the late group rides almost the entire shared window -
	// still alive one step short of install + CheckTimeout, gone at it.
	f, env = newFakeFuse("d")
	f.addTreeLink(first, 0, peer)
	env.advance(f.cfg.CheckTimeout / 2)
	f.OnPingPayload(peer, f.PingPayload(peer)) // liveness evidence re-arms
	env.advance(time.Second)
	f.addTreeLink(late, 0, peer) // then the link goes quiet
	env.advance(f.cfg.CheckTimeout - 2*time.Second)
	if _, ok := f.checking[late]; !ok {
		t.Fatal("late group torn down before the shared deadline it inherited")
	}
	env.advance(2 * time.Second)
	if _, ok := f.checking[late]; ok {
		t.Fatal("quiet link left the late group past install + CheckTimeout")
	}
	if _, ok := f.checking[first]; ok {
		t.Fatal("quiet link left the first group checking")
	}
}

// TestSharedLinkTimerCoversAllGroups pins the timer collapse: many groups
// over one link share a single deadline, one ping refresh re-arms them
// all, and expiry fails every group on the link.
func TestSharedLinkTimerCoversAllGroups(t *testing.T) {
	f, env := newFakeFuse("d")
	peer := ref("peer")
	const n = 20
	for i := 0; i < n; i++ {
		f.addTreeLink(GroupID{Root: ref("r"), Num: uint64(i + 1)}, 0, peer)
	}
	live := func() int {
		c := 0
		for _, tm := range env.timers {
			if !tm.stopped && !tm.fired {
				c++
			}
		}
		return c
	}
	if got := live(); got != 1 {
		t.Fatalf("%d live timers for %d groups on one link, want 1", got, n)
	}
	// A matching-hash ping refreshes the shared deadline.
	env.advance(f.cfg.CheckTimeout / 2)
	f.OnPingPayload(peer, f.PingPayload(peer))
	env.advance(f.cfg.CheckTimeout/2 + time.Second)
	if len(f.checking) != n {
		t.Fatalf("refresh did not cover all groups: %d of %d survive", len(f.checking), n)
	}
	// Expiry fails every group riding the link.
	env.advance(f.cfg.CheckTimeout)
	if len(f.checking) != 0 {
		t.Fatalf("%d groups survived link timeout", len(f.checking))
	}
	if len(f.links) != 0 {
		t.Fatal("link index entry survived timeout")
	}
}

func TestRepairBackoffDoublesAndCaps(t *testing.T) {
	f, env := newFakeFuse("root")
	rs := &rootState{
		id:      GroupID{Root: f.self, Num: 1},
		members: []overlay.NodeRef{ref("m1")},
		backoff: f.cfg.RepairBackoffInitial,
	}
	f.roots[rs.id] = rs

	want := f.cfg.RepairBackoffInitial
	for i := 0; i < 8; i++ {
		f.startRepair(rs)
		want *= 2
		if want > f.cfg.RepairBackoffCap {
			want = f.cfg.RepairBackoffCap
		}
		if rs.backoff != want {
			t.Fatalf("attempt %d: backoff = %v, want %v", i, rs.backoff, want)
		}
		// Clear the in-flight attempt so the next one is allowed, and
		// move past the backoff window.
		rs.repairPending = nil
		env.advance(f.cfg.RepairBackoffCap + time.Second)
	}
	if rs.backoff != f.cfg.RepairBackoffCap {
		t.Fatalf("backoff %v never capped at %v", rs.backoff, f.cfg.RepairBackoffCap)
	}
}

func TestScheduleRepairHonorsBackoffWindow(t *testing.T) {
	f, env := newFakeFuse("root")
	rs := &rootState{
		id:      GroupID{Root: f.self, Num: 2},
		members: []overlay.NodeRef{ref("m1")},
		backoff: f.cfg.RepairBackoffInitial,
	}
	f.roots[rs.id] = rs
	f.startRepair(rs)
	first := len(env.sentTo(ref("m1").Addr))
	if first == 0 {
		t.Fatal("no repair request sent")
	}
	rs.repairPending = nil
	// Immediately re-scheduling must defer: the backoff window is open.
	f.scheduleRepair(rs)
	if got := len(env.sentTo(ref("m1").Addr)); got != first {
		t.Fatalf("repair ran inside the backoff window (%d -> %d sends)", first, got)
	}
	if rs.backoffTimer == nil {
		t.Fatal("no deferred repair scheduled")
	}
	env.advance(f.cfg.RepairBackoffCap + time.Second)
	if got := len(env.sentTo(ref("m1").Addr)); got <= first {
		t.Fatal("deferred repair never ran after the window")
	}
}

func TestStaleSoftNotificationDiscarded(t *testing.T) {
	f, _ := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 3}
	f.addTreeLink(id, 5, ref("n1"))
	f.addTreeLink(id, 5, ref("n2"))
	// A soft from a previous generation must not tear the tree down.
	f.handleSoft(&msgSoftNotification{ID: id, Seq: 4, From: ref("n1")})
	if _, ok := f.checking[id]; !ok {
		t.Fatal("stale soft notification tore down current-generation state")
	}
	// A current-generation soft does.
	f.handleSoft(&msgSoftNotification{ID: id, Seq: 5, From: ref("n1")})
	if _, ok := f.checking[id]; ok {
		t.Fatal("current soft notification ignored")
	}
}

func TestSoftNotificationForwardsToOtherLinksOnly(t *testing.T) {
	f, env := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 4}
	f.addTreeLink(id, 0, ref("up"))
	f.addTreeLink(id, 0, ref("down"))
	f.handleSoft(&msgSoftNotification{ID: id, Seq: 0, From: ref("up")})
	if got := env.sentTo(ref("up").Addr); len(got) != 0 {
		t.Fatalf("soft echoed back to its sender: %v", got)
	}
	fwd := env.sentTo(ref("down").Addr)
	if len(fwd) != 1 {
		t.Fatalf("forwarded %d messages to the other link, want 1", len(fwd))
	}
	if _, ok := fwd[0].(*msgSoftNotification); !ok {
		t.Fatalf("forwarded %T, want msgSoftNotification", fwd[0])
	}
}

func TestReconciliationGracePeriodProtectsFreshLinks(t *testing.T) {
	f, env := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 5}
	f.addTreeLink(id, 0, ref("peer"))
	// The peer's list does not mention the group, but the link is
	// younger than the grace period: state must survive.
	f.handleGroupLists(&msgGroupLists{From: ref("peer"), IsReply: true})
	if _, ok := f.checking[id]; !ok {
		t.Fatal("grace period did not protect a fresh link")
	}
	// Past the grace period the same disagreement kills the link.
	env.advance(f.cfg.GracePeriod + time.Second)
	f.handleGroupLists(&msgGroupLists{From: ref("peer"), IsReply: true})
	if _, ok := f.checking[id]; ok {
		t.Fatal("reconciliation did not fail a disagreed link after grace")
	}
}

// TestGracePeriodSurvivesSharedLinkTimer is the regression test for the
// per-link timer change: when one link carries both an agreed old group
// and a fresh disagreed one, reconciliation must re-arm the shared
// deadline (the neighbor is alive) while still protecting the fresh
// group through its grace period - and still failing it by list exchange
// once the grace period lapses, even though agreement on the other group
// keeps refreshing the link's only timer.
func TestGracePeriodSurvivesSharedLinkTimer(t *testing.T) {
	f, env := newFakeFuse("d")
	peer := ref("peer")
	agreedID := GroupID{Root: ref("r"), Num: 21}
	freshID := GroupID{Root: ref("r"), Num: 22}
	f.addTreeLink(agreedID, 1, peer)
	env.advance(f.cfg.GracePeriod + time.Second) // agreedID is old
	f.addTreeLink(freshID, 0, peer)

	lists := &msgGroupLists{From: peer, Entries: []listEntry{{ID: agreedID, Seq: 1}}, IsReply: true}
	f.handleGroupLists(lists)
	if _, ok := f.checking[freshID]; !ok {
		t.Fatal("grace period did not protect the fresh group on a shared link")
	}
	if _, ok := f.checking[agreedID]; !ok {
		t.Fatal("agreed group was dropped")
	}
	// Agreement re-armed the shared deadline: nothing may expire before
	// another full CheckTimeout.
	env.advance(f.cfg.CheckTimeout - time.Second)
	if _, ok := f.checking[agreedID]; !ok {
		t.Fatal("shared deadline was not refreshed by reconciliation agreement")
	}
	// Past the grace period, the same disagreement kills only the fresh
	// group; the agreed one keeps riding the link.
	f.handleGroupLists(lists)
	if _, ok := f.checking[freshID]; ok {
		t.Fatal("reconciliation did not fail the disagreed group after grace")
	}
	if _, ok := f.checking[agreedID]; !ok {
		t.Fatal("failing the disagreed group tore down the agreed one")
	}
	if ls := f.links[peer.Addr]; ls == nil || len(ls.sorted) != 1 {
		t.Fatalf("link index out of sync after partial teardown: %+v", f.links[peer.Addr])
	}
}

func TestReconciliationAgreementResetsTimers(t *testing.T) {
	f, env := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 6}
	f.addTreeLink(id, 2, ref("peer"))
	env.advance(f.cfg.GracePeriod + time.Second)
	f.handleGroupLists(&msgGroupLists{
		From:    ref("peer"),
		Entries: []listEntry{{ID: id, Seq: 2}},
		IsReply: true,
	})
	if _, ok := f.checking[id]; !ok {
		t.Fatal("agreed link was dropped")
	}
	// And a non-reply triggers exactly one reply back.
	f.handleGroupLists(&msgGroupLists{
		From:    ref("peer"),
		Entries: []listEntry{{ID: id, Seq: 2}},
		IsReply: false,
	})
	replies := 0
	for _, m := range env.sentTo(ref("peer").Addr) {
		if gl, ok := m.(*msgGroupLists); ok && gl.IsReply {
			replies++
		}
	}
	if replies != 1 {
		t.Fatalf("%d reconciliation replies, want 1 (no ping-pong)", replies)
	}
}

func TestTeardownStopsEveryTimer(t *testing.T) {
	f, env := newFakeFuse("n")
	id := GroupID{Root: ref("r"), Num: 7}
	f.members[id] = &memberState{id: id, root: ref("r")}
	f.addTreeLink(id, 0, ref("a"))
	f.addTreeLink(id, 0, ref("b"))
	f.memberNeedsRepair(f.members[id])
	f.teardown(id)
	if f.HasState(id) {
		t.Fatal("state survives teardown")
	}
	live := 0
	for _, tm := range env.timers {
		if !tm.stopped && !tm.fired {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d timers still pending after teardown", live)
	}
}

func TestLiveGroupsDeduplicatesRoles(t *testing.T) {
	f, _ := newFakeFuse("n")
	id := GroupID{Root: f.self, Num: 8}
	f.roots[id] = &rootState{id: id}
	f.addTreeLink(id, 0, ref("a"))
	if got := f.LiveGroups(); len(got) != 1 {
		t.Fatalf("LiveGroups = %v, want one entry", got)
	}
}

func TestSignalFailureOnUnknownGroupIsNoop(t *testing.T) {
	f, env := newFakeFuse("n")
	f.SignalFailure(GroupID{Root: ref("r"), Num: 9})
	if len(env.sent) != 0 {
		t.Fatalf("unknown-group signal sent %v", env.sent)
	}
}

func TestMemberRepairTimerNotExtendedByRepeatedFailures(t *testing.T) {
	f, env := newFakeFuse("m")
	id := GroupID{Root: ref("r"), Num: 10}
	ms := &memberState{id: id, root: ref("r")}
	f.members[id] = ms
	var notices []Notice
	f.RegisterFailureHandler(func(n Notice) { notices = append(notices, n) }, id)
	f.memberNeedsRepair(ms)
	first := ms.repairTimer
	env.advance(f.cfg.MemberRepairTimeout / 2)
	f.memberNeedsRepair(ms) // second local failure: must not re-arm
	if ms.repairTimer != first {
		t.Fatal("repeated failure extended the member's deadline")
	}
	if len(notices) != 0 {
		t.Fatalf("notices before the deadline: %v", notices)
	}
	env.advance(f.cfg.MemberRepairTimeout/2 + time.Second)
	if f.HasState(id) {
		t.Fatal("member never concluded failure")
	}
	if len(notices) != 1 || notices[0].Reason != ReasonRepairTimeout {
		t.Fatalf("notices = %v, want one %s", notices, ReasonRepairTimeout)
	}
}

func TestGroupIDStringAndZero(t *testing.T) {
	var zero GroupID
	if !zero.IsZero() {
		t.Fatal("zero not zero")
	}
	id := GroupID{Root: ref("r"), Num: 0xbeef}
	if id.IsZero() {
		t.Fatal("non-zero reported zero")
	}
	if id.String() != "r/beef" {
		t.Fatalf("String = %q", id.String())
	}
}

func TestConfigScale(t *testing.T) {
	c := DefaultConfig().Scale(0.5)
	if c.MemberRepairTimeout != 30*time.Second {
		t.Fatalf("scaled member timeout = %v", c.MemberRepairTimeout)
	}
	if c.RootRepairTimeout != time.Minute {
		t.Fatalf("scaled root timeout = %v", c.RootRepairTimeout)
	}
}
