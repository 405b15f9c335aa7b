package core

// White-box unit tests for protocol internals that the integration suite
// (fuse_test.go, package core_test) cannot reach directly: the piggyback
// hash, sequence-number guards, backoff arithmetic, and teardown
// bookkeeping. They run the FUSE layer on a transporttest.Net: a clock the
// test runs by hand, and sends held until the test delivers them.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

// newFakeFuse builds a FUSE layer on an isolated (neighborless) overlay
// node, alone on a new Net.
func newFakeFuse(name string) (*Fuse, *transporttest.Net) {
	net := transporttest.NewNet()
	env := net.NewEnv(transport.Addr("addr-"+name), 1)
	return New(env, overlay.New(env, overlay.DefaultConfig(), name), 1), net
}

// sentTo is the pending messages to addr, oldest first.
func sentTo(net *transporttest.Net, addr transport.Addr) []transport.Message {
	var out []transport.Message
	for _, s := range net.Sends() {
		if s.To == addr {
			out = append(out, s.Msg)
		}
	}
	return out
}

func ref(name string) overlay.NodeRef {
	return overlay.NodeRef{Name: name, Addr: transport.Addr("addr-" + name)}
}

// hashOf is the piggyback of a link holding ids, attached in that order.
func hashOf(ids ...GroupID) string {
	ls := &linkState{}
	for _, id := range ids {
		ls.attach(&groupState{id: id})
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

// checking is id's record if the node has checking state for it (a tree
// link), else nil.
func checking(f *Fuse, id GroupID) *groupState {
	if g := f.lookup(id); g != nil && len(g.links) > 0 {
		return g
	}
	return nil
}

// asMember gives f a member's role in id, as a create request does.
func asMember(f *Fuse, id GroupID) *groupState {
	g := f.withRole(id)
	g.role.member = new(memberState)
	return g
}

// asRoot gives f the root's role rs in id.
func asRoot(f *Fuse, id GroupID, rs *rootState) *groupState {
	g := f.withRole(id)
	g.role.root = rs
	return g
}

// indexEntries is every entry of the per-link index: the slots', in id
// order, then the strangers'.
func indexEntries(f *Fuse) []*linkState {
	var out []*linkState
	for _, ls := range f.slots {
		if ls != nil {
			out = append(out, ls)
		}
	}
	for _, ls := range f.strangers {
		out = append(out, ls)
	}
	return out
}

// numRecords is the number of records f holds.
func numRecords(f *Fuse) int { return len(f.groups) + len(f.clashes) }

// indexPointsAtRecords checks the pointers between the per-link index and
// the groups' records: every record a link's list holds is the very
// record lookup returns for its ID and has a tree link on that list's
// entry, and every tree link's entry is the one the index holds for the
// entry's neighbor and lists the record. It checks where each entry
// sits: in the slot of the id the overlay has open for its neighbor,
// among strangers under its neighbor's address if the overlay has none.
// It also checks the records themselves: each sits in exactly one of
// groups and clashes, filed under its own counter or ID, lookup returns
// it for its ID, none is empty (no role, no creation and no tree link),
// and one without tree links has generation 0.
func indexPointsAtRecords(f *Fuse) error {
	for i, ls := range f.slots {
		if ls == nil {
			continue
		}
		if id := f.ov.LinkID(ls.neighbor.Addr); ls.slot != uint32(i+1) || id != ls.slot {
			return fmt.Errorf("slot %d holds the entry for %s, which says slot %d; the overlay's id is %d", i+1, ls.neighbor.Addr, ls.slot, id)
		}
	}
	for addr, ls := range f.strangers {
		if ls.neighbor.Addr != addr || ls.slot != 0 {
			return fmt.Errorf("strangers[%s] is the entry for %s in slot %d", addr, ls.neighbor.Addr, ls.slot)
		}
		if id := f.ov.LinkID(addr); id != 0 {
			return fmt.Errorf("%s's entry is among strangers, but the overlay has link %d to it", addr, id)
		}
	}
	for _, ls := range indexEntries(f) {
		addr := ls.neighbor.Addr
		for _, g := range ls.sorted {
			if f.lookup(g.id) != g {
				return fmt.Errorf("link %s lists a record for %v that is not the one lookup returns", addr, g.id)
			}
			if !slices.ContainsFunc(g.links, func(l treeLink) bool { return l.ls == ls }) {
				return fmt.Errorf("link %s lists %v, whose tree links do not include it", addr, g.id)
			}
		}
	}
	for k, g := range f.groups {
		if g.id.Num != k {
			return fmt.Errorf("groups[%x] is the record for %v", k, g.id)
		}
		if _, ok := f.clashes[g.id]; ok {
			return fmt.Errorf("%v has a record in groups and one in clashes", g.id)
		}
	}
	for id, g := range f.clashes {
		if g.id != id {
			return fmt.Errorf("clashes[%v] is the record for %v", id, g.id)
		}
	}
	for g := range f.records() {
		id := g.id
		if f.lookup(id) != g {
			return fmt.Errorf("lookup(%v) does not return the record filed for it", id)
		}
		if r := g.roles(); r.creating == nil && r.root == nil && r.member == nil && len(g.links) == 0 {
			return fmt.Errorf("%v's record is empty: no role, no creation, no tree link", id)
		}
		if len(g.links) == 0 && g.seq != 0 {
			return fmt.Errorf("%v's record has no tree link but generation %d", id, g.seq)
		}
		for _, l := range g.links {
			if addr := l.ls.neighbor.Addr; f.linkAt(0, addr) != l.ls {
				return fmt.Errorf("%v's tree link to %s points at an entry the index does not hold", id, addr)
			}
			if _, ok := l.ls.find(id); !ok {
				return fmt.Errorf("%v's tree link to %s is not on its entry's list", id, l.ls.neighbor.Addr)
			}
		}
	}
	return nil
}

// TestLinkHashCacheCoherence drives the per-link index through random
// sequences of addTreeLink / dropChecking / seq bumps and checks, after
// every step, that the running piggyback hash for every link equals a
// from-scratch fold over the groups actually crossing it - the invariant
// PingPayload serves from - and that the index and the records point at
// each other (indexPointsAtRecords).
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
		for g := range f.records() {
			if g.link(addr) != nil {
				on = append(on, g.id)
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
			if g := checking(f, id); g != nil {
				g.seq++
			}
		}
		if err := indexPointsAtRecords(f); err != nil {
			t.Fatalf("step %d: %v", step, err)
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
	for g := range f.records() {
		pairs += len(g.links)
	}
	indexed := 0
	for _, ls := range indexEntries(f) {
		if len(ls.sorted) == 0 {
			t.Fatalf("empty linkState for %s survived", ls.neighbor.Addr)
		}
		indexed += len(ls.sorted)
	}
	if indexed != pairs {
		t.Fatalf("index holds %d pairs, the records hold %d", indexed, pairs)
	}
}

// TestInstallsDoNotPostponeLinkFailure pins the shared deadline's arming
// rule: installing new groups on a link is not liveness evidence for the
// neighbor, so a steady stream of installs (faster than CheckTimeout)
// must not postpone failure detection for groups already riding the
// link. Only a matching-hash ping or reconciliation agreement re-arms.
func TestInstallsDoNotPostponeLinkFailure(t *testing.T) {
	f, net := newFakeFuse("d")
	peer := ref("peer")
	first := GroupID{Root: ref("r"), Num: 1}
	f.addTreeLink(first, 0, peer)
	// The neighbor never refreshes the link, but installs keep arriving
	// well inside CheckTimeout.
	for i := 0; i < 10; i++ {
		net.Advance(checkTimeout / 4)
		f.addTreeLink(GroupID{Root: ref("r"), Num: uint64(i + 2)}, 0, peer)
	}
	if checking(f, first) != nil {
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
	f, net := newFakeFuse("d")
	peer := ref("peer")
	first := GroupID{Root: ref("r"), Num: 1}
	late := GroupID{Root: ref("r"), Num: 2}
	f.addTreeLink(first, 0, peer)
	net.Advance(2 * checkTimeout / 3)
	f.addTreeLink(late, 0, peer)
	net.Advance(checkTimeout/3 + time.Second)
	if checking(f, late) != nil {
		t.Fatal("late group outlived the shared deadline: waited more than a full CheckTimeout past its install")
	}

	// Worst case: the deadline is re-armed by a ping just before the
	// install, so the late group rides almost the entire shared window -
	// still alive one step short of install + CheckTimeout, gone at it.
	f, net = newFakeFuse("d")
	f.addTreeLink(first, 0, peer)
	net.Advance(checkTimeout / 2)
	f.OnPingPayload(peer, f.PingPayload(peer)) // liveness evidence re-arms
	net.Advance(time.Second)
	f.addTreeLink(late, 0, peer) // then the link goes quiet
	net.Advance(checkTimeout - 2*time.Second)
	if checking(f, late) == nil {
		t.Fatal("late group torn down before the shared deadline it inherited")
	}
	net.Advance(2 * time.Second)
	if checking(f, late) != nil {
		t.Fatal("quiet link left the late group past install + CheckTimeout")
	}
	if checking(f, first) != nil {
		t.Fatal("quiet link left the first group checking")
	}
}

// TestSharedLinkTimerCoversAllGroups pins the timer collapse: many groups
// over one link share a single deadline, one ping refresh re-arms them
// all, and expiry fails every group on the link.
func TestSharedLinkTimerCoversAllGroups(t *testing.T) {
	f, net := newFakeFuse("d")
	peer := ref("peer")
	const n = 20
	for i := 0; i < n; i++ {
		f.addTreeLink(GroupID{Root: ref("r"), Num: uint64(i + 1)}, 0, peer)
	}
	if got := len(net.Timers()); got != 1 {
		t.Fatalf("%d live timers for %d groups on one link, want 1", got, n)
	}
	// A matching-hash ping refreshes the shared deadline.
	net.Advance(checkTimeout / 2)
	f.OnPingPayload(peer, f.PingPayload(peer))
	net.Advance(checkTimeout/2 + time.Second)
	if numRecords(f) != n {
		t.Fatalf("refresh did not cover all groups: %d of %d survive", numRecords(f), n)
	}
	// Expiry fails every group riding the link.
	net.Advance(checkTimeout)
	if numRecords(f) != 0 {
		t.Fatalf("%d groups survived link timeout", numRecords(f))
	}
	if len(indexEntries(f)) != 0 {
		t.Fatal("link index entry survived timeout")
	}
}

func TestRepairBackoffDoublesAndCaps(t *testing.T) {
	f, net := newFakeFuse("root")
	rs := &rootState{
		members: []overlay.NodeRef{ref("m1")},
		backoff: backoffInitial,
	}
	g := asRoot(f, GroupID{Root: f.self, Num: 1}, rs)

	want := backoffInitial
	for i := 0; i < 8; i++ {
		f.startRepair(g)
		want *= 2
		if want > backoffCap {
			want = backoffCap
		}
		if rs.backoff != want {
			t.Fatalf("attempt %d: backoff = %v, want %v", i, rs.backoff, want)
		}
		// Clear the in-flight attempt so the next one is allowed, and
		// move past the backoff window.
		rs.repairPending = nil
		net.Advance(backoffCap + time.Second)
	}
	if rs.backoff != backoffCap {
		t.Fatalf("backoff %v never capped at %v", rs.backoff, backoffCap)
	}
}

func TestScheduleRepairHonorsBackoffWindow(t *testing.T) {
	f, net := newFakeFuse("root")
	rs := &rootState{
		members: []overlay.NodeRef{ref("m1")},
		backoff: backoffInitial,
	}
	g := asRoot(f, GroupID{Root: f.self, Num: 2}, rs)
	f.startRepair(g)
	first := len(sentTo(net, ref("m1").Addr))
	if first == 0 {
		t.Fatal("no repair request sent")
	}
	rs.repairPending = nil
	// Immediately re-scheduling must defer: the backoff window is open.
	f.scheduleRepair(g)
	if got := len(sentTo(net, ref("m1").Addr)); got != first {
		t.Fatalf("repair ran inside the backoff window (%d -> %d sends)", first, got)
	}
	if rs.backoffTimer == nil {
		t.Fatal("no deferred repair scheduled")
	}
	net.Advance(backoffCap + time.Second)
	if got := len(sentTo(net, ref("m1").Addr)); got <= first {
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
	if checking(f, id) == nil {
		t.Fatal("stale soft notification tore down current-generation state")
	}
	// A current-generation soft does.
	f.handleSoft(&msgSoftNotification{ID: id, Seq: 5, From: ref("n1")})
	if checking(f, id) != nil {
		t.Fatal("current soft notification ignored")
	}
}

func TestSoftNotificationForwardsToOtherLinksOnly(t *testing.T) {
	f, net := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 4}
	f.addTreeLink(id, 0, ref("up"))
	f.addTreeLink(id, 0, ref("down"))
	f.handleSoft(&msgSoftNotification{ID: id, Seq: 0, From: ref("up")})
	if got := sentTo(net, ref("up").Addr); len(got) != 0 {
		t.Fatalf("soft echoed back to its sender: %v", got)
	}
	fwd := sentTo(net, ref("down").Addr)
	if len(fwd) != 1 {
		t.Fatalf("forwarded %d messages to the other link, want 1", len(fwd))
	}
	if _, ok := fwd[0].(*msgSoftNotification); !ok {
		t.Fatalf("forwarded %T, want msgSoftNotification", fwd[0])
	}
}

func TestReconciliationGracePeriodProtectsFreshLinks(t *testing.T) {
	f, net := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 5}
	f.addTreeLink(id, 0, ref("peer"))
	// The peer's list does not mention the group, but the link is
	// younger than the grace period: state must survive.
	f.handleGroupLists(&msgGroupLists{From: ref("peer"), IsReply: true})
	if checking(f, id) == nil {
		t.Fatal("grace period did not protect a fresh link")
	}
	// Past the grace period the same disagreement kills the link.
	net.Advance(gracePeriod + time.Second)
	f.handleGroupLists(&msgGroupLists{From: ref("peer"), IsReply: true})
	if checking(f, id) != nil {
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
	f, net := newFakeFuse("d")
	peer := ref("peer")
	agreedID := GroupID{Root: ref("r"), Num: 21}
	freshID := GroupID{Root: ref("r"), Num: 22}
	f.addTreeLink(agreedID, 1, peer)
	net.Advance(gracePeriod + time.Second) // agreedID is old
	f.addTreeLink(freshID, 0, peer)

	lists := &msgGroupLists{From: peer, Entries: []listEntry{{ID: agreedID, Seq: 1}}, IsReply: true}
	f.handleGroupLists(lists)
	if checking(f, freshID) == nil {
		t.Fatal("grace period did not protect the fresh group on a shared link")
	}
	if checking(f, agreedID) == nil {
		t.Fatal("agreed group was dropped")
	}
	// Agreement re-armed the shared deadline: nothing may expire before
	// another full CheckTimeout.
	net.Advance(checkTimeout - time.Second)
	if checking(f, agreedID) == nil {
		t.Fatal("shared deadline was not refreshed by reconciliation agreement")
	}
	// Past the grace period, the same disagreement kills only the fresh
	// group; the agreed one keeps riding the link.
	f.handleGroupLists(lists)
	if checking(f, freshID) != nil {
		t.Fatal("reconciliation did not fail the disagreed group after grace")
	}
	if checking(f, agreedID) == nil {
		t.Fatal("failing the disagreed group tore down the agreed one")
	}
	if ls := f.linkAt(0, peer.Addr); ls == nil || len(ls.sorted) != 1 {
		t.Fatalf("link index out of sync after partial teardown: %+v", ls)
	}
}

func TestReconciliationAgreementResetsTimers(t *testing.T) {
	f, net := newFakeFuse("d")
	id := GroupID{Root: ref("r"), Num: 6}
	f.addTreeLink(id, 2, ref("peer"))
	net.Advance(gracePeriod + time.Second)
	f.handleGroupLists(&msgGroupLists{
		From:    ref("peer"),
		Entries: []listEntry{{ID: id, Seq: 2}},
		IsReply: true,
	})
	if checking(f, id) == nil {
		t.Fatal("agreed link was dropped")
	}
	// And a non-reply triggers exactly one reply back.
	f.handleGroupLists(&msgGroupLists{
		From:    ref("peer"),
		Entries: []listEntry{{ID: id, Seq: 2}},
		IsReply: false,
	})
	replies := 0
	for _, m := range sentTo(net, ref("peer").Addr) {
		if gl, ok := m.(*msgGroupLists); ok && gl.IsReply {
			replies++
		}
	}
	if replies != 1 {
		t.Fatalf("%d reconciliation replies, want 1 (no ping-pong)", replies)
	}
}

func TestTeardownStopsEveryTimer(t *testing.T) {
	f, net := newFakeFuse("n")
	id := GroupID{Root: ref("r"), Num: 7}
	g := asMember(f, id)
	f.addTreeLink(id, 0, ref("a"))
	f.addTreeLink(id, 0, ref("b"))
	f.memberNeedsRepair(g)
	f.teardown(id)
	if f.HasState(id) {
		t.Fatal("state survives teardown")
	}
	if live := len(net.Timers()); live != 0 {
		t.Fatalf("%d timers still pending after teardown", live)
	}
}

func TestLiveGroupsDeduplicatesRoles(t *testing.T) {
	f, _ := newFakeFuse("n")
	id := GroupID{Root: f.self, Num: 8}
	asRoot(f, id, new(rootState))
	f.addTreeLink(id, 0, ref("a"))
	if got := f.LiveGroups(); len(got) != 1 {
		t.Fatalf("LiveGroups = %v, want one entry", got)
	}
}

func TestSignalFailureOnUnknownGroupIsNoop(t *testing.T) {
	f, net := newFakeFuse("n")
	f.SignalFailure(GroupID{Root: ref("r"), Num: 9})
	if sent := net.Sends(); len(sent) != 0 {
		t.Fatalf("unknown-group signal sent %v", sent)
	}
}

func TestMemberRepairTimerNotExtendedByRepeatedFailures(t *testing.T) {
	f, net := newFakeFuse("m")
	id := GroupID{Root: ref("r"), Num: 10}
	g := asMember(f, id)
	ms := g.role.member
	var notices []Notice
	f.RegisterFailureHandler(func(n Notice) { notices = append(notices, n) }, id)
	f.memberNeedsRepair(g)
	first := ms.repairTimer
	net.Advance(memberRepairTimeout / 2)
	f.memberNeedsRepair(g) // second local failure: must not re-arm
	if ms.repairTimer != first {
		t.Fatal("repeated failure extended the member's deadline")
	}
	if len(notices) != 0 {
		t.Fatalf("notices before the deadline: %v", notices)
	}
	net.Advance(memberRepairTimeout/2 + time.Second)
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

// TestConfigScale: a node built at time scale 0.5 arms its repair timers
// and its backoff window at half the paper's values.
func TestConfigScale(t *testing.T) {
	env := transporttest.NewNet().NewEnv("addr-r", 1)
	f := New(env, overlay.New(env, overlay.DefaultConfig(), "r"), 0.5)
	mg := asMember(f, GroupID{Root: ref("s"), Num: 1})
	ms := mg.role.member
	f.memberNeedsRepair(mg)
	rs := &rootState{members: []overlay.NodeRef{ref("m")}}
	f.startRepair(asRoot(f, GroupID{Root: f.self, Num: 2}, rs))
	for name, c := range map[string]struct{ got, want time.Duration }{
		"member repair timer": {ms.repairTimer.(*transporttest.Timer).At() - env.Elapsed(), 30 * time.Second},
		"root repair timer":   {rs.repairTimer.(*transporttest.Timer).At() - env.Elapsed(), time.Minute},
		"backoff window":      {rs.backoffUntil - env.Elapsed(), time.Second},
	} {
		if c.got != c.want {
			t.Errorf("%s armed for %v, want %v", name, c.got, c.want)
		}
	}
}

// TestRecoverWindowProbesNewNeighbours pins the post-Recover window: a
// neighbour coming up is sent one unsolicited GroupLists probe while the
// window is open, CheckTimeout from the Recover, and nothing before any
// Recover or once the window has closed.
func TestRecoverWindowProbesNewNeighbours(t *testing.T) {
	f, net := newFakeFuse("r")
	f.SetPersistence(NewMemStore())
	net.Advance(time.Minute)
	f.OnNeighborUp(1, ref("before"))
	if got := sentTo(net, "addr-before"); len(got) != 0 {
		t.Fatalf("a neighbour up before any Recover was sent %v", got)
	}

	f.Recover()
	net.Advance(checkTimeout - time.Nanosecond)
	f.OnNeighborUp(2, ref("inside"))
	got := sentTo(net, "addr-inside")
	if len(got) != 1 {
		t.Fatalf("a neighbour up 1ns before the window closes was sent %v, want one probe", got)
	}
	if m, ok := got[0].(*msgGroupLists); !ok || m.IsReply {
		t.Fatalf("sent %#v, want an unsolicited msgGroupLists", got[0])
	}

	net.Advance(time.Nanosecond)
	f.OnNeighborUp(3, ref("after"))
	if got := sentTo(net, "addr-after"); len(got) != 0 {
		t.Fatalf("a neighbour up as the window closes was sent %v", got)
	}
}

// TestPaperParameters pins each timing constant to the value its comment
// cites, and the invariant checkTimeout states: a link's check deadline
// outlasts a full overlay ping cycle (interval plus timeout) at the
// paper's scale and at the scales live nodes run at.
func TestPaperParameters(t *testing.T) {
	for name, c := range map[string]struct{ got, want time.Duration }{
		"createTimeout":       {createTimeout, 30 * time.Second},
		"installTimeout":      {installTimeout, 30 * time.Second},
		"checkTimeout":        {checkTimeout, 90 * time.Second},
		"memberRepairTimeout": {memberRepairTimeout, time.Minute},
		"rootRepairTimeout":   {rootRepairTimeout, 2 * time.Minute},
		"gracePeriod":         {gracePeriod, 5 * time.Second},
		"backoffInitial":      {backoffInitial, 2 * time.Second},
		"backoffCap":          {backoffCap, 40 * time.Second},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", name, c.got, c.want)
		}
	}
	for _, scale := range []float64{1, 0.05, 0.02} {
		env := transporttest.NewNet().NewEnv("addr-p", 1)
		ping := overlay.DefaultConfig().Scale(scale)
		f := New(env, overlay.New(env, ping, "p"), scale)
		if check := f.scaled(checkTimeout); check <= ping.PingInterval+ping.PingTimeout {
			t.Errorf("scale %v: check timeout %v does not outlast a ping cycle of %v + %v",
				scale, check, ping.PingInterval, ping.PingTimeout)
		}
	}
}
