package core

// Reconciliation against its specification. handleGroupLists walks the
// link's sorted list of records against the neighbour's ID list, in
// place; the reference below is the way it used to be done - the
// neighbour's list into a map, our own IDs copied before the first
// teardown, each looked up again - and the two must leave the node in the
// same state having sent the same messages in the same order.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

// refHandleGroupLists is handleGroupLists as first written.
func refHandleGroupLists(f *Fuse, m *msgGroupLists) {
	f.tm.reconciles.Inc(f.tm.lane)
	theirs := make(map[GroupID]bool, len(m.Entries))
	for _, e := range m.Entries {
		theirs[e.ID] = true
	}
	now := f.env.Elapsed()
	agreed := false
	var ours []GroupID
	if ls := f.linkAt(0, m.From.Addr); ls != nil {
		ours = ls.snapshot()
	}
	for _, id := range ours {
		g := f.lookup(id)
		if g == nil || g.link(m.From.Addr) == nil {
			continue // torn down earlier in this same pass
		}
		if theirs[id] {
			agreed = true
			continue
		}
		if now-g.link(m.From.Addr).installedAt < gracePeriod {
			continue
		}
		f.linkFailed(id, overlay.NodeRef{}, f.tm.lane.NewSpan())
	}
	if ls := f.linkAt(0, m.From.Addr); agreed && ls != nil {
		f.resetLinkTimer(ls)
	}
	if !m.IsReply {
		f.env.Send(m.From.Addr, &msgGroupLists{From: f.self, Entries: f.linkEntries(m.From.Addr), IsReply: true})
	}
}

// reconcileCase is one node's state on the link to "peer" and the list
// the peer sends about it.
type reconcileCase struct {
	ours []reconcileGroup
	msg  *msgGroupLists

	// alsoDies maps a group to one that goes down with it: while the
	// first is being torn down (as its repair request or soft
	// notification leaves), the second is torn down whole.
	alsoDies map[GroupID]GroupID
}

type reconcileGroup struct {
	id        GroupID
	seq       uint64
	young     bool // installed inside the grace period
	otherLink bool // the group's tree also crosses the link to "other"
}

// build puts a fresh node into the case's state and returns it ready for
// the peer's list: old groups installed, the grace period gone by, young
// groups installed, and a second gone by, so that a re-armed deadline
// differs from the one the link has.
func (c *reconcileCase) build() (*Fuse, *transporttest.Net) {
	f, net := newFakeFuse("d")
	install := func(young bool) {
		for _, g := range c.ours {
			if g.young != young {
				continue
			}
			asMember(f, g.id)
			f.addTreeLink(g.id, g.seq, ref("peer"))
			if g.otherLink {
				f.addTreeLink(g.id, g.seq, ref("other"))
			}
		}
	}
	install(false)
	net.Advance(gracePeriod + time.Second)
	install(true)
	net.Advance(time.Second)
	net.OnSend = func(s transporttest.Send) {
		var id GroupID
		switch m := s.Msg.(type) {
		case *msgNeedRepair:
			id = m.ID
		case *msgSoftNotification:
			id = m.ID
		}
		if victim, ok := c.alsoDies[id]; ok {
			f.teardown(victim)
		}
	}
	return f, net
}

// reconcileOutcome is everything a reconciliation may change or emit.
type reconcileOutcome struct {
	sent     []transporttest.Send             // every message, in order: teardowns show as repair requests and softs
	links    map[transport.Addr][]GroupID     // the per-link index
	deadline map[transport.Addr]time.Duration // each link's live CheckTimeout deadline
	checking map[GroupID][]outcomeLink
	members  int
}

// outcomeLink is a tree link by value: its neighbor's address, not a
// pointer into one node's index, so two nodes' links compare equal.
type outcomeLink struct {
	neighbor    transport.Addr
	installedAt time.Duration
}

// memberCount is the number of groups f is a member of.
func memberCount(f *Fuse) int {
	n := 0
	for g := range f.records() {
		if g.roles().member != nil {
			n++
		}
	}
	return n
}

func outcomeOf(f *Fuse, net *transporttest.Net) reconcileOutcome {
	o := reconcileOutcome{
		sent:     net.Sends(),
		links:    make(map[transport.Addr][]GroupID),
		deadline: make(map[transport.Addr]time.Duration),
		checking: make(map[GroupID][]outcomeLink),
		members:  memberCount(f),
	}
	for _, ls := range indexEntries(f) {
		addr := ls.neighbor.Addr
		o.links[addr] = ls.snapshot()
		if tm := ls.timer.(*transporttest.Timer); tm.Pending() {
			o.deadline[addr] = tm.At()
		}
	}
	for g := range f.records() {
		for _, l := range g.links {
			o.checking[g.id] = append(o.checking[g.id], outcomeLink{l.ls.neighbor.Addr, l.installedAt})
		}
	}
	return o
}

// randomReconcileCase draws IDs from a universe small enough that lists
// overlap, with IDs alike in name and counter rooted at two addresses.
func randomReconcileCase(rng *rand.Rand) *reconcileCase {
	var universe []GroupID
	for _, name := range []string{"", "a", "ab", "b"} {
		for _, addr := range []transport.Addr{"x", "y"} {
			for num := uint64(0); num < 3; num++ {
				universe = append(universe, GroupID{Root: overlay.NodeRef{Name: name, Addr: addr}, Num: num})
			}
		}
	}
	c := &reconcileCase{alsoDies: make(map[GroupID]GroupID)}
	pYoung := []int{0, 0, 4, 2}[rng.Intn(4)] // one in pYoung groups is young; 0: none
	for _, id := range universe {
		if rng.Intn(3) == 0 {
			continue
		}
		c.ours = append(c.ours, reconcileGroup{
			id:        id,
			seq:       uint64(rng.Intn(3)),
			young:     pYoung > 0 && rng.Intn(pYoung) == 0,
			otherLink: rng.Intn(2) == 0,
		})
	}
	rng.Shuffle(len(c.ours), func(i, j int) { c.ours[i], c.ours[j] = c.ours[j], c.ours[i] })

	// The peer's list, in the order a peer running this code sends it.
	mine := make([]GroupID, len(c.ours))
	for i, g := range c.ours {
		mine[i] = g.id
	}
	slices.SortStableFunc(mine, compareIDs)
	var theirs []GroupID
	switch shape := rng.Intn(7); shape {
	case 0: // agreeing
		theirs = mine
	case 1: // disjoint
		for _, id := range universe {
			if !slices.Contains(mine, id) {
				theirs = append(theirs, id)
			}
		}
	case 2: // empty
	case 3, 4: // off by one at either end
		theirs = mine
		if len(theirs) > 0 && shape == 3 {
			theirs = theirs[1:]
		} else if len(theirs) > 0 {
			theirs = theirs[:len(theirs)-1]
		}
	default: // any subset of the universe
		for _, id := range universe {
			if rng.Intn(2) == 0 {
				theirs = append(theirs, id)
			}
		}
	}
	entries := make([]listEntry, 0, len(theirs)+2)
	for _, id := range theirs {
		entries = append(entries, listEntry{ID: id, Seq: uint64(rng.Intn(3))})
	}
	if len(entries) > 0 && rng.Intn(4) == 0 { // duplicated entries, side by side or not
		for n := 1 + rng.Intn(2); n > 0; n-- {
			at := rng.Intn(len(entries))
			entries = slices.Insert(entries, at, entries[rng.Intn(len(entries))])
		}
	}
	if rng.Intn(4) == 0 { // a peer that sorts some other way, or not at all
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	}
	c.msg = &msgGroupLists{From: ref("peer"), Entries: entries, IsReply: rng.Intn(2) == 0}

	// Teardowns that take a later (or earlier, or the same) group of the
	// pass with them, agreed or not.
	if len(mine) > 1 && rng.Intn(2) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c.alsoDies[mine[rng.Intn(len(mine))]] = mine[rng.Intn(len(mine))]
		}
	}
	return c
}

// TestReconcileMatchesReference drives handleGroupLists and its reference
// over seeded random pairs of lists from identical starting states.
func TestReconcileMatchesReference(t *testing.T) {
	for _, seed := range linkSeeds() {
		rng := rand.New(rand.NewSource(seed))
		tornDown, rearmed := 0, 0
		for trial := 0; trial < 400; trial++ {
			c := randomReconcileCase(rng)
			sentBefore := slices.Clone(c.msg.Entries)

			f, net := c.build()
			start := len(net.Sends())
			before := f.linkAt(0, c.msg.From.Addr)
			var deadline time.Duration
			if before != nil {
				deadline = before.timer.(*transporttest.Timer).At()
			}
			f.handleGroupLists(c.msg)
			got := outcomeOf(f, net)

			rf, rnet := c.build()
			refHandleGroupLists(rf, c.msg)
			want := outcomeOf(rf, rnet)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (-link.seed=%d) trial %d:\nours %+v\ntheirs %+v\nalso dies %v\n got %s\nwant %s",
					seed, seed, trial, c.ours, c.msg, c.alsoDies, got, want)
			}
			if !reflect.DeepEqual(c.msg.Entries, sentBefore) {
				t.Fatalf("seed %d trial %d: the peer's message was reordered in place", seed, trial)
			}
			for _, s := range got.sent[start:] {
				if _, ok := s.Msg.(*msgNeedRepair); ok {
					tornDown++
				}
			}
			if d, ok := got.deadline[c.msg.From.Addr]; ok && d != deadline {
				rearmed++
			}
		}
		// The generator must reach both outcomes often, or agreement
		// between the two proves little.
		if tornDown < 400 || rearmed < 100 {
			t.Fatalf("seed %d: %d teardowns and %d re-armed deadlines in 400 trials: generator too tame", seed, tornDown, rearmed)
		}
	}
}

func (o reconcileOutcome) String() string {
	s := fmt.Sprintf("members=%d links=%v deadlines=%v checking=%v sent:", o.members, o.links, o.deadline, o.checking)
	for _, m := range o.sent {
		s += fmt.Sprintf("\n    -> %s %T%+v", m.To, m.Msg, m.Msg)
	}
	return s
}

// TestReconcileAgreeingListsAllocatesOnlyTheReply pins the walk: two
// agreeing 300-ID lists reconcile without a map of the neighbour's list or
// a copy of ours. Answering a probe allocates the reply and its entry
// list; handling a reply allocates nothing.
func TestReconcileAgreeingListsAllocatesOnlyTheReply(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	f, net := newFakeFuse("d")
	peer := ref("peer")
	for i := 0; i < 300; i++ {
		f.addTreeLink(GroupID{Root: ref(fmt.Sprintf("n%03d.example.org", i%10)), Num: uint64(i)}, 1, peer)
	}
	probe := &msgGroupLists{From: peer, Entries: f.linkEntries(peer.Addr)}
	reply := &msgGroupLists{From: peer, Entries: probe.Entries, IsReply: true}
	timer := f.linkAt(0, peer.Addr).timer.(*transporttest.Timer)

	net.Advance(time.Second)
	if allocs := testing.AllocsPerRun(100, func() { f.handleGroupLists(reply) }); allocs != 0 {
		t.Errorf("handling an agreeing reply allocates %.1f/op, want 0", allocs)
	}
	// Each reply is lost on its way (the peer is not on the Net), so the
	// pending sends do not pile up.
	if allocs := testing.AllocsPerRun(100, func() { f.handleGroupLists(probe); net.Deliver(0) }); allocs != 2 {
		t.Errorf("answering an agreeing probe allocates %.1f/op, want 2 (the reply and its entries)", allocs)
	}
	if want := f.env.Elapsed() + checkTimeout; timer.At() != want {
		t.Errorf("agreement left the link's deadline at %v, want %v", timer.At(), want)
	}
}
