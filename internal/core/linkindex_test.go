package core

// The per-link index against its specification. linkState keeps a link's
// groups' records sorted in place by ID and their piggyback as a running
// sum, one digest added or subtracted per change; the reference below
// starts over every time - collect the set, sort it, digest every ID with
// a streaming SHA-1 and add the lanes up - and must agree byte for byte,
// because the hash is what two neighbours compare on every ping.

import (
	"bytes"
	"crypto/sha1"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

var linkSeed = flag.Int64("link.seed", 0, "run the link index property test on this one seed")

// linkRuns counts runs of the property test in this process, so each of
// go test -count=N's repetitions draws seeds of its own.
var linkRuns atomic.Int64

func linkSeeds() []int64 {
	if *linkSeed != 0 {
		return []int64{*linkSeed}
	}
	base := linkRuns.Add(1) * 1000
	return []int64{base + 1, base + 2, base + 3}
}

// refDigestID is one ID's digest the long way round: a streaming SHA-1
// fed name, separator and little-endian counter, its 20 bytes read as
// five little-endian words.
func refDigestID(id GroupID) (d [5]uint32) {
	h := sha1.New()
	h.Write([]byte(id.Root.Name))
	h.Write([]byte{0})
	var num [8]byte
	for i := 0; i < 8; i++ {
		num[i] = byte(id.Num >> (8 * i))
	}
	h.Write(num[:])
	sum := h.Sum(nil)
	for k := range d {
		d[k] = uint32(sum[4*k]) | uint32(sum[4*k+1])<<8 | uint32(sum[4*k+2])<<16 | uint32(sum[4*k+3])<<24
	}
	return d
}

// refHashGroupIDs is the piggyback from scratch: digest every ID of the
// set and add the lanes, each mod 2^32. An empty set has no payload.
func refHashGroupIDs(ids []GroupID) []byte {
	if len(ids) == 0 {
		return nil
	}
	var sum [5]uint32
	for _, id := range ids {
		for k, lane := range refDigestID(id) {
			sum[k] += lane
		}
	}
	out := make([]byte, 0, sha1.Size)
	for _, lane := range sum {
		out = append(out, byte(lane), byte(lane>>8), byte(lane>>16), byte(lane>>24))
	}
	return out
}

// refLinkIDs rebuilds a link's ID list from its membership set the old
// way: collect, then sort by (root name, counter).
func refLinkIDs(set map[GroupID]bool) []GroupID {
	ids := make([]GroupID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Root.Name != ids[j].Root.Name {
			return ids[i].Root.Name < ids[j].Root.Name
		}
		return ids[i].Num < ids[j].Num
	})
	return ids
}

// TestRunningSumMatchesFromScratchFold grows a link one ID at a time to
// sizes from one ID to thousands, names of every length from empty up,
// and compares the sum kept along the way with the fold over everything
// attached so far - after every step while that is cheap, every 250th on
// the way to 5,000.
func TestRunningSumMatchesFromScratchFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 17, 100, 400, 5000} {
		ls := &linkState{}
		ids := make([]GroupID, n)
		for i := range ids {
			name := make([]byte, rng.Intn(40))
			rng.Read(name)
			ids[i] = GroupID{Root: ref(string(name)), Num: rng.Uint64()}
			ls.attach(&groupState{id: ids[i]})
			if n > 400 && (i+1)%250 != 0 {
				continue
			}
			if got, want := ls.linkHash(), refHashGroupIDs(ids[:i+1]); !bytes.Equal(got, want) {
				t.Fatalf("%d of %d ids: running sum %x, from scratch %x", i+1, n, got, want)
			}
		}
	}
}

// TestDigestIDLongName: digestID builds its input in a 128-byte stack
// buffer; a name that does not fit beside the separator and the counter
// must digest as the streaming reference does.
func TestDigestIDLongName(t *testing.T) {
	for _, n := range []int{0, 1, 118, 119, 120, 127, 128, 129, 1000} {
		id := GroupID{Root: ref(strings.Repeat("n", n)), Num: 1<<63 + uint64(n)}
		if got, want := digestID(id), refDigestID(id); got != want {
			t.Errorf("name of %d bytes: digest %x, reference %x", n, got, want)
		}
	}
}

// TestPayloadInFlightKeepsItsBytes: the overlay holds the slice
// PingPayload returned while the ping is in flight, so a group joining
// or leaving the link meanwhile must get a slice of its own.
func TestPayloadInFlightKeepsItsBytes(t *testing.T) {
	f, _ := newFakeFuse("d")
	peer := ref("peer")
	first, second := GroupID{Root: ref("r"), Num: 1}, GroupID{Root: ref("r"), Num: 2}
	f.addTreeLink(first, 0, peer)
	inFlight := f.PingPayload(peer)
	want := append([]byte(nil), inFlight...)

	f.addTreeLink(second, 0, peer)
	grown := f.PingPayload(peer)
	if bytes.Equal(grown, want) {
		t.Fatal("a second group left the payload as it was")
	}
	if !bytes.Equal(inFlight, want) {
		t.Fatalf("attach rewrote a payload in flight: %x, was %x", inFlight, want)
	}
	f.dropChecking(second)
	if got := f.PingPayload(peer); !bytes.Equal(got, want) {
		t.Fatalf("payload after attach + detach %x, before %x", got, want)
	}
	if !bytes.Equal(inFlight, want) || bytes.Equal(grown, want) {
		t.Fatal("detach rewrote a payload in flight")
	}
}

// TestLinkDrainAndRefill: the last group leaving a link deletes its index
// entry and the link carries no payload; the same groups coming back in
// another order give the 20 bytes they gave before. Then the arithmetic
// on its own: 10^5 random attach and detach steps on one linkState leave
// the sum where a fold over the survivors puts it, and draining those
// leaves it at zero.
func TestLinkDrainAndRefill(t *testing.T) {
	f, _ := newFakeFuse("d")
	peer := ref("peer")
	ids := make([]GroupID, 50)
	for i := range ids {
		ids[i] = GroupID{Root: ref(fmt.Sprintf("n%d", i%7)), Num: uint64(i / 7)}
		f.addTreeLink(ids[i], 0, peer)
	}
	full := append([]byte(nil), f.PingPayload(peer)...)
	for _, id := range ids {
		f.dropChecking(id)
	}
	if f.linkAt(0, peer.Addr) != nil || len(indexEntries(f)) != 0 {
		t.Fatal("drained link keeps its index entry")
	}
	if p := f.PingPayload(peer); p != nil {
		t.Fatalf("drained link carries payload %x", p)
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		f.addTreeLink(id, 0, peer)
	}
	if got := f.PingPayload(peer); !bytes.Equal(got, full) {
		t.Fatalf("refilled link hashes to %x, was %x", got, full)
	}

	ls := &linkState{}
	set := make(map[GroupID]bool)
	for step := 0; step < 100000; step++ {
		id := GroupID{Root: overlay.NodeRef{Name: fmt.Sprintf("n%d", rng.Intn(5)), Addr: transport.Addr(rune('x' + rng.Intn(2)))}, Num: uint64(rng.Intn(20))}
		if rng.Intn(2) == 0 {
			ls.attach(&groupState{id: id})
			set[id] = true
		} else {
			ls.detach(id)
			delete(set, id)
		}
	}
	if got, want := ls.linkHash(), refHashGroupIDs(refLinkIDs(set)); !bytes.Equal(got, want) {
		t.Fatalf("after 10^5 steps: running sum %x, from scratch %x", got, want)
	}
	for id := range set {
		ls.detach(id)
	}
	if ls.sum != [5]uint32{} || ls.linkHash() != nil {
		t.Fatalf("drained link: sum %x, payload %x; want zero and nil", ls.sum, ls.linkHash())
	}
}

// TestLinkIndexMatchesReference drives one link's index entry through
// random attach and detach calls - repeats of a present ID, removals of an
// absent one, IDs alike in name and counter but rooted at different
// addresses, drains to empty and refills - and checks after every step
// that the list is in index order, holds exactly the reference set, that
// the sum kept along the way is the reference's from-scratch fold, and
// that the list and the records point at each other. The test keeps the
// node's checking records as addTreeLink and dropChecking would: a group
// attached gets a record with a tree link on the entry, and loses it when
// detached.
func TestLinkIndexMatchesReference(t *testing.T) {
	for _, seed := range linkSeeds() {
		rng := rand.New(rand.NewSource(seed))
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (-link.seed=%d) step %d: %s", seed, seed, step, fmt.Sprintf(format, args...))
		}
		// A small universe, so that repeats, absences and (name, counter)
		// collisions across the three addresses all happen often.
		var universe []GroupID
		for _, name := range []string{"", "a", "ab", "b"} {
			for _, addr := range []transport.Addr{"x", "y", "z"} {
				for num := uint64(0); num < 4; num++ {
					universe = append(universe, GroupID{Root: overlay.NodeRef{Name: name, Addr: addr}, Num: num})
				}
			}
		}
		f, _ := newFakeFuse("d")
		ls := f.linkFor(ref("peer"))
		set := make(map[GroupID]bool)
		filling := true
		for step := 0; step < 4000; step++ {
			// Lean towards attach until full, then towards detach until
			// empty, so every run crosses both ends several times.
			if len(set) == 0 {
				filling = true
			} else if len(set) == len(universe) {
				filling = false
			}
			id := universe[rng.Intn(len(universe))]
			if (rng.Intn(4) != 0) == filling {
				g := f.record(id)
				if g.links == nil {
					g.links = []treeLink{{ls: ls}}
				}
				ls.attach(g)
				set[id] = true
			} else {
				ls.detach(id)
				if g := f.lookup(id); g != nil {
					f.remove(g)
				}
				delete(set, id)
			}

			want := refLinkIDs(set)
			if len(ls.sorted) != len(want) {
				fail(step, "index holds %d ids, reference %d", len(ls.sorted), len(want))
			}
			for i, cs := range ls.sorted {
				if !set[cs.id] {
					fail(step, "index holds %v, reference does not", cs.id)
				}
				if i > 0 && compareIDs(ls.sorted[i-1].id, cs.id) > 0 {
					fail(step, "out of order at %d: %v before %v", i, ls.sorted[i-1].id, cs.id)
				}
				if i > 0 && ls.sorted[i-1].id == cs.id {
					fail(step, "%v held twice", cs.id)
				}
			}
			if err := indexPointsAtRecords(f); err != nil {
				fail(step, "%v", err)
			}
			if got, wantHash := ls.linkHash(), refHashGroupIDs(want); !bytes.Equal(got, wantHash) {
				fail(step, "running sum %x, from scratch %x", got, wantHash)
			}
		}
	}
}

// leafOnlyPeers returns n refs (n at most 16) whose names' first
// numeric-ID digit differs from self's, so AssembleStatic over self's
// node and any of their nodes wires them all into its leaf sets (8 a
// side) and none into its rings, which it leaves as they were: self's
// tables then hold exactly the peers last assembled with it.
func leafOnlyPeers(self string, n int) []overlay.NodeRef {
	first := func(name string) byte { return overlay.DigitsOf(name, 8, 1)[0] }
	var out []overlay.NodeRef
	for i := 0; len(out) < n; i++ {
		if name := fmt.Sprintf("p%d", i); first(name) != first(self) {
			out = append(out, ref(name))
		}
	}
	return out
}

// assembleWith rewires d's overlay tables to hold exactly the nodes of
// ovs, leafOnlyPeers' peers, whose in is set, and checks that they do.
func assembleWith(t *testing.T, d *overlay.Node, ovs []*overlay.Node, in []bool) {
	t.Helper()
	nodes := []*overlay.Node{d}
	want := 0
	for i, ov := range ovs {
		if in[i] {
			nodes = append(nodes, ov)
			want++
		}
	}
	overlay.AssembleStatic(nodes)
	got := d.Neighbors()
	for i, ov := range ovs {
		if held := d.LinkID(ov.Self().Addr) != 0; held != in[i] {
			t.Fatalf("%s in d's link table: %v, want %v", ov.Self().Name, held, in[i])
		}
	}
	if len(got) != want {
		t.Fatalf("d's tables hold %v, want %d peers", got, want)
	}
}

// TestLinkSlotsMatchAddressMap holds the per-link index - entries in
// slots by the overlay's link id, a strangers map beside them - to the
// address map it replaced. A real overlay node plays the link table:
// each step may bring a peer into its tables or take one out, so ids
// are opened, closed and reused, lowest first, for other addresses.
// Groups' checking trees cross links and leave them, and now and then the
// node crashes: a fresh Fuse on the same overlay node recovers its
// groups from the store while the link table keeps its ids. The test's
// reference is a map by address: the groups riding each link, and the
// entry made when the first of them arrived. After every step, for
// every peer, the entry found by address (the overlay's scan, then
// strangers) and by the overlay's id for the link must be the
// reference's - none included - with the reference's groups and hash on
// both payload paths, in the slot of that id or, with no id, among
// strangers, and the index must hold nothing else.
func TestLinkSlotsMatchAddressMap(t *testing.T) {
	for _, seed := range linkSeeds() {
		rng := rand.New(rand.NewSource(seed))
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (-link.seed=%d) step %d: %s", seed, seed, step, fmt.Sprintf(format, args...))
		}
		net := transporttest.NewNet()
		env := net.NewEnv("addr-d", 1)
		d := overlay.New(env, overlay.DefaultConfig(), "d")
		f := New(env, d, 1)
		peers := leafOnlyPeers("d", 10)
		ovs := make([]*overlay.Node, len(peers))
		for i, p := range peers {
			ovs[i] = overlay.New(net.NewEnv(p.Addr, int64(i+2)), overlay.DefaultConfig(), p.Name)
		}
		in := make([]bool, len(peers))
		var groups []GroupID
		for i := 0; i < 6; i++ {
			groups = append(groups, GroupID{Root: peers[i%3], Num: uint64(i)})
		}
		store := NewMemStore()
		for _, id := range groups[:2] {
			store.SaveGroup(GroupRecord{ID: id, Seq: 1})
		}
		riding := make(map[transport.Addr]map[GroupID]bool) // the reference: groups on each link
		entry := make(map[transport.Addr]*linkState)        // and the entry they share
		var closedFull, reopened, reused, crashes int
		lastHolder := make(map[uint32]transport.Addr)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 6: // a peer enters d's tables, or leaves them
				i := rng.Intn(len(peers))
				addr := peers[i].Addr
				before := d.LinkID(addr)
				in[i] = !in[i]
				assembleWith(t, d, ovs, in)
				switch id := d.LinkID(addr); {
				case before != 0 && entry[addr] != nil:
					closedFull++
				case id != 0 && entry[addr] != nil:
					reopened++
				}
				if id := d.LinkID(addr); id != 0 {
					if last, ok := lastHolder[id]; ok && last != addr {
						reused++
					}
					lastHolder[id] = addr
				}
			case op < 12: // a group's checking tree crosses a link
				id, nb := groups[rng.Intn(len(groups))], peers[rng.Intn(len(peers))]
				f.addTreeLink(id, 1, nb)
				if riding[nb.Addr] == nil {
					riding[nb.Addr] = make(map[GroupID]bool)
					entry[nb.Addr] = f.linkAt(0, nb.Addr)
				}
				riding[nb.Addr][id] = true
			case op < 19: // a group's checking state goes, from every link
				id := groups[rng.Intn(len(groups))]
				f.dropChecking(id)
				for addr, set := range riding {
					if delete(set, id); len(set) == 0 {
						delete(riding, addr)
						delete(entry, addr)
					}
				}
			default: // crash and recover, the link table left as it was
				f = New(env, d, 1)
				f.SetPersistence(store)
				f.Recover()
				clear(riding)
				clear(entry)
				crashes++
			}

			if err := indexPointsAtRecords(f); err != nil {
				fail(step, "%v", err)
			}
			if n := len(indexEntries(f)); n != len(entry) {
				fail(step, "the index holds %d entries, the reference %d", n, len(entry))
			}
			for _, nb := range peers {
				want, id := entry[nb.Addr], d.LinkID(nb.Addr)
				if got := f.linkAt(0, nb.Addr); got != want {
					fail(step, "link to %s: by address %p, reference %p", nb.Name, got, want)
				}
				if id != 0 {
					if got := f.linkAt(id, nb.Addr); got != want {
						fail(step, "link %d to %s: by id %p, reference %p", id, nb.Name, got, want)
					}
				}
				if got := f.strangers[nb.Addr]; id == 0 && got != want || id != 0 && got != nil {
					fail(step, "link to %s: overlay id %d, stranger entry %p, reference %p", nb.Name, id, got, want)
				}
				ids := refLinkIDs(riding[nb.Addr])
				if want != nil && !slices.Equal(want.snapshot(), ids) {
					fail(step, "link to %s lists %v, reference %v", nb.Name, want.snapshot(), ids)
				}
				hash := refHashGroupIDs(ids)
				for _, link := range []uint32{id, 0} {
					if got := f.LinkPayload(link, nb); !bytes.Equal(got, hash) {
						fail(step, "link %d to %s: payload %x, reference %x", link, nb.Name, got, hash)
					}
				}
			}
		}
		if closedFull < 50 || reopened < 50 || reused < 50 || crashes < 50 {
			fail(3000, "only %d closes of a link groups rode, %d reopenings, %d ids reused and %d crashes; the sequence exercised too little",
				closedFull, reopened, reused, crashes)
		}
	}
}

// hashPinger is the overlay client of a peer that monitors one link's
// groups the way d does but never judges them: every ping it sends
// carries hash, and nothing it hears moves it.
type hashPinger struct{ hash []byte }

func (hashPinger) OnRouteMessage(transport.Message, overlay.RouteInfo) {}
func (c hashPinger) LinkPayload(uint32, overlay.NodeRef) []byte        { return c.hash }
func (hashPinger) OnLinkPayload(uint32, overlay.NodeRef, []byte)       {}
func (hashPinger) OnNeighborDown(overlay.NodeRef)                      {}
func (hashPinger) OnNeighborUp(uint32, overlay.NodeRef)                {}
func (hashPinger) OnLinkClosed(uint32, overlay.NodeRef)                {}

// TestStrangerKeepsItsEntryAcrossSlots plays a link's life outside the
// overlay's tables on transporttest, every message delivered the instant
// it leaves. d monitors a group across its link to p, and p's pings carry
// the group's hash. Then p leaves d's tables - d stops pinging it and
// closes its link id - while p, whose tables still hold d, keeps pinging.
// Those pings reach d with no id, and must keep refreshing the link's
// shared deadline: the group outlives four CheckTimeouts with no
// link-timeout and no reconciliation. When p enters d's tables again, in
// a slot other than its first, the entry that carried the group must sit
// in that slot, deadline and all, and serve the ping paths by id.
func TestStrangerKeepsItsEntryAcrossSlots(t *testing.T) {
	net := transporttest.NewNet()
	d := addNode(net, "d", 1)
	peers := leafOnlyPeers("d", 3)
	id := GroupID{Root: d.self, Num: 1}
	var ovs []*overlay.Node
	for i, nb := range peers {
		env := net.NewEnv(nb.Addr, int64(i+2))
		ov := overlay.New(env, overlay.DefaultConfig(), nb.Name)
		env.Handler = func(from transport.Addr, msg transport.Message) { ov.Handle(from, msg) }
		ovs = append(ovs, ov)
	}
	p := peers[0]
	ovs[0].SetClient(hashPinger{[]byte(hashOf(id))})
	var softs, lists int
	net.OnSend = func(s transporttest.Send) {
		switch s.Msg.(type) {
		case *msgSoftNotification:
			softs++
		case *msgGroupLists:
			lists++
		}
	}
	// run fires every timer at its own instant for span of virtual time.
	run := func(span time.Duration) {
		end := d.env.Elapsed() + span
		for {
			deliverAll(net)
			ts := net.Timers()
			if len(ts) == 0 || ts[0].At() > end {
				net.RunTo(end)
				return
			}
			net.RunTo(ts[0].At())
		}
	}

	assembleWith(t, d.ov, ovs, []bool{true, false, false})
	d.addTreeLink(id, 1, p)
	first := d.ov.LinkID(p.Addr)
	ls := d.linkAt(first, p.Addr)
	if ls == nil || ls.slot != first || d.linkAt(0, p.Addr) != ls {
		t.Fatalf("p's entry is not in the slot of link %d: %+v", first, ls)
	}
	run(checkTimeout)

	// p leaves d's tables; another peer enters them first, so p's id is
	// not simply handed back when it returns.
	assembleWith(t, d.ov, ovs, []bool{false, true, false})
	if d.strangers[p.Addr] != ls || ls.slot != 0 || d.linkAt(first, p.Addr) == ls {
		t.Fatalf("closing p's link did not move its entry to strangers: %v", d.strangers)
	}
	timer := ls.timer.(*transporttest.Timer)
	deadline := timer.At()
	run(4 * checkTimeout)
	if !timer.Pending() || timer.At() < deadline+3*checkTimeout {
		t.Fatalf("p's pings did not keep the shared deadline moving: %v, was %v", timer.At(), deadline)
	}
	if checking(d, id) == nil || d.strangers[p.Addr] != ls {
		t.Fatalf("the group did not outlive p's absence from d's tables: %v, strangers %v", d.LiveGroups(), d.strangers)
	}

	assembleWith(t, d.ov, ovs, []bool{false, true, true})
	assembleWith(t, d.ov, ovs, []bool{true, true, true})
	again := d.ov.LinkID(p.Addr)
	if again == first {
		t.Fatalf("p came back in its old slot %d; the test needs another", first)
	}
	if d.linkAt(again, p.Addr) != ls || ls.slot != again || len(d.strangers) != 0 || ls.timer != timer {
		t.Fatalf("p's entry did not move into the slot of link %d: slot %d, strangers %v", again, ls.slot, d.strangers)
	}
	run(4 * checkTimeout)
	if checking(d, id) == nil || d.linkAt(again, p.Addr) != ls || !timer.Pending() {
		t.Fatalf("the group did not survive p's return: %v", d.LiveGroups())
	}
	if softs != 0 || lists != 0 {
		t.Fatalf("%d soft notifications and %d group lists went out, want none", softs, lists)
	}
}

// TestLinkIndexChangeAllocatesOnlyTheDigest pins what a membership change
// followed by a ping costs on a link already carrying 100 groups, or
// 400: the list is edited in place and one ID's hash input fits the
// stack buffer, so the only allocation is the 20-byte digest that
// outlives the call.
func TestLinkIndexChangeAllocatesOnlyTheDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	for _, n := range []int{100, 400} {
		changeAllocatesOnlyTheDigest(t, n)
	}
}

func changeAllocatesOnlyTheDigest(t *testing.T, n int) {
	ls := &linkState{}
	for i := 0; i < n; i++ {
		ls.attach(&groupState{id: GroupID{Root: ref(fmt.Sprintf("n%03d.example.org", i%10)), Num: uint64(i)}})
	}
	extra := &groupState{id: GroupID{Root: ref("n005.example.org"), Num: 1 << 40}}
	ls.attach(extra) // grow the list once, outside the measurement
	ls.detach(extra.id)
	settled := append([]byte(nil), ls.linkHash()...)

	allocs := testing.AllocsPerRun(100, func() {
		ls.attach(extra)
		if len(ls.linkHash()) != sha1.Size {
			t.Fatal("no hash for a non-empty link")
		}
		ls.detach(extra.id)
	})
	if allocs != 1 {
		t.Fatalf("%d groups: attach + linkHash + detach allocates %.1f/op, want 1 (the digest)", n, allocs)
	}
	if !bytes.Equal(ls.linkHash(), settled) {
		t.Fatal("hash after attach + detach differs from the hash before")
	}
}

// TestLinkDeathTearsDownEveryGroupOnce is the test a teardown loop walking
// the live list (instead of a snapshot) fails: four groups ride one link,
// each with a second link elsewhere; the link times out, or the overlay
// reports the neighbour dead, or the neighbour's list disowns them all.
// Every group must fail exactly once - one soft notification down its
// other link, one repair request from this node as its member, and (the
// root staying silent) one notice to the application - and the link's
// index entry and its deadline must be gone.
func TestLinkDeathTearsDownEveryGroupOnce(t *testing.T) {
	causes := map[string]func(f *Fuse, net *transporttest.Net, peer overlay.NodeRef){
		"timeout": func(f *Fuse, net *transporttest.Net, peer overlay.NodeRef) {
			net.Advance(checkTimeout + time.Second)
		},
		"neighbor-down": func(f *Fuse, net *transporttest.Net, peer overlay.NodeRef) {
			f.OnNeighborDown(peer)
		},
		"reconcile": func(f *Fuse, net *transporttest.Net, peer overlay.NodeRef) {
			net.Advance(gracePeriod + time.Second)
			f.handleGroupLists(&msgGroupLists{From: peer, IsReply: true})
		},
	}
	for name, kill := range causes {
		t.Run(name, func(t *testing.T) {
			f, net := newFakeFuse("d")
			peer, other := ref("peer"), ref("other")
			ids := []GroupID{
				{Root: ref("r"), Num: 1},
				{Root: ref("r"), Num: 2},
				{Root: overlay.NodeRef{Name: "r", Addr: "elsewhere"}, Num: 2},
				{Root: ref("s"), Num: 1},
			}
			notices := make(map[GroupID]int)
			for _, id := range ids {
				asMember(f, id)
				f.RegisterFailureHandler(func(n Notice) { notices[n.ID]++ }, id)
				f.addTreeLink(id, 0, peer)
				f.addTreeLink(id, 0, other)
			}
			ls := f.linkAt(0, peer.Addr)
			timer := ls.timer.(*transporttest.Timer)

			kill(f, net, peer)

			softs, repairs := make(map[GroupID]int), make(map[GroupID]int)
			for _, s := range net.Sends() {
				switch m := s.Msg.(type) {
				case *msgSoftNotification:
					if s.To == other.Addr {
						softs[m.ID]++
					}
				case *msgNeedRepair:
					repairs[m.ID]++
				}
			}
			net.Advance(memberRepairTimeout + time.Second)
			for _, id := range ids {
				if softs[id] != 1 || repairs[id] != 1 || notices[id] != 1 {
					t.Errorf("group %v: %d soft notifications to its other link, %d repair requests, %d notices; want 1 each",
						id, softs[id], repairs[id], notices[id])
				}
				if checking(f, id) != nil {
					t.Errorf("group %v still has checking state", id)
				}
			}
			if n := len(indexEntries(f)); n != 0 {
				t.Errorf("%d link index entries survive, want 0", n)
			}
			if len(ls.sorted) != 0 {
				t.Errorf("dead link still lists %v", ls.snapshot())
			}
			if timer.Pending() {
				t.Error("the dead link's deadline is still armed")
			}
		})
	}
}

// TestCheckingStateBytes pins what a group's checking state costs one
// node: its record and tree links, its 16-byte slot in Fuse.groups, and
// its share of the lists of the links it rides. 20,000 groups are
// installed over 16 links, once as members with one tree link each and
// once as delegates with two, and the live heap is read, after a
// collection, before and after. The bounds sit about 15% above the
// readings on Go 1.24, amd64: 133 and 161 B.
func TestCheckingStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	const groups = 20000
	for _, c := range []struct {
		links int
		bound uint64
	}{{1, 153}, {2, 185}} {
		peers := make([]overlay.NodeRef, 16)
		for i := range peers {
			peers[i] = ref(fmt.Sprintf("n%02d", i))
		}
		ids := make([]GroupID, groups)
		for i := range ids {
			ids[i] = GroupID{Root: peers[i%len(peers)], Num: uint64(i)}
		}
		f, _ := newFakeFuse("d")
		before := liveHeap()
		for i, id := range ids {
			for k := 0; k < c.links; k++ {
				f.addTreeLink(id, 1, peers[(i+k)%len(peers)])
			}
		}
		after := liveHeap()
		if n := len(indexEntries(f)); numRecords(f) != groups || n != len(peers) {
			t.Fatalf("%d groups on %d links, want %d on %d", numRecords(f), n, groups, len(peers))
		}
		runtime.KeepAlive(ids)
		per := (after - before) / groups
		t.Logf("%d tree link(s) a group: %d B of checking state per group", c.links, per)
		if per > c.bound {
			t.Errorf("%d tree link(s) a group: %d B of checking state per group, bound %d", c.links, per, c.bound)
		}
	}
}

// liveHeap is the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
