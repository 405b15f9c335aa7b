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
	if _, ok := f.links[peer.Addr]; ok {
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
				g := f.groups[id]
				if g == nil {
					g = &groupState{id: id, links: []treeLink{{ls: ls}}}
					f.groups[id] = g
				}
				ls.attach(g)
				set[id] = true
			} else {
				ls.detach(id)
				delete(f.groups, id)
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

// TestLinkByIDMatchesAddress holds the ping paths' lookup by link id to
// the address map it caches. The test plays the overlay: a link table
// whose slots are freed as neighbors leave and reused, lowest first, for
// other addresses, as syncPings does. Underneath, groups are attached to
// and detached from links until a link's index entry empties and is made
// again, and now and then the node crashes: a fresh Fuse recovers its
// groups from the store while the link table keeps its ids. After every
// step, every slot's id with its own address, and ids paired with some
// other address, 0 and out of range, must find exactly what f.links
// finds - none included - on both ping paths.
func TestLinkByIDMatchesAddress(t *testing.T) {
	for _, seed := range linkSeeds() {
		rng := rand.New(rand.NewSource(seed))
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (-link.seed=%d) step %d: %s", seed, seed, step, fmt.Sprintf(format, args...))
		}
		var peers []overlay.NodeRef
		for i := 0; i < 10; i++ {
			peers = append(peers, ref(fmt.Sprintf("p%d", i)))
		}
		var groups []GroupID
		for i := 0; i < 6; i++ {
			groups = append(groups, GroupID{Root: peers[i%3], Num: uint64(i)})
		}
		store := NewMemStore()
		for _, id := range groups[:2] {
			store.SaveGroup(GroupRecord{ID: id, Seq: 1})
		}
		f, _ := newFakeFuse("d")
		slots := []overlay.NodeRef{} // the link table: id i+1 in slot i, zero when free
		held := func(addr transport.Addr) bool {
			return slices.ContainsFunc(slots, func(r overlay.NodeRef) bool { return r.Addr == addr })
		}
		made, crashes := 0, 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 4: // a neighbor leaves the tables, freeing its slot
				if i := rng.Intn(len(slots) + 1); i < len(slots) {
					slots[i] = overlay.NodeRef{}
				}
			case op < 8: // a neighbor enters, in the lowest free slot
				nb := peers[rng.Intn(len(peers))]
				if held(nb.Addr) {
					break
				}
				if i := slices.Index(slots, overlay.NodeRef{}); i >= 0 {
					slots[i] = nb
				} else {
					slots = append(slots, nb)
				}
			case op < 14: // a group's checking tree crosses a link
				nb := peers[rng.Intn(len(peers))]
				if f.links[nb.Addr] == nil {
					made++
				}
				f.addTreeLink(groups[rng.Intn(len(groups))], 1, nb)
			case op < 19: // a group's checking state goes, from every link
				f.dropChecking(groups[rng.Intn(len(groups))])
			default: // crash and recover, the link table left as it was
				f, _ = newFakeFuse("d")
				f.SetPersistence(store)
				f.Recover()
				crashes++
			}

			check := func(id uint32, nb overlay.NodeRef) {
				t.Helper()
				want := f.links[nb.Addr]
				if got := f.linkByID(id, nb.Addr); got != want {
					fail(step, "link %d to %s: by id %p, by address %p", id, nb.Name, got, want)
				}
				if got, want := f.LinkPayload(id, nb), f.PingPayload(nb); !bytes.Equal(got, want) {
					fail(step, "link %d to %s: payload by id %x, by address %x", id, nb.Name, got, want)
				}
			}
			for i, nb := range slots {
				if !nb.IsZero() {
					check(uint32(i+1), nb)
				}
			}
			for k := 0; k < 3; k++ {
				check(uint32(rng.Intn(len(slots)+3)), peers[rng.Intn(len(peers))])
			}
		}
		if made < 100 || crashes < 50 {
			fail(3000, "only %d index entries made and %d crashes; the sequence exercised too little", made, crashes)
		}
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
			ls := f.links[peer.Addr]
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
			if len(f.links) != 0 {
				t.Errorf("%d link index entries survive, want 0", len(f.links))
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
// node: its record and tree links, its f.groups entry, and its
// share of the lists of the links it rides. 20,000 groups are installed
// over 16 links, once as members with one tree link each and once as
// delegates with two, and the live heap is read, after a collection,
// before and after. The bounds sit about 15% above the readings on Go
// 1.24, amd64: 195 and 223 B.
func TestCheckingStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	const groups = 20000
	for _, c := range []struct {
		links int
		bound uint64
	}{{1, 225}, {2, 256}} {
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
		if len(f.groups) != groups || len(f.links) != len(peers) {
			t.Fatalf("%d groups on %d links, want %d on %d", len(f.groups), len(f.links), groups, len(peers))
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
