package core

// The per-link index against its specification. linkState keeps a link's
// group IDs sorted in place and hashes them from one buffer; the
// reference below is the way it used to be done - collect the set, sort
// it, feed SHA-1 three writes per ID - and must agree byte for byte,
// because the hash is what two neighbours compare on every ping.

import (
	"bytes"
	"crypto/sha1"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
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

// refHashGroupIDs is hashGroupIDs as first written: a streaming SHA-1 fed
// name, separator and little-endian counter per ID.
func refHashGroupIDs(ids []GroupID) []byte {
	if len(ids) == 0 {
		return nil
	}
	h := sha1.New()
	for _, id := range ids {
		h.Write([]byte(id.Root.Name))
		h.Write([]byte{0})
		var num [8]byte
		for i := 0; i < 8; i++ {
			num[i] = byte(id.Num >> (8 * i))
		}
		h.Write(num[:])
	}
	return h.Sum(nil)
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

func TestHashGroupIDsMatchesReference(t *testing.T) {
	if h := hashGroupIDs([]GroupID{}); h != nil {
		t.Fatalf("empty set hashes to %x, want nil", h)
	}
	rng := rand.New(rand.NewSource(7))
	// Sizes on both sides of the stack buffer, names of every length
	// from empty up.
	for _, n := range []int{1, 2, 3, 17, 100, 400, 5000} {
		ids := make([]GroupID, n)
		for i := range ids {
			name := make([]byte, rng.Intn(40))
			rng.Read(name)
			ids[i] = GroupID{Root: ref(string(name)), Num: rng.Uint64()}
		}
		if got, want := hashGroupIDs(ids), refHashGroupIDs(ids); !bytes.Equal(got, want) {
			t.Fatalf("%d ids: hash %x, reference %x", n, got, want)
		}
	}
}

// TestLinkIndexMatchesReference drives one linkState through random
// attach and detach calls - repeats of a present ID, removals of an absent
// one, IDs alike in name and counter but rooted at different addresses,
// drains to empty and refills - and checks after every step that the
// list is in hash order, holds exactly the reference set, and hashes to
// the reference's bytes.
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
		ls := &linkState{}
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
				ls.attach(id)
				set[id] = true
			} else {
				ls.detach(id)
				delete(set, id)
			}

			want := refLinkIDs(set)
			if len(ls.sorted) != len(want) {
				fail(step, "index holds %d ids, reference %d", len(ls.sorted), len(want))
			}
			for i, id := range ls.sorted {
				if !set[id] {
					fail(step, "index holds %v, reference does not", id)
				}
				if i > 0 && compareIDs(ls.sorted[i-1], id) > 0 {
					fail(step, "out of order at %d: %v before %v", i, ls.sorted[i-1], id)
				}
				if i > 0 && ls.sorted[i-1] == id {
					fail(step, "%v held twice", id)
				}
			}
			if got, wantHash := ls.linkHash(), refHashGroupIDs(want); !bytes.Equal(got, wantHash) {
				fail(step, "hash %x, reference %x", got, wantHash)
			}
		}
	}
}

// TestLinkIndexChangeAllocatesOnlyTheDigest pins what a membership change
// followed by a ping costs on a link already carrying 100 groups: the
// list is edited in place and the hash input fits the stack buffer, so
// the only allocation is the 20-byte digest that outlives the call.
func TestLinkIndexChangeAllocatesOnlyTheDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	ls := &linkState{}
	for i := 0; i < 100; i++ {
		ls.attach(GroupID{Root: ref(fmt.Sprintf("n%03d.example.org", i%10)), Num: uint64(i)})
	}
	extra := GroupID{Root: ref("n005.example.org"), Num: 1 << 40}
	ls.attach(extra) // grow the list once, outside the measurement
	ls.detach(extra)
	settled := append([]byte(nil), ls.linkHash()...)

	allocs := testing.AllocsPerRun(100, func() {
		ls.attach(extra)
		if len(ls.linkHash()) != sha1.Size {
			t.Fatal("no hash for a non-empty link")
		}
		ls.detach(extra)
	})
	if allocs != 1 {
		t.Fatalf("attach + linkHash + detach allocates %.1f/op, want 1 (the digest)", allocs)
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
	causes := map[string]func(f *Fuse, env *fakeEnv, peer overlay.NodeRef){
		"timeout": func(f *Fuse, env *fakeEnv, peer overlay.NodeRef) {
			env.advance(f.cfg.CheckTimeout + time.Second)
		},
		"neighbor-down": func(f *Fuse, env *fakeEnv, peer overlay.NodeRef) {
			f.OnNeighborDown(peer)
		},
		"reconcile": func(f *Fuse, env *fakeEnv, peer overlay.NodeRef) {
			env.advance(f.cfg.GracePeriod + time.Second)
			f.handleGroupLists(&msgGroupLists{From: peer, IsReply: true})
		},
	}
	for name, kill := range causes {
		t.Run(name, func(t *testing.T) {
			f, env := newFakeFuse("d")
			peer, other := ref("peer"), ref("other")
			ids := []GroupID{
				{Root: ref("r"), Num: 1},
				{Root: ref("r"), Num: 2},
				{Root: overlay.NodeRef{Name: "r", Addr: "elsewhere"}, Num: 2},
				{Root: ref("s"), Num: 1},
			}
			notices := make(map[GroupID]int)
			for _, id := range ids {
				f.members[id] = &memberState{id: id, root: id.Root}
				f.RegisterFailureHandler(func(n Notice) { notices[n.ID]++ }, id)
				f.addTreeLink(id, 0, peer)
				f.addTreeLink(id, 0, other)
			}
			ls := f.links[peer.Addr]
			timer := ls.timer.(*fakeTimer)

			kill(f, env, peer)

			softs, repairs := make(map[GroupID]int), make(map[GroupID]int)
			for _, s := range env.sent {
				switch m := s.msg.(type) {
				case *msgSoftNotification:
					if s.to == other.Addr {
						softs[m.ID]++
					}
				case *msgNeedRepair:
					repairs[m.ID]++
				}
			}
			env.advance(f.cfg.MemberRepairTimeout + time.Second)
			for _, id := range ids {
				if softs[id] != 1 || repairs[id] != 1 || notices[id] != 1 {
					t.Errorf("group %v: %d soft notifications to its other link, %d repair requests, %d notices; want 1 each",
						id, softs[id], repairs[id], notices[id])
				}
				if _, ok := f.checking[id]; ok {
					t.Errorf("group %v still has checking state", id)
				}
			}
			if len(f.links) != 0 {
				t.Errorf("%d link index entries survive, want 0", len(f.links))
			}
			if len(ls.sorted) != 0 {
				t.Errorf("dead link still lists %v", ls.sorted)
			}
			if !timer.stopped && !timer.fired {
				t.Error("the dead link's deadline is still armed")
			}
		})
	}
}
