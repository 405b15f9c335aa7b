package core

// Counter clashes. A node files its records by the counter a group's root
// draws at random, and a record whose counter another record already
// holds by its full ID, among clashes. The case is two roots that draw
// one counter: the tests below give two nodes the same random source so
// that their first groups share a counter, and check that every path a
// group takes through a node - create, install, signal, teardown, a
// delegate's dropChecking - finds its own record and leaves the other's
// alone, whichever of the two is torn down first.

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

// clashState is what a node shows of its groups: whether it holds each of
// the given IDs, its LiveGroups, and its CheckingStats.
type clashState struct {
	has                   []bool
	live                  []GroupID
	groups, pairs, timers int
}

func stateOf(f *Fuse, ids ...GroupID) clashState {
	s := clashState{live: f.LiveGroups()}
	for _, id := range ids {
		s.has = append(s.has, f.HasState(id))
	}
	s.groups, s.pairs, s.timers = f.CheckingStats()
	return s
}

func (s clashState) String() string {
	return fmt.Sprintf("has %v, live %v, checking %d groups, %d pairs, %d timers", s.has, s.live, s.groups, s.pairs, s.timers)
}

// TestCounterClashKeepsGroupsApart: nodes a and b, on one random source,
// each create a group over a, b and c, so the two groups share a counter
// under different roots and every node holds both. Each is signalled in
// turn, in either order, and after every step each node holds exactly
// the groups still alive, lists them in order, and counts their checking
// state; each handler fires once.
func TestCounterClashKeepsGroupsApart(t *testing.T) {
	for _, first := range []string{"a", "b"} {
		t.Run(first+"-first", func(t *testing.T) {
			net := transporttest.NewNet()
			a, b, c := addNode(net, "a", 1), addNode(net, "b", 1), addNode(net, "c", 3)
			nodes := []*Fuse{a, b, c}
			overlay.AssembleStatic([]*overlay.Node{a.ov, b.ov, c.ov})
			all := []overlay.NodeRef{a.self, b.self, c.self}
			ids := map[string]GroupID{}
			for _, root := range []*Fuse{a, b} {
				root.CreateGroup(all, func(id GroupID, err error) {
					if err != nil {
						t.Fatalf("create at %s: %v", root.self.Name, err)
					}
					ids[root.self.Name] = id
				})
			}
			deliverAll(net)
			x, y := ids["a"], ids["b"]
			if x.IsZero() || y.IsZero() || x.Num != y.Num {
				t.Fatalf("groups %v and %v: want two created groups that share a counter", x, y)
			}
			heard := map[string]int{}
			for _, f := range nodes {
				for _, id := range []GroupID{x, y} {
					f.RegisterFailureHandler(func(Notice) { heard[f.self.Name+" "+id.Root.Name]++ }, id)
				}
			}
			check := func(when string, want map[string]clashState) {
				t.Helper()
				for _, f := range nodes {
					if err := indexPointsAtRecords(f); err != nil {
						t.Fatalf("%s, %s: %v", when, f.self.Name, err)
					}
					if got := stateOf(f, x, y); got.String() != want[f.self.Name].String() {
						t.Errorf("%s, %s: %v, want %v", when, f.self.Name, got, want[f.self.Name])
					}
				}
			}
			// A root monitors a link to each member, a member the link to
			// the root: with every node a neighbor of every other, each
			// install goes straight to the root.
			check("both created", map[string]clashState{
				"a": {[]bool{true, true}, []GroupID{x, y}, 2, 3, 2},
				"b": {[]bool{true, true}, []GroupID{x, y}, 2, 3, 2},
				"c": {[]bool{true, true}, []GroupID{x, y}, 2, 2, 2},
			})
			for _, f := range nodes {
				if len(f.clashes) != 1 {
					t.Fatalf("%s files %d records among clashes, want 1", f.self.Name, len(f.clashes))
				}
			}

			// The group first signalled is signalled by its root, the
			// other by the member c.
			gone, left, goneRoot, leftRoot := x, y, a, b
			if first == "b" {
				gone, left, goneRoot, leftRoot = y, x, b, a
			}
			goneRoot.SignalFailure(gone)
			deliverAll(net)
			has := []bool{gone == y, gone == x}
			want := map[string]clashState{}
			for _, f := range nodes {
				want[f.self.Name] = clashState{has, []GroupID{left}, 1, 1, 1}
			}
			want[leftRoot.self.Name] = clashState{has, []GroupID{left}, 1, 2, 2}
			check(gone.Root.Name+"'s group signalled", want)

			c.SignalFailure(left)
			deliverAll(net)
			none := clashState{has: []bool{false, false}}
			check("both signalled", map[string]clashState{"a": none, "b": none, "c": none})
			for _, f := range nodes {
				for _, id := range []GroupID{x, y} {
					if n := heard[f.self.Name+" "+id.Root.Name]; n != 1 {
						t.Errorf("%s heard %s's group %d times, want 1", f.self.Name, id.Root.Name, n)
					}
				}
			}
		})
	}
}

// TestCounterClashDelegateDrop: a delegate on the trees of two groups
// that share a counter drops one group's checking state on its soft
// notification and keeps the other's, whichever is dropped first.
func TestCounterClashDelegateDrop(t *testing.T) {
	x, y := GroupID{Root: ref("r1"), Num: 7}, GroupID{Root: ref("r2"), Num: 7}
	for _, gone := range []GroupID{x, y} {
		t.Run(gone.Root.Name, func(t *testing.T) {
			f, net := newFakeFuse("d")
			next := map[GroupID]overlay.NodeRef{x: ref("q"), y: ref("s")}
			for _, id := range []GroupID{x, y} {
				f.OnRouteMessage(&msgInstallChecking{ID: id, Seq: 1, Member: ref("m")}, overlay.RouteInfo{Prev: ref("p"), Next: next[id]})
			}
			if err := indexPointsAtRecords(f); err != nil {
				t.Fatal(err)
			}
			if got, want := stateOf(f, x, y).String(), (clashState{[]bool{true, true}, []GroupID{x, y}, 2, 4, 3}).String(); got != want {
				t.Fatalf("both installed: %s, want %s", got, want)
			}
			f.handleSoft(&msgSoftNotification{ID: gone, Seq: 1, From: ref("p")})
			if err := indexPointsAtRecords(f); err != nil {
				t.Fatal(err)
			}
			left := x
			if gone == x {
				left = y
			}
			if got, want := stateOf(f, x, y).String(), (clashState{[]bool{left == x, left == y}, []GroupID{left}, 1, 2, 2}).String(); got != want {
				t.Fatalf("%v dropped: %s, want %s", gone, got, want)
			}
			if sent := sentTo(net, next[gone].Addr); len(sent) != 1 {
				t.Fatalf("%d messages to %s, want the one soft notification", len(sent), next[gone].Name)
			}
			if sent := sentTo(net, next[left].Addr); len(sent) != 0 {
				t.Fatalf("%v's next hop was sent %v", left, sent)
			}
		})
	}
}

// TestRecordsMatchReference drives a node's records through random
// installs, roles, drops and teardowns over IDs drawn from three names,
// two addresses and four counters, so that most records clash, against a
// map by full ID. After every step each ID's lookup is the record the
// reference holds for it (the same one since it was made), and
// LiveGroups, CheckingStats and the index agree.
func TestRecordsMatchReference(t *testing.T) {
	var universe []GroupID
	for _, name := range []string{"a", "b", "c"} {
		for _, addr := range []transport.Addr{"x", "y"} {
			for num := uint64(0); num < 4; num++ {
				universe = append(universe, GroupID{Root: overlay.NodeRef{Name: name, Addr: addr}, Num: num})
			}
		}
	}
	neighbors := []overlay.NodeRef{ref("n1"), ref("n2"), ref("n3")}
	for _, seed := range linkSeeds() {
		rng := rand.New(rand.NewSource(seed))
		f, _ := newFakeFuse("d")
		want := map[GroupID]*groupState{}
		orphans := 0 // steps with a clash whose counter no record in groups holds
		for step := 0; step < 3000; step++ {
			id := universe[rng.Intn(len(universe))]
			switch rng.Intn(5) {
			case 0, 1:
				f.addTreeLink(id, 1, neighbors[rng.Intn(len(neighbors))])
			case 2:
				asMember(f, id)
			case 3:
				f.dropChecking(id)
			case 4:
				f.teardown(id)
			}
			g := f.lookup(id)
			switch {
			case g == nil:
				delete(want, id)
			case want[id] == nil:
				want[id] = g
			case want[id] != g:
				t.Fatalf("seed %d step %d: %v's record was replaced", seed, step, id)
			}

			for _, u := range universe {
				if got := f.lookup(u); got != want[u] || f.HasState(u) != (want[u] != nil) {
					t.Fatalf("seed %d step %d: lookup(%v) = %p, reference %p", seed, step, u, got, want[u])
				}
			}
			if err := indexPointsAtRecords(f); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			live := slices.SortedFunc(maps.Keys(want), func(a, b GroupID) int {
				if c := compareIDs(a, b); c != 0 {
					return c
				}
				return cmp.Compare(a.Root.Addr, b.Root.Addr)
			})
			if got := f.LiveGroups(); !slices.Equal(got, live) {
				t.Fatalf("seed %d step %d: LiveGroups %v, reference %v", seed, step, got, live)
			}
			groups, pairs := 0, 0
			for _, g := range want {
				if len(g.links) > 0 {
					groups++
					pairs += len(g.links)
				}
			}
			if gotGroups, gotPairs, _ := f.CheckingStats(); gotGroups != groups || gotPairs != pairs {
				t.Fatalf("seed %d step %d: CheckingStats %d groups, %d pairs; reference %d, %d", seed, step, gotGroups, gotPairs, groups, pairs)
			}
			for id := range f.clashes {
				if f.groups[id.Num] == nil {
					orphans++
					break
				}
			}
		}
		if orphans == 0 {
			t.Fatalf("seed %d: no clash outlived the record holding its counter; the run exercised too little", seed)
		}
	}
}
