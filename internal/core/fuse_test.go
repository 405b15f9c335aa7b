package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
)

// notices tracks handler invocations per node for one group.
type notices struct {
	byNode map[int][]core.Notice
}

// register installs a counting handler for id on the given node indices.
func register(c *cluster.Cluster, id core.GroupID, idxs ...int) *notices {
	n := &notices{byNode: make(map[int][]core.Notice)}
	for _, i := range idxs {
		i := i
		c.Nodes[i].Fuse.RegisterFailureHandler(func(nt core.Notice) {
			n.byNode[i] = append(n.byNode[i], nt)
		}, id)
	}
	return n
}

func (n *notices) count(i int) int { return len(n.byNode[i]) }

// settle runs the simulation for d of virtual time.
func settle(c *cluster.Cluster, d time.Duration) { c.Sim.RunFor(d) }

func TestCreateGroupSucceeds(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 1})
	id, err := c.CreateGroup(0, 5, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	if id.Root.Name != c.Nodes[0].Ref().Name {
		t.Fatalf("root = %s", id.Root.Name)
	}
	for _, i := range []int{0, 5, 10, 15} {
		if !c.Nodes[i].Fuse.HasState(id) {
			t.Fatalf("node %d missing group state", i)
		}
	}
	// The group stays healthy across several ping intervals: no
	// spontaneous notification.
	n := register(c, id, 0, 5, 10, 15)
	settle(c, 10*time.Minute)
	for i, v := range n.byNode {
		if len(v) != 0 {
			t.Fatalf("false positive at node %d: %v", i, v)
		}
	}
}

func TestCreateGroupSingleton(t *testing.T) {
	c := cluster.New(cluster.Options{N: 4, Seed: 2})
	id, err := c.CreateGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Nodes[1].Fuse.HasState(id) {
		t.Fatal("missing singleton state")
	}
}

func TestCreateGroupDeduplicatesMembers(t *testing.T) {
	c := cluster.New(cluster.Options{N: 8, Seed: 3})
	id, err := c.CreateGroup(0, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Nodes[3].Fuse.HasState(id) {
		t.Fatal("member 3 missing state")
	}
}

func TestCreateGroupFailsWithDeadMember(t *testing.T) {
	c := cluster.New(cluster.Options{N: 16, Seed: 4})
	c.Crash(7)
	_, err := c.CreateGroup(0, 3, 7)
	if !errors.Is(err, core.ErrCreateTimeout) {
		t.Fatalf("err = %v, want create timeout", err)
	}
	// The member that did reply must hear a failure notification: its
	// state is gone, so a late registration fires immediately.
	settle(c, time.Minute)
	fired := false
	c.Nodes[3].Fuse.RegisterFailureHandler(func(core.Notice) { fired = true }, core.GroupID{Root: c.Nodes[0].Ref(), Num: 1})
	settle(c, time.Second)
	if !fired {
		t.Fatal("registration on unknown group did not fire immediately")
	}
	// And no orphaned state for any group anywhere.
	for i, n := range c.Nodes {
		if c.Crashed(i) {
			continue
		}
		if got := n.Fuse.LiveGroups(); len(got) != 0 {
			t.Fatalf("node %d retains orphaned state: %v", i, got)
		}
	}
}

func TestRegisterOnUnknownGroupFiresImmediately(t *testing.T) {
	c := cluster.New(cluster.Options{N: 4, Seed: 5})
	fired := 0
	bogus := core.GroupID{Root: c.Nodes[0].Ref(), Num: 42}
	c.Nodes[2].Fuse.RegisterFailureHandler(func(core.Notice) { fired++ }, bogus)
	settle(c, time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestSignalFailureFromMemberNotifiesEveryone(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 6})
	members := []int{0, 4, 9, 14, 19}
	id, err := c.CreateGroup(members[0], members[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, members...)
	c.Nodes[9].Fuse.SignalFailure(id)
	// Explicit notification is fast: no timeouts involved, only network
	// latency (paper measured a max of 1165 ms).
	settle(c, 30*time.Second)
	for _, i := range members {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times, want 1", i, n.count(i))
		}
	}
	settle(c, 10*time.Minute)
	for i, nd := range c.Nodes {
		if got := nd.Fuse.LiveGroups(); len(got) != 0 {
			t.Fatalf("node %d retains state after notification: %v", i, got)
		}
	}
}

func TestSignalFailureFromRootNotifiesEveryone(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 7})
	members := []int{2, 6, 11}
	id, err := c.CreateGroup(2, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, members...)
	c.Nodes[2].Fuse.SignalFailure(id)
	settle(c, 30*time.Second)
	for _, i := range members {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times, want 1", i, n.count(i))
		}
	}
}

func TestExactlyOnceUnderDuplicateSignals(t *testing.T) {
	c := cluster.New(cluster.Options{N: 16, Seed: 8})
	id, err := c.CreateGroup(0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 0, 3, 6)
	c.Nodes[3].Fuse.SignalFailure(id)
	c.Nodes[6].Fuse.SignalFailure(id)
	c.Nodes[0].Fuse.SignalFailure(id)
	settle(c, time.Minute)
	for _, i := range []int{0, 3, 6} {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times, want exactly 1", i, n.count(i))
		}
	}
}

func TestRootCrashNotifiesMembers(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 9})
	id, err := c.CreateGroup(0, 8, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 8, 16, 24)
	c.Crash(0)
	// Bound: ping interval (60s) + ping timeout (20s) to detect, then the
	// member repair timeout (60s), plus propagation. The paper's Figure 9
	// observes up to ~4 minutes end to end; allow that bound.
	settle(c, 4*time.Minute)
	for _, i := range []int{8, 16, 24} {
		if n.count(i) != 1 {
			t.Fatalf("member %d notified %d times after root crash", i, n.count(i))
		}
	}
}

func TestMemberCrashNotifiesRest(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 10})
	id, err := c.CreateGroup(1, 5, 9, 13)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 1, 5, 13)
	c.Crash(9)
	// Bound per the paper: ping detection (up to 80s) + root repair
	// timeout (2 min) + fan-out.
	settle(c, 5*time.Minute)
	for _, i := range []int{1, 5, 13} {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times after member crash", i, n.count(i))
		}
	}
	for i, nd := range c.Nodes {
		if c.Crashed(i) {
			continue
		}
		if got := nd.Fuse.LiveGroups(); len(got) != 0 {
			t.Fatalf("node %d retains state: %v", i, got)
		}
	}
}

// TestDelegateCrashCausesRepairNotFailure reproduces the paper's §7.6
// observation: "delegate failures never led to a false positive".
func TestDelegateCrashCausesRepairNotFailure(t *testing.T) {
	c := cluster.New(cluster.Options{N: 64, Seed: 11})
	members := []int{0, 20, 40, 60}
	id, err := c.CreateGroup(0, 20, 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, members...)

	// Find a pure delegate: a node with checking state that is neither
	// root nor member.
	isMember := map[int]bool{0: true, 20: true, 40: true, 60: true}
	delegate := -1
	for i, nd := range c.Nodes {
		if isMember[i] {
			continue
		}
		if nd.Fuse.HasState(id) {
			delegate = i
			break
		}
	}
	if delegate < 0 {
		t.Skip("no delegate on overlay paths for this seed")
	}
	c.Crash(delegate)
	settle(c, 10*time.Minute)
	for _, i := range members {
		if n.count(i) != 0 {
			t.Fatalf("false positive: node %d notified %v after delegate crash", i, n.byNode[i])
		}
	}
	// The group must still work: an explicit signal reaches everyone.
	c.Nodes[40].Fuse.SignalFailure(id)
	settle(c, time.Minute)
	for _, i := range members {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times after signal", i, n.count(i))
		}
	}
}

func TestPartitionNotifiesBothSides(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 12})
	id, err := c.CreateGroup(0, 6, 12, 18)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 0, 6, 12, 18)
	// Partition {root side: 0..11} vs {12..23}.
	var a, b []int
	for i := 0; i < 24; i++ {
		if i < 12 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	partition(c, a, b)
	settle(c, 6*time.Minute)
	for _, i := range []int{0, 6, 12, 18} {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times under partition, want 1", i, n.count(i))
		}
	}
}

// partition blocks all traffic across the cut, in both directions.
func partition(c *cluster.Cluster, a, b []int) {
	for _, x := range a {
		for _, y := range b {
			c.Net.BlockBoth(c.Nodes[x].Addr, c.Nodes[y].Addr)
		}
	}
}

func TestIntransitiveFailureHandledByFailOnSend(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 13})
	id, err := c.CreateGroup(0, 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 0, 7, 14)
	// Break direct connectivity between the two non-root members only.
	// FUSE does not monitor that application path, so nothing happens
	// automatically (§3.4).
	c.Net.BlockBoth(c.Nodes[7].Addr, c.Nodes[14].Addr)
	settle(c, 5*time.Minute)
	total := n.count(0) + n.count(7) + n.count(14)
	if total != 0 {
		t.Fatalf("unexpected automatic notification under intransitive failure: %v", n.byNode)
	}
	// The application notices on send and signals explicitly; everyone
	// must hear, including across the broken pair.
	c.Nodes[7].Fuse.SignalFailure(id)
	settle(c, time.Minute)
	for _, i := range []int{0, 7, 14} {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times after fail-on-send", i, n.count(i))
		}
	}
}

func TestSteadyStateLoadIndependentOfGroups(t *testing.T) {
	measure := func(groups int) uint64 {
		c := cluster.New(cluster.Options{N: 40, Seed: 14})
		rng := rand.New(rand.NewSource(77))
		for g := 0; g < groups; g++ {
			root := rng.Intn(40)
			m1, m2 := rng.Intn(40), rng.Intn(40)
			if _, err := c.CreateGroup(root, m1, m2); err != nil {
				t.Fatal(err)
			}
		}
		// Let creation traffic drain, then measure a long idle window.
		settle(c, 5*time.Minute)
		base := c.Net.Sent()
		settle(c, 30*time.Minute)
		return c.Net.Sent() - base
	}
	without := measure(0)
	with := measure(40)
	if without == 0 {
		t.Fatal("no background traffic")
	}
	// Paper: 337 vs 338 msgs/sec - group liveness checking rides the
	// overlay pings, so idle-group load is the same. Allow 3% slack for
	// scheduling boundary effects.
	diff := float64(with) - float64(without)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(without) > 0.03 {
		t.Fatalf("steady-state load differs: %d vs %d messages", without, with)
	}
}

func TestCrashRecoveryReconciliation(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 15})
	id, err := c.CreateGroup(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	n := register(c, id, 0, 20)
	// Member 10 crashes and recovers quickly with no memory of the
	// group (no stable storage, §3.6).
	c.Crash(10)
	settle(c, 5*time.Second)
	c.Restart(10, c.Nodes[0].Ref())
	// Within at most a failure-detection cycle plus repair the
	// disagreement must surface: node 10 answers repair probes with
	// "unknown group", which yields a HardNotification.
	settle(c, 6*time.Minute)
	for _, i := range []int{0, 20} {
		if n.count(i) != 1 {
			t.Fatalf("node %d notified %d times after member recovery", i, n.count(i))
		}
	}
	if got := c.Nodes[10].Fuse.LiveGroups(); len(got) != 0 {
		t.Fatalf("recovered node acquired state: %v", got)
	}
}

// TestOneWayAgreementProperty is the headline property test: under a
// randomized fault schedule (node crashes at random virtual times), every
// group ends in one of exactly two global states - alive at all live
// members, or notified exactly once at every live member that held it.
func TestOneWayAgreementProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			seed := int64(1000 + trial)
			rng := rand.New(rand.NewSource(seed))
			c := cluster.New(cluster.Options{N: 40, Seed: seed})

			// Create 6 random groups of 3-6 members.
			type groupRec struct {
				id      core.GroupID
				members []int
				n       *notices
			}
			var groups []groupRec
			for g := 0; g < 6; g++ {
				size := 3 + rng.Intn(4)
				perm := rng.Perm(40)[:size]
				id, err := c.CreateGroup(perm[0], perm[1:]...)
				if err != nil {
					t.Fatal(err)
				}
				groups = append(groups, groupRec{id: id, members: perm, n: register(c, id, perm...)})
			}

			// Crash 1-5 random nodes at random times in the first 3
			// minutes.
			crashes := 1 + rng.Intn(5)
			for k := 0; k < crashes; k++ {
				victim := rng.Intn(40)
				delay := time.Duration(rng.Intn(180)) * time.Second
				c.Sim.After(delay, func() {
					if !c.Crashed(victim) {
						c.Crash(victim)
					}
				})
			}

			// Run long enough for every detection/repair/notification
			// chain to quiesce.
			settle(c, 20*time.Minute)

			for _, g := range groups {
				liveWithState, liveNotified := 0, 0
				for _, m := range g.members {
					if c.Crashed(m) {
						continue
					}
					has := c.Nodes[m].Fuse.HasState(g.id)
					cnt := g.n.count(m)
					if cnt > 1 {
						t.Fatalf("group %s: node %d notified %d times", g.id, m, cnt)
					}
					if has && cnt > 0 {
						t.Fatalf("group %s: node %d notified but still has state", g.id, m)
					}
					if has {
						liveWithState++
					}
					if cnt == 1 {
						liveNotified++
					}
				}
				liveMembers := 0
				for _, m := range g.members {
					if !c.Crashed(m) {
						liveMembers++
					}
				}
				// One-way agreement: all-or-nothing across live members.
				if liveWithState != 0 && liveNotified != 0 {
					t.Fatalf("group %s: mixed outcome, %d alive / %d notified of %d live members",
						g.id, liveWithState, liveNotified, liveMembers)
				}
				if liveWithState+liveNotified != liveMembers {
					t.Fatalf("group %s: %d+%d != %d live members",
						g.id, liveWithState, liveNotified, liveMembers)
				}
			}
		})
	}
}
