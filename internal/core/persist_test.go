package core_test

import (
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/overlay"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := core.NewMemStore()
	rec := core.GroupRecord{
		ID:  core.GroupID{Root: overlay.NodeRef{Name: "r", Addr: "a"}, Num: 7},
		Seq: 3,
	}
	s.SaveGroup(rec)
	s.SaveGroup(rec) // duplicate save is fine
	got := s.LoadGroups()
	if len(got) != 1 || got[0].ID != rec.ID || got[0].Seq != 3 {
		t.Fatalf("loaded %+v", got)
	}
	s.DeleteGroup(rec.ID)
	s.DeleteGroup(rec.ID) // deleting absent record is fine
	if n := len(s.LoadGroups()); n != 0 {
		t.Fatalf("len = %d after delete", n)
	}
}

// TestPersistenceMasksBriefMemberCrash is the §3.6 claim end to end: a
// member with stable storage crashes and recovers quickly; the group
// survives without any failure notification.
func TestPersistenceMasksBriefMemberCrash(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 21})
	store := core.NewMemStore()
	c.AttachStore(10, store)

	id, err := c.CreateGroup(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.LoadGroups()) != 1 {
		t.Fatalf("store holds %d records after create, want 1", len(store.LoadGroups()))
	}
	notices := 0
	for _, i := range []int{0, 20} {
		c.Nodes[i].Fuse.RegisterFailureHandler(func(core.Notice) { notices++ }, id)
	}

	// Brief crash: down for a few seconds, well under the ping cycle.
	c.Crash(10)
	c.Sim.RunFor(5 * time.Second)
	n := c.RestartRecovered(10, c.Nodes[0].Ref())
	if !n.Fuse.HasState(id) {
		t.Fatal("recovered node did not resume the group")
	}

	// Run long enough that any failure path would have fired (detection
	// + repair timeouts), then verify the group is alive everywhere.
	c.Sim.RunFor(15 * time.Minute)
	if notices != 0 {
		t.Fatalf("brief crash was not masked: %d notifications", notices)
	}
	for _, i := range []int{0, 10, 20} {
		if !c.Nodes[i].Fuse.HasState(id) {
			t.Fatalf("node %d lost the group", i)
		}
	}

	// The group is still fully functional: an explicit signal reaches
	// everyone, including the recovered member.
	recovered := 0
	c.Nodes[10].Fuse.RegisterFailureHandler(func(core.Notice) { recovered++ }, id)
	c.Nodes[20].Fuse.SignalFailure(id)
	c.Sim.RunFor(time.Minute)
	if notices != 2 || recovered != 1 {
		t.Fatalf("post-recovery signal: others=%d recovered=%d", notices, recovered)
	}
	if len(store.LoadGroups()) != 0 {
		t.Fatalf("store holds %d records after notification, want 0", len(store.LoadGroups()))
	}
}

// TestPersistentRootResumesGroup covers the root role: a root with stable
// storage recovers and keeps its group alive.
func TestPersistentRootResumesGroup(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 22})
	store := core.NewMemStore()
	c.AttachStore(0, store)
	id, err := c.CreateGroup(0, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	notices := 0
	for _, i := range []int{8, 16} {
		c.Nodes[i].Fuse.RegisterFailureHandler(func(core.Notice) { notices++ }, id)
	}
	c.Crash(0)
	c.Sim.RunFor(5 * time.Second)
	c.RestartRecovered(0, c.Nodes[1].Ref())
	c.Sim.RunFor(15 * time.Minute)
	if notices != 0 {
		t.Fatalf("root recovery not masked: %d notifications", notices)
	}
	for _, i := range []int{0, 8, 16} {
		if !c.Nodes[i].Fuse.HasState(id) {
			t.Fatalf("node %d lost the group", i)
		}
	}
}

// TestRecoveryOfDeadGroupResolvesToNotification: if the group failed
// while the persistent node was down, recovery must converge on failure,
// not resurrect the group.
func TestRecoveryOfDeadGroupResolvesToNotification(t *testing.T) {
	c := cluster.New(cluster.Options{N: 32, Seed: 23})
	store := core.NewMemStore()
	c.AttachStore(10, store)
	id, err := c.CreateGroup(0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(10)
	c.Sim.RunFor(time.Second)
	// The group fails while node 10 is down.
	c.Nodes[20].Fuse.SignalFailure(id)
	c.Sim.RunFor(time.Minute)

	n := c.RestartRecovered(10, c.Nodes[0].Ref())
	fired := 0
	n.Fuse.RegisterFailureHandler(func(core.Notice) { fired++ }, id)
	c.Sim.RunFor(10 * time.Minute)
	if fired != 1 {
		t.Fatalf("recovered node notified %d times for dead group, want 1", fired)
	}
	if n.Fuse.HasState(id) {
		t.Fatal("dead group resurrected")
	}
	if len(store.LoadGroups()) != 0 {
		t.Fatalf("store still holds %d records", len(store.LoadGroups()))
	}
}

// TestRecoverProbesRebuildDelegateChecking closes the §3.6 delegate item:
// a restarted node that was a *delegate* on some group's checking tree
// holds no durable record of that group (only root/member roles persist),
// so its per-link registry must be rebuilt through its neighbors. On
// Recover the node probes every neighbor the rejoining overlay acquires
// with an unsolicited group-list exchange; a neighbor still monitoring
// groups across the wiped link tears them down immediately and the
// members drive the root's repair, instead of everyone waiting for the
// next scheduled ping (up to a full PingInterval) or, if the restarted
// node never re-pings, a full CheckTimeout.
func TestRecoverProbesRebuildDelegateChecking(t *testing.T) {
	c := cluster.New(cluster.Options{N: 48, Seed: 25})
	rootStore := core.NewMemStore()
	c.AttachStore(0, rootStore)

	id, err := c.CreateGroup(0, 12, 24, 36)
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.RunFor(30 * time.Second) // let installs settle

	// Find a delegate: checking state, but not root or member.
	members := map[int]bool{0: true, 12: true, 24: true, 36: true}
	delegate := -1
	for i, n := range c.Nodes {
		if !members[i] && n.Fuse.HasState(id) {
			delegate = i
			break
		}
	}
	if delegate < 0 {
		t.Skip("no delegate on this seed (direct tree)")
	}

	notices := 0
	for m := range members {
		c.Nodes[m].Fuse.RegisterFailureHandler(func(core.Notice) { notices++ }, id)
	}
	seqBefore := rootSeq(t, rootStore, id)

	// Brief delegate crash: short enough that no neighbor's ping timeout
	// can have fired by the time we assert (earliest ping-driven death is
	// PingTimeout after the crash).
	c.Crash(delegate)
	c.Sim.RunFor(5 * time.Second)
	c.AttachStore(delegate, core.NewMemStore())
	c.RestartRecovered(delegate, c.Nodes[0].Ref())

	// The probe-driven teardown/repair cycle costs a few RTTs once the
	// rejoining overlay's ring search re-acquires the tree-link neighbor
	// (a handful of seconds). Assert it completed within 12 virtual
	// seconds: strictly before the earliest ping-timeout path could fire
	// (PingTimeout after the crash = 15 s after this recovery) and far
	// below the PingInterval (60 s) and CheckTimeout (90 s) that bound
	// the un-probed discovery paths.
	c.Sim.RunFor(12 * time.Second)
	if got := rootSeq(t, rootStore, id); got <= seqBefore {
		t.Fatalf("root repair seq still %d after recovery probes (was %d); tree not rebuilt", got, seqBefore)
	}

	// The repair must converge without any application notification.
	c.Sim.RunFor(15 * time.Minute)
	if notices != 0 {
		t.Fatalf("delegate recovery produced %d notifications, want 0", notices)
	}
	for m := range members {
		if !c.Nodes[m].Fuse.HasState(id) {
			t.Fatalf("node %d lost the group after delegate recovery", m)
		}
	}
}

// rootSeq reads the persisted repair generation of id's root record.
func rootSeq(t *testing.T, s *core.MemStore, id core.GroupID) uint64 {
	t.Helper()
	for _, r := range s.LoadGroups() {
		if r.ID == id && r.IsRoot {
			return r.Seq
		}
	}
	t.Fatal("root record missing")
	return 0
}
