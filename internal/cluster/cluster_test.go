package cluster_test

import (
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/netmodel"
)

func TestNewBuildsConvergedOverlay(t *testing.T) {
	c := cluster.New(cluster.Options{N: 16, Seed: 1})
	if len(c.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if len(n.Overlay.Neighbors()) == 0 {
			t.Fatalf("node %d has no neighbors", i)
		}
		if n.Addr != cluster.AddrOf(i) || n.Ref().Name != cluster.NameOf(i) {
			t.Fatalf("node %d identity mismatch", i)
		}
	}
}

// TestNewOutgrowsDefaultTopology: one node more than the default topology
// has routers moves the deployment to the paper-scale topology instead of
// panicking in AttachPoints, and every node still gets a router of its own.
func TestNewOutgrowsDefaultTopology(t *testing.T) {
	def := netmodel.DefaultConfig(1)
	n := def.ASes*def.RoutersPer + 1
	c := cluster.New(cluster.Options{N: n, Seed: 1})
	if len(c.Nodes) != n {
		t.Fatalf("nodes = %d, want %d", len(c.Nodes), n)
	}
	seen := make(map[netmodel.RouterID]bool, n)
	for i, nd := range c.Nodes {
		if seen[nd.Router] {
			t.Fatalf("node %d shares router %d", i, nd.Router)
		}
		seen[nd.Router] = true
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cluster.New(cluster.Options{N: 0})
}

func TestCreateGroupHelperBlocksUntilDone(t *testing.T) {
	c := cluster.New(cluster.Options{N: 8, Seed: 2})
	id, err := c.CreateGroup(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if !c.Nodes[i].Fuse.HasState(id) {
			t.Fatalf("node %d missing state immediately after CreateGroup returned", i)
		}
	}
}

func TestCrashAndRestartSwapStacks(t *testing.T) {
	c := cluster.New(cluster.Options{N: 12, Seed: 3})
	id, err := c.CreateGroup(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	old := c.Nodes[3]
	c.Crash(3)
	if !c.Crashed(3) {
		t.Fatal("not crashed")
	}
	fresh := c.Restart(3, c.Nodes[0].Ref())
	if c.Crashed(3) {
		t.Fatal("still crashed after restart")
	}
	if fresh == old || c.Nodes[3] != fresh {
		t.Fatal("restart did not replace the stack")
	}
	if fresh.Fuse.HasState(id) {
		t.Fatal("restarted node kept volatile state")
	}
	// The fresh node rejoins and participates again.
	c.Sim.RunFor(5 * time.Minute)
	if len(fresh.Overlay.Neighbors()) == 0 {
		t.Fatal("restarted node never rejoined the overlay")
	}
}

func TestAddNodeGrowsDeployment(t *testing.T) {
	c := cluster.New(cluster.Options{N: 8, Seed: 4})
	n := c.AddNode()
	if n.Index != 8 || len(c.Nodes) != 9 {
		t.Fatalf("index=%d len=%d", n.Index, len(c.Nodes))
	}
	n.Overlay.Join(c.Nodes[0].Ref())
	c.Sim.RunFor(5 * time.Minute)
	if n.Overlay.Successor().IsZero() {
		t.Fatal("added node never integrated")
	}
}

func TestRefsResolvesIndices(t *testing.T) {
	c := cluster.New(cluster.Options{N: 4, Seed: 5})
	refs := c.Refs(1, 3)
	if len(refs) != 2 || refs[0].Name != cluster.NameOf(1) || refs[1].Name != cluster.NameOf(3) {
		t.Fatalf("refs = %v", refs)
	}
}

func TestSkipAssembleLeavesTablesEmpty(t *testing.T) {
	c := cluster.New(cluster.Options{N: 6, Seed: 6, SkipAssemble: true})
	for i, n := range c.Nodes {
		if len(n.Overlay.Neighbors()) != 0 {
			t.Fatalf("node %d has neighbors despite SkipAssemble", i)
		}
	}
	// Nothing runs on an unassembled cluster: the ablation and swimcmp
	// baselines host their own services on it and rely on the idle stack
	// arming no timer and sending nothing.
	c.Sim.RunFor(10 * time.Minute)
	if ex, pend, sent := c.Sim.Executed(), c.Sim.Pending(), c.Net.Sent(); ex != 0 || pend != 0 || sent != 0 {
		t.Fatalf("idle unassembled cluster: %d events executed, %d pending, %d messages sent", ex, pend, sent)
	}
	// Join protocol integrates them.
	for i := 1; i < 6; i++ {
		c.Nodes[i].Overlay.Join(c.Nodes[0].Ref())
		c.Sim.RunFor(30 * time.Second)
	}
	c.Sim.RunFor(5 * time.Minute)
	id, err := c.CreateGroup(1, 4)
	if err != nil {
		t.Fatalf("group creation on joined overlay: %v", err)
	}
	var notified int
	c.Nodes[4].Fuse.RegisterFailureHandler(func(core.Notice) { notified++ }, id)
	c.Nodes[1].Fuse.SignalFailure(id)
	c.Sim.RunFor(time.Minute)
	if notified != 1 {
		t.Fatalf("notified = %d", notified)
	}
}
