package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/netmodel"
	"fuse/internal/scenario"
	"fuse/internal/transport/simnet"
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
	// Nothing runs on an unassembled cluster: the ablation's livetopo
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

// TestDialedRoutesCostOneSweepPerNode pins what a 1,000-node deployment
// asks of the topology's route caches. Each node's first send resolves
// every link its overlay was assembled with in one batched query, so the
// build, 125 groups of 5 and two virtual minutes cost about one sweep per
// node. The tree pool, which starts at 16 trees and grows only on a
// sweep an evicted tree would have spared, grows to 36 for the pairs
// nobody dialed ahead. Resolving each link on its own first send
// would need every source's tree pooled across the first minute, as the
// links first send at random phases: with a 256-tree ceiling that
// thrashes into several sweeps per node.
func TestDialedRoutesCostOneSweepPerNode(t *testing.T) {
	const nodes, groups, size = 1000, 125, 5
	opts := simnet.DefaultOptions()
	c := cluster.New(cluster.Options{N: nodes, Seed: 1, SimOptions: &opts})
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < groups; g++ {
		m := rng.Perm(nodes)[:size]
		if _, err := c.CreateGroup(m[0], m[1:]...); err != nil {
			t.Fatalf("group %d %v: %v", g, m, err)
		}
	}
	c.Sim.RunFor(2 * time.Minute)
	st := c.Topo.RouteStats()
	t.Logf("route stats: %+v", st)
	if limit := nodes * 115 / 100; st.Sweeps > limit {
		t.Errorf("%d sweeps for %d nodes, want at most %d (1.15 per node)", st.Sweeps, nodes, limit)
	}
	if st.Trees > 40 {
		t.Errorf("%d trees pooled, want at most 40", st.Trees)
	}
}

// TestChurnPresetRouteSweeps pins the route work of the churn preset's
// shape (150 nodes, 20 groups, a 12-minute window), where repairs and
// restarts keep asking new pairs from sources seen before: the adaptive
// tree pool must grow enough that two runs sweep at most 261 times each
// (~250 read), 15% over a pool that never evicts (~228).
func TestChurnPresetRouteSweeps(t *testing.T) {
	for _, seed := range []int64{1001, 1002} {
		c, script, err := scenario.BuildPreset("churn", scenario.Params{
			Nodes: 150, Groups: 20, Window: 12 * time.Minute, MeanDwell: 4 * time.Minute, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := scenario.Run(c, script)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d failed its audit: %s", seed, rep.Stats())
		}
		st := c.Topo.RouteStats()
		t.Logf("seed %d route stats: %+v", seed, st)
		if st.Sweeps > 261 {
			t.Errorf("seed %d: %d sweeps in one churn run, want at most 261", seed, st.Sweeps)
		}
	}
}
