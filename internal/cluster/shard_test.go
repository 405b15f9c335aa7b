package cluster

import (
	"testing"
	"time"

	"fuse/internal/core"
	"fuse/internal/netmodel"
	"fuse/internal/telemetry"
)

// TestShardedClusterNotifies smokes the full stack under the sharded
// scheduler: create a group, crash a member, and expect the root's
// failure handler to fire. Run under -race this exercises the parallel
// windows end to end (overlay pings, FUSE liveness checking, repair).
func TestShardedClusterNotifies(t *testing.T) {
	c := New(Options{N: 24, Seed: 5, Workers: 4})
	id, err := c.CreateGroup(0, 1, 2)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	notified := false
	c.Nodes[0].Fuse.RegisterFailureHandler(func(core.Notice) { notified = true }, id)
	c.Sim.RunFor(time.Minute)
	if notified {
		t.Fatal("failure handler fired with no fault injected")
	}
	c.Crash(1)
	c.Sim.RunFor(5 * time.Minute)
	if !notified {
		t.Fatal("root never notified after member crash")
	}
	if lane := laneOf(c, 0); lane < 1 || lane > c.ShardCount() {
		t.Fatalf("node 0 writes lane %d, want a shard's lane in [1, %d]", lane, c.ShardCount())
	}
	if c.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", c.Workers())
	}
}

// TestShardsKeyOnAS pins the shard key and the horizon it buys: every
// node sits on the shard of its router's AS - its transport hands it that
// shard's telemetry lane, 1 + AS mod 8 - so the lookahead only has to
// clear the cheapest inter-AS link.
func TestShardsKeyOnAS(t *testing.T) {
	const seed = 1
	c := New(Options{N: 1000, Seed: seed, Workers: 1, SkipAssemble: true})
	if c.ShardCount() != 8 {
		t.Fatalf("ShardCount() = %d, want 8", c.ShardCount())
	}
	for i, n := range c.Nodes {
		if got, want := laneOf(c, i), 1+c.Topo.ASOf(n.Router)%8; got != want {
			t.Fatalf("node %d (router %d): lane %d, want 1 + AS %d %% 8 = %d", i, n.Router, got, c.Topo.ASOf(n.Router), want)
		}
	}
	if la, oc3 := c.Sim.Lookahead(), netmodel.DefaultConfig(seed).OC3LatencyMin; la < oc3 {
		t.Fatalf("Lookahead() = %v, want at least the OC3 minimum %v", la, oc3)
	}
}

// laneOf returns the index of the registry lane node i's transport hands
// its stack, or -1 when it hands none of c's lanes.
func laneOf(c *Cluster, i int) int {
	lane := telemetry.FromEnv(c.Nodes[i].Env)
	for j := 0; j <= c.ShardCount(); j++ {
		if lane != nil && lane == c.Telemetry.Lane(j) {
			return j
		}
	}
	return -1
}

// TestShardedOneASTopologyRuns covers the horizon's fallback: a topology
// with no inter-AS link has no inter-AS bound, yet a sharded cluster over
// it must build (every node on one shard) and deliver a notification.
func TestShardedOneASTopologyRuns(t *testing.T) {
	cfg := netmodel.DefaultConfig(3)
	cfg.Continents, cfg.ContinentWeights, cfg.ASes, cfg.InterContinentLinks = 1, []float64{1}, 1, 0
	c := New(Options{N: 8, Seed: 3, Workers: 2, NetConfig: &cfg})
	if c.Sim.Lookahead() <= 0 {
		t.Fatalf("Lookahead() = %v, want positive", c.Sim.Lookahead())
	}
	id, err := c.CreateGroup(0, 1, 2)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	notified := 0
	c.Nodes[0].Fuse.RegisterFailureHandler(func(core.Notice) { notified++ }, id)
	c.Crash(1)
	c.Sim.RunFor(5 * time.Minute)
	if notified != 1 {
		t.Fatalf("root notified %d times after a member crash, want 1", notified)
	}
}

// TestShardedClusterDeterministicAcrossWorkers pins that the full
// deployment's observable totals agree between workers=1 and workers=4
// for an identical driver sequence (create groups, run, crash, run).
func TestShardedClusterDeterministicAcrossWorkers(t *testing.T) {
	type totals struct {
		sent, delivered, dropped, executed uint64
		elapsed                            time.Duration
	}
	run := func(workers int) totals {
		c := New(Options{N: 32, Seed: 11, Workers: workers})
		if _, err := c.CreateGroup(0, 1, 2, 3); err != nil {
			t.Fatalf("workers=%d CreateGroup: %v", workers, err)
		}
		if _, err := c.CreateGroup(10, 11, 12); err != nil {
			t.Fatalf("workers=%d CreateGroup: %v", workers, err)
		}
		c.Sim.RunFor(2 * time.Minute)
		c.Crash(2)
		c.Crash(11)
		c.Sim.RunFor(5 * time.Minute)
		return totals{
			sent:      c.Net.Sent(),
			delivered: c.Net.Delivered(),
			dropped:   c.Net.Dropped(),
			executed:  c.Sim.Executed(),
			elapsed:   c.Sim.Elapsed(),
		}
	}
	base := run(1)
	if base.sent == 0 || base.delivered == 0 {
		t.Fatalf("workload sent no traffic: %+v", base)
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != base {
			t.Fatalf("workers=%d totals %+v diverged from workers=1 %+v", workers, got, base)
		}
	}
}
