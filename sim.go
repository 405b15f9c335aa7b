package fuse

import (
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/telemetry"
)

// Sim is a deterministic in-process FUSE deployment: n nodes on a
// synthetic wide-area topology under a discrete-event clock. It runs the
// identical protocol stack as live nodes, which makes it suitable for
// reproducible failure-injection tests of applications built on FUSE.
//
// All methods must be called from a single goroutine; simulated time only
// advances inside Run/RunFor.
type Sim struct {
	c *cluster.Cluster
}

// NewSim builds a deployment of n nodes with a converged overlay. The
// topology follows n: the default one while it has a router per node
// (2,880), the paper-scale Mercator substitute (~104k routers) beyond
// that. Routes resolve lazily on first send.
func NewSim(n int, seed int64) *Sim {
	return NewSimWorkers(n, seed, 0)
}

// NewSimWorkers is NewSim with the event loop's windows executed by the
// given number of worker goroutines: nodes are partitioned into event
// shards that advance in parallel windows bounded by the network's
// minimum delivery latency. workers=0 is NewSim: every node on one shard,
// one goroutine (the same run as one worker over one shard). Runs are
// deterministic and identical across all worker counts >= 1; only
// wall-clock speed changes.
func NewSimWorkers(n int, seed int64, workers int) *Sim {
	return &Sim{c: cluster.New(cluster.Options{N: n, Seed: seed, Workers: workers})}
}

// NewSimPaperScale builds a deployment on the paper-scale
// Mercator-substitute topology (~104k routers) at any size, routes warmed
// - the §7.3 configuration of overlays up to 16,000 nodes. The overlay's
// routes are pre-warmed in parallel, so construction does bulk work up
// front in exchange for a fast simulation afterwards.
func NewSimPaperScale(n int, seed int64) *Sim {
	cfg := netmodel.PaperScaleConfig(seed)
	s := &Sim{c: cluster.New(cluster.Options{N: n, Seed: seed, NetConfig: &cfg})}
	s.c.WarmRoutes(nil)
	return s
}

// Nodes returns the deployment size.
func (s *Sim) Nodes() int { return len(s.c.Nodes) }

// Telemetry exposes the deployment's metrics registry and protocol-event
// trace (fusesim's -metrics and -trace surfaces). Snapshots and trace
// merges are deterministic: identical across worker counts for the same
// seed.
func (s *Sim) Telemetry() *telemetry.Registry { return s.c.Telemetry }

// Peer returns the identity of node i.
func (s *Sim) Peer(i int) Peer { return s.c.Nodes[i].Ref() }

// Now returns the current virtual time as the driver sees it: the
// simulator's fence clock, exact between RunFor and CreateGroup calls.
// While RunFor is executing events it lags the nodes by up to a whole
// window, so a failure handler that wants to know when it ran reads
// NodeNow.
func (s *Sim) Now() time.Time { return s.c.Sim.Now() }

// NodeNow returns node i's own virtual clock: the time of the event the
// node is executing, and therefore the correct timestamp inside a failure
// handler. Between run calls it equals Now.
func (s *Sim) NodeNow(i int) time.Time { return s.c.Nodes[i].Env.Now() }

// RunFor advances virtual time by d, executing all protocol events due in
// that window.
func (s *Sim) RunFor(d time.Duration) { s.c.Sim.RunFor(d) }

// CreateGroup creates a group rooted at node root over the given member
// indices, advancing virtual time until creation completes.
func (s *Sim) CreateGroup(root int, members ...int) (GroupID, error) {
	return s.c.CreateGroup(root, members...)
}

// RegisterFailureHandler registers a failure callback at node i.
func (s *Sim) RegisterFailureHandler(i int, h Handler, id GroupID) {
	s.c.Nodes[i].Fuse.RegisterFailureHandler(h, id)
}

// SignalFailure triggers an explicit failure notification from node i.
func (s *Sim) SignalFailure(i int, id GroupID) {
	s.c.Nodes[i].Fuse.SignalFailure(id)
}

// HasState reports whether node i holds any state for the group.
func (s *Sim) HasState(i int, id GroupID) bool {
	return s.c.Nodes[i].Fuse.HasState(id)
}

// Crash fail-stops node i.
func (s *Sim) Crash(i int) { s.c.Crash(i) }

// Crashed reports whether node i is down.
func (s *Sim) Crashed(i int) bool { return s.c.Crashed(i) }

// Restart revives node i with empty state (no stable storage, as in the
// paper's §3.6) and rejoins the overlay through node bootstrap.
func (s *Sim) Restart(i, bootstrap int) {
	s.c.Restart(i, s.c.Nodes[bootstrap].Ref())
}

// Partition splits the network into two sides that cannot exchange any
// traffic; members on both sides of affected groups will be notified.
func (s *Sim) Partition(sideA, sideB []int) {
	for _, a := range sideA {
		for _, b := range sideB {
			s.c.Net.BlockBoth(s.c.Nodes[a].Addr, s.c.Nodes[b].Addr)
		}
	}
}

// BlockPair cuts connectivity between exactly two nodes in both
// directions (an intransitive connectivity failure: both may still reach
// everyone else).
func (s *Sim) BlockPair(a, b int) {
	s.c.Net.BlockBoth(s.c.Nodes[a].Addr, s.c.Nodes[b].Addr)
}

// Heal removes all partitions and blocks.
func (s *Sim) Heal() { s.c.Net.ClearRules() }

// MessagesSent reports the total messages the deployment has sent, for
// load measurements.
func (s *Sim) MessagesSent() uint64 { return s.c.Net.Sent() }

// compile-time re-export checks
var (
	_ = core.DefaultConfig
	_ = overlay.DefaultConfig
)
