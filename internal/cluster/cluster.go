// Package cluster assembles complete simulated FUSE deployments: a
// virtual-time network over a generated topology, with an overlay node
// and a FUSE layer on every endpoint. It is the shared substrate of the
// protocol test suites and the experiment harness (the equivalent of the
// paper's simulator driver and ModelNet cluster scripts). A node's groups
// live on its Groups service: the FUSE layer, or a §5.1 baseline a driver
// installed in its place.
package cluster

import (
	"fmt"
	"runtime"

	"fuse/internal/core"
	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/telemetry"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// DefaultShards is the shard count used whenever Workers > 0 and Shards
// is unset. The shard count is part of the logical event order (it
// determines which node pairs exchange events through window barriers),
// so it is fixed rather than derived from the machine: a run with
// Workers=1 and a run with Workers=8 produce byte-identical traces.
const DefaultShards = 8

// Options configures a simulated deployment.
type Options struct {
	N    int
	Seed int64
	// NetConfig nil picks the topology by size: netmodel.DefaultConfig(Seed)
	// while it has a router per node, netmodel.PaperScaleConfig(Seed)
	// beyond that.
	NetConfig  *netmodel.Config
	SimOptions *simnet.Options // nil => no per-message overheads

	// Workers is how many goroutines may execute one of the event loop's
	// windows. A window with fewer than 32 events queued, too little to
	// pay for a fork, runs on one whatever Workers is; at 1,000 nodes
	// that is nearly every window. 0 (the default) is one goroutine and
	// one event shard: every node on a single lane, the same run as
	// Workers=1 with Shards=1. With Workers >= 1 nodes are partitioned by
	// AS into Shards event lanes and the lookahead horizon is the
	// network's minimum cross-AS delivery delay; the logical event order
	// depends on the shard count only, so Workers=1 is the determinism
	// cross-check for higher worker counts.
	Workers int

	// Shards overrides DefaultShards when Workers > 0.
	Shards int

	// SkipAssemble leaves routing tables empty so a test can exercise
	// the join protocol instead. Until something joins, the overlay and
	// FUSE layers arm no timer, send nothing and draw no randomness, so
	// an unassembled cluster also hosts a baseline service (livetopo)
	// that replaces each node's handler through Net.SetHandler and
	// Node.Groups.
	SkipAssemble bool
}

// Groups is a node's group service: the FUSE API of Figure 1 over core's
// types. *core.Fuse is one; a §5.1 baseline (livetopo) installed as
// Node.Groups is another, and Cluster.CreateGroup and the scenario engine
// then create, fault and audit its groups the same way.
type Groups interface {
	CreateGroup(members []overlay.NodeRef, done func(core.GroupID, error))
	RegisterFailureHandler(h core.Handler, id core.GroupID)
	SignalFailure(id core.GroupID)
	HasState(id core.GroupID) bool
}

// Node bundles one endpoint's protocol stack.
type Node struct {
	Index   int
	Addr    transport.Addr
	Router  netmodel.RouterID
	Env     transport.Env
	Overlay *overlay.Node
	Fuse    *core.Fuse
	// Groups is the service the node's groups live on: Fuse, unless a
	// driver installed another one (and routed the node's messages to it).
	// Restart brings back Fuse.
	Groups Groups
}

// Ref returns the node's overlay identity.
func (n *Node) Ref() overlay.NodeRef { return n.Overlay.Self() }

// Cluster is a complete simulated deployment.
type Cluster struct {
	Sim   *eventsim.Sim
	Topo  *netmodel.Topology
	Net   *simnet.Net
	Nodes []*Node

	// Telemetry is the deployment-wide metrics registry and protocol
	// trace, striped one lane per event shard after lane 0, the control
	// lane's. Always attached; hot-path cost is per-lane atomic adds.
	// Read at fences only (or after the run).
	Telemetry *telemetry.Registry

	nextIndex int

	// stores records each node's attached stable storage so a restart
	// can reattach the same store (the durable state survives the crash
	// even though the protocol stack is rebuilt).
	stores map[int]*core.MemStore
}

// AddrOf returns the deterministic transport address of node index i.
func AddrOf(i int) transport.Addr { return transport.Addr(fmt.Sprintf("node-%04d", i)) }

// NameOf returns the deterministic overlay name of node index i.
func NameOf(i int) string { return fmt.Sprintf("n%04d.fuse.example.org", i) }

// New builds a deployment of opts.N nodes and (unless SkipAssemble) wires
// the overlay statically into its converged state.
func New(opts Options) *Cluster {
	if opts.N <= 0 {
		panic("cluster: N must be positive")
	}
	c := newNetwork(opts)
	pts := c.Topo.AttachPoints(opts.N, c.Sim.Rand())
	for i := 0; i < opts.N; i++ {
		c.addNode(pts[i])
	}
	if !opts.SkipAssemble {
		c.Assemble()
	}
	return c
}

// newNetwork builds the deployment New describes without its nodes: the
// simulator, the topology, the network and the telemetry registry.
func newNetwork(opts Options) *Cluster {
	netCfg := netmodel.DefaultConfig(opts.Seed)
	switch {
	case opts.NetConfig != nil:
		netCfg = *opts.NetConfig
	case opts.N > netCfg.ASes*netCfg.RoutersPer:
		netCfg = netmodel.PaperScaleConfig(opts.Seed)
	}
	simOpts := simnet.Options{}
	if opts.SimOptions != nil {
		simOpts = *opts.SimOptions
	}

	sim := eventsim.New(opts.Seed)
	topo := netmodel.Generate(netCfg)
	shardN := 1
	if opts.Workers > 0 {
		shardN = opts.Shards
		if shardN <= 0 {
			shardN = DefaultShards
		}
	}
	sim.EnableShards(shardN, opts.Workers, simnet.MinDeliveryDelay(topo, simOpts))
	net := simnet.New(sim, topo, simOpts)
	// The lane count is a function of the shard count only (like the
	// logical event order), so metric snapshots and traces stay
	// byte-identical across worker counts.
	reg := telemetry.New(eventsim.Epoch, 1+shardN)
	reg.CounterFunc("eventsim_events_executed_total",
		"simulation events executed", func() int64 { return int64(sim.Executed()) })
	reg.GaugeFunc("eventsim_events_pending",
		"simulation events scheduled and not yet run", func() int64 { return int64(sim.Pending()) })
	net.SetTelemetry(reg)
	return &Cluster{
		Sim:       sim,
		Topo:      topo,
		Net:       net,
		Telemetry: reg,
		stores:    make(map[int]*core.MemStore),
	}
}

func (c *Cluster) addNode(router netmodel.RouterID) *Node {
	i := c.nextIndex
	c.nextIndex++
	addr := AddrOf(i)
	env := c.Net.AddNode(addr, router)
	n := c.buildStack(i, addr, router, env)
	c.Nodes = append(c.Nodes, n)
	return n
}

// buildStack constructs the overlay + FUSE layers over env and installs
// the message dispatcher.
func (c *Cluster) buildStack(i int, addr transport.Addr, router netmodel.RouterID, env transport.Env) *Node {
	ov := overlay.New(env, overlay.DefaultConfig(), NameOf(i))
	fu := core.New(env, ov, 1)
	n := &Node{Index: i, Addr: addr, Router: router, Env: env, Overlay: ov, Fuse: fu, Groups: fu}
	c.Net.SetHandler(addr, func(from transport.Addr, msg transport.Message) {
		if !ov.Handle(from, msg) {
			fu.Handle(from, msg)
		}
	})
	return n
}

// Assemble wires all current nodes' routing tables to the converged state
// and starts liveness pinging.
func (c *Cluster) Assemble() {
	ovs := make([]*overlay.Node, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if !c.Net.Crashed(n.Addr) {
			ovs = append(ovs, n.Overlay)
		}
	}
	overlay.AssembleStatic(ovs)
}

// WarmRoutes precomputes the topology paths for every current overlay
// link plus the given extra node-index pairs in one netmodel WarmRoutes
// batch on all CPUs. Large deployments (the 16,000-node paper-scale runs)
// call this after Assemble: the sweeps, one per source, run in parallel
// up front instead of one at a time as the simulation runs. Small
// deployments may skip it; then each node's first send resolves all its
// assembled overlay links in a one-worker batch of its own (one sweep),
// and any other pair (a root's members, a new neighbour) resolves at its
// own first send through Path.
func (c *Cluster) WarmRoutes(extra [][2]int) {
	var pairs [][2]netmodel.RouterID
	for _, n := range c.Nodes {
		for _, nb := range n.Overlay.Neighbors() {
			pairs = append(pairs, [2]netmodel.RouterID{n.Router, c.Net.Router(nb.Addr)})
		}
	}
	for _, e := range extra {
		pairs = append(pairs, [2]netmodel.RouterID{c.Nodes[e[0]].Router, c.Nodes[e[1]].Router})
	}
	c.Topo.WarmRoutes(pairs, runtime.NumCPU())
}

// AddNode grows the deployment by one fresh node attached to a random
// router; the caller decides whether to Join it or re-Assemble.
func (c *Cluster) AddNode() *Node {
	router := netmodel.RouterID(c.Sim.Rand().Intn(c.Topo.NumRouters()))
	return c.addNode(router)
}

// Workers returns the event loop's worker count (at least 1).
func (c *Cluster) Workers() int { return c.Sim.Workers() }

// ShardCount returns the number of event shards (at least 1).
func (c *Cluster) ShardCount() int { return c.Sim.NumShards() }

// Crash fail-stops node i.
func (c *Cluster) Crash(i int) { c.Net.Crash(c.Nodes[i].Addr) }

// Stop shuts node i down cleanly: the overlay's liveness timers are
// halted before the endpoint fail-stops, so a long-running simulation's
// event queue drains instead of accumulating dead nodes' ping cycles. To
// the rest of the deployment it is indistinguishable from a crash.
func (c *Cluster) Stop(i int) {
	c.Nodes[i].Overlay.Stop()
	c.Net.Crash(c.Nodes[i].Addr)
}

// Crashed reports whether node i is down.
func (c *Cluster) Crashed(i int) bool { return c.Net.Crashed(c.Nodes[i].Addr) }

// Restart revives node i with a fresh stack (all volatile state lost, as
// in the paper's crash-recovery model) and rejoins the overlay through
// bootstrap. The transport address and attachment router are preserved,
// as is any store recorded by AttachStore — but Restart does not
// reattach it; use RestartRecovered for the §3.6 stable-storage path.
// The new stack replaces Nodes[i].
func (c *Cluster) Restart(i int, bootstrap overlay.NodeRef) *Node {
	old := c.Nodes[i]
	env := c.Net.Restart(old.Addr)
	n := c.buildStack(old.Index, old.Addr, old.Router, env)
	c.Nodes[i] = n
	n.Overlay.Join(bootstrap)
	return n
}

// RestartRecovered revives node i like Restart, reattaches the store
// AttachStore recorded for it (the durable directory a real process would
// find on disk after the crash) and runs crash recovery from it: the §3.6
// stable-storage variant, in which recorded group memberships are resumed
// instead of forgotten. It panics if node i never had a store attached.
func (c *Cluster) RestartRecovered(i int, bootstrap overlay.NodeRef) *Node {
	store, ok := c.stores[i]
	if !ok {
		panic(fmt.Sprintf("cluster: node %d has no recorded store", i))
	}
	n := c.Restart(i, bootstrap)
	n.Fuse.SetPersistence(store)
	n.Fuse.Recover()
	return n
}

// AttachStore gives node i stable storage for subsequent memberships and
// records it for RestartRecovered.
func (c *Cluster) AttachStore(i int, store *core.MemStore) {
	c.stores[i] = store
	c.Nodes[i].Fuse.SetPersistence(store)
}

// HasStore reports whether node i has a recorded store.
func (c *Cluster) HasStore(i int) bool {
	_, ok := c.stores[i]
	return ok
}

// Refs converts node indices to overlay references.
func (c *Cluster) Refs(idxs ...int) []overlay.NodeRef {
	out := make([]overlay.NodeRef, len(idxs))
	for i, idx := range idxs {
		out[i] = c.Nodes[idx].Ref()
	}
	return out
}

// CreateGroup drives a group creation from node root's Groups service over
// the given member indices and runs the simulation until the creation
// completes, returning the result.
func (c *Cluster) CreateGroup(root int, members ...int) (core.GroupID, error) {
	var (
		gotID  core.GroupID
		gotErr error
		done   bool
	)
	refs := c.Refs(append([]int{root}, members...)...)
	c.Nodes[root].Groups.CreateGroup(refs, func(id core.GroupID, err error) {
		gotID, gotErr, done = id, err, true
	})
	for !done && c.Sim.Step() {
	}
	if !done {
		panic("cluster: simulation drained before group creation completed")
	}
	return gotID, gotErr
}
