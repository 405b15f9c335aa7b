package experiments

import (
	"time"

	"fuse/internal/cluster"
	"fuse/internal/livetopo"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/svtree"
	"fuse/internal/transport"
)

// SVTreeGroupSizes reproduces the §4 statistics: the distribution of FUSE
// group sizes created while building a subscriber tree. The paper built a
// 2,000-subscriber tree on a 16,000-node overlay and measured an average
// of 2.9 members per group with a maximum of 13, sizes depending only
// weakly on tree and overlay size. -nodes 16000 is the paper's run: 2,000
// subscribers on the paper-scale topology, which cluster.New picks by
// itself at that size.
func SVTreeGroupSizes(p Params) (*Result, error) {
	n := p.nodes(1000)
	subscribers := n / 8
	if p.Short {
		n, subscribers = 200, 25
	}
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed})
	// Warm routes give the same paths as cold ones; at 16,000 nodes they
	// are what makes the run tractable.
	c.WarmRoutes(nil)

	svcs := make([]*svtree.Service, len(c.Nodes))
	for i, nd := range c.Nodes {
		svcs[i] = svtree.New(nd.Env, nd.Overlay, nd.Fuse)
		ov, fu, sv := nd.Overlay, nd.Fuse, svcs[i]
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
			if ov.Handle(from, msg) || fu.Handle(from, msg) || sv.Handle(from, msg) {
				return
			}
		})
	}

	const topic = "herald.events.example"
	rng := c.Sim.Rand()
	for _, i := range rng.Perm(n)[:subscribers] {
		svcs[i].Subscribe(topic, func(any) {})
		c.Sim.RunFor(5 * time.Second)
	}
	c.Sim.RunFor(5 * time.Minute)

	sizes := stats.NewSample(0)
	attached := 0
	for _, svc := range svcs {
		for _, s := range svc.GroupSizes {
			sizes.Add(float64(s))
		}
		if svc.Subscribed(topic) && svc.Attached(topic) {
			attached++
		}
	}

	r := newResult("svtree", "FUSE group sizes while building a subscriber tree (§4)")
	r.addLine("overlay %d nodes, %d subscribers, %d attached", n, subscribers, attached)
	r.addLine("groups created: %d  mean size %.2f  max %.0f  (paper: mean 2.9, max 13)",
		sizes.N(), sizes.Mean(), sizes.Max())
	r.metric("groups", float64(sizes.N()))
	r.metric("mean_size", sizes.Mean())
	r.metric("max_size", sizes.Max())
	r.metric("attached", float64(attached))
	r.metric("subscribers", float64(subscribers))
	return r, nil
}

// AblationTopologies compares the §5.1 liveness-checking topologies
// against the overlay-sharing implementation: steady-state message load
// with G idle groups, and crash-notification latency. It makes the
// paper's scalability argument quantitative: overlay sharing keeps idle
// load flat in the number of groups, the alternatives pay per group.
func AblationTopologies(p Params) (*Result, error) {
	n := 60
	groups, size := 30, 6
	window := 20 * time.Minute
	if p.Short {
		n, groups, window = 40, 12, 10*time.Minute
	}

	r := newResult("ablation", "liveness topologies: idle load (msg/s) and crash-notification latency (s)")
	// One row: groups installed, the idle message rate, then the median
	// notification latency after the engine crashes one member per group.
	row := func(name, key string, c *cluster.Cluster, specs []scenario.GroupSpec) error {
		victims := make([]int, len(specs))
		for g, spec := range specs {
			victims[g] = spec.Members[len(spec.Members)-1]
		}
		load, lat, err := crashRun(c, "ablation "+name, specs, victims, 2*time.Minute, window)
		if err != nil {
			return err
		}
		r.addLine("%-14s load %7.1f msg/s   crash-notify median %6.1f s", name, load, lat)
		r.metric(key+"_load", load)
		r.metric(key+"_latency_s", lat)
		return nil
	}

	// Overlay-sharing FUSE (the paper's implementation).
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed})
	if err := row("overlay-tree", "overlay", c, randomGroups(c, n, groups, size)); err != nil {
		return nil, err
	}
	for _, kind := range []livetopo.Kind{livetopo.DirectTree, livetopo.AllToAll, livetopo.CentralServer} {
		c, specs := livetopoCluster(p, kind, n, groups, size)
		if err := row(kind.String(), kind.String(), c, specs); err != nil {
			return nil, err
		}
	}
	r.addLine("overlay-tree idle load is independent of the group count; the others scale with it (§5.1)")
	return r, nil
}

// livetopoCluster installs one §5.1 alternative as every node's Groups
// service on an unassembled cluster, whose overlay and FUSE layers never
// run, and draws the groups: none has node 0, the central server, as a
// member, for fairness.
func livetopoCluster(p Params, kind livetopo.Kind, n, groups, size int) (*cluster.Cluster, []scenario.GroupSpec) {
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed, SkipAssemble: true})
	cfg := livetopo.Config{Kind: kind, Server: c.Nodes[0].Ref()}
	for _, nd := range c.Nodes {
		svc := livetopo.New(nd.Env, cfg, nd.Ref())
		nd.Groups = svc
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
	}
	rng := c.Sim.Rand()
	specs := make([]scenario.GroupSpec, groups)
	for g := range specs {
		perm := rng.Perm(n - 1)[:size]
		for i := range perm {
			perm[i]++
		}
		specs[g] = scenario.GroupSpec{Root: perm[0], Members: perm[1:]}
	}
	return c, specs
}
