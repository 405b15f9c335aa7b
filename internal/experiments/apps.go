package experiments

import (
	"fmt"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/eventsim"
	"fuse/internal/livetopo"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/svtree"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// SVTreeGroupSizes reproduces the §4 statistics: the distribution of FUSE
// group sizes created while building a subscriber tree. The paper built a
// 2,000-subscriber tree on a 16,000-node overlay and measured an average
// of 2.9 members per group with a maximum of 13, sizes depending only
// weakly on tree and overlay size.
func SVTreeGroupSizes(p Params) (*Result, error) {
	n := p.nodes(1000)
	subscribers := n / 8
	if p.Short {
		n, subscribers = 200, 25
	}
	if p.PaperScale {
		// The paper's §4 numbers: a 2,000-subscriber tree on a 16,000
		// node overlay, which runs on the paper-scale topology (cluster.New
		// picks it: the default one has fewer routers than attachment
		// points) and needs pre-warmed overlay routes to be tractable.
		n, subscribers = 16000, 2000
	}
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed})
	if p.PaperScale {
		c.WarmRoutes(nil)
	}

	svcs := make([]*svtree.Service, len(c.Nodes))
	for i, nd := range c.Nodes {
		svcs[i] = svtree.New(nd.Env, nd.Overlay, nd.Fuse, svtree.DefaultConfig())
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

	// Overlay-sharing FUSE (the paper's implementation).
	overlayLoad, overlayLat, err := overlayFuseRun(p, n, groups, size, window)
	if err != nil {
		return nil, err
	}
	r.addLine("%-14s load %7.1f msg/s   crash-notify median %6.1f s", "overlay-tree", overlayLoad, overlayLat)
	r.metric("overlay_load", overlayLoad)
	r.metric("overlay_latency_s", overlayLat)

	for _, kind := range []livetopo.Kind{livetopo.DirectTree, livetopo.AllToAll, livetopo.CentralServer} {
		load, lat, err := livetopoRun(p, kind, n, groups, size, window)
		if err != nil {
			return nil, err
		}
		r.addLine("%-14s load %7.1f msg/s   crash-notify median %6.1f s", kind.String(), load, lat)
		r.metric(kind.String()+"_load", load)
		r.metric(kind.String()+"_latency_s", lat)
	}
	r.addLine("overlay-tree idle load is independent of the group count; the others scale with it (§5.1)")
	return r, nil
}

// overlayFuseRun measures the core implementation: idle message rate with
// groups installed, then median notification latency after crashing one
// member per group.
func overlayFuseRun(p Params, n, groups, size int, window time.Duration) (load, medianLatencySec float64, err error) {
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed})
	specs := randomGroups(c, groups, size)
	victims := make([]int, len(specs))
	for g, spec := range specs {
		victims[g] = spec.Members[len(spec.Members)-1]
	}
	const drain = 2 * time.Minute
	e, err := scenario.Start(c, scenario.CrashScript("ablation", specs, drain+window, victims))
	if err != nil {
		return 0, 0, err
	}
	load = msgRate(c.Sim, c.Net.Sent, drain, window)
	c.Sim.RunFor(15 * time.Minute)
	lat, err := auditedLatencies(e.Report(), time.Duration.Seconds)
	if err != nil {
		return 0, 0, err
	}
	return load, lat.Median(), nil
}

// livetopoRun measures one §5.1 alternative with the same workload.
func livetopoRun(p Params, kind livetopo.Kind, n, groups, size int, window time.Duration) (load, medianLatencySec float64, err error) {
	sim := eventsim.New(p.Seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(p.Seed))
	net := simnet.New(sim, topo, simnet.Options{})
	pts := topo.AttachPoints(n, sim.Rand())

	cfg := livetopo.DefaultConfig(kind)
	cfg.Server = overlay.NodeRef{Name: "lt000", Addr: "lt-000"}
	svcs := make([]*livetopo.Service, n)
	envs := make([]transport.Env, n)
	refs := make([]overlay.NodeRef, n)
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("lt-%03d", i))
		refs[i] = overlay.NodeRef{Name: fmt.Sprintf("lt%03d", i), Addr: addr}
		env := net.AddNode(addr, pts[i])
		envs[i] = env
		svc := livetopo.New(env, cfg, refs[i])
		svcs[i] = svc
		func(svc *livetopo.Service) {
			net.SetHandler(addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
		}(svc)
	}

	rng := sim.Rand()
	type made struct {
		id      livetopo.GroupID
		members []int
	}
	var all []made
	for g := 0; g < groups; g++ {
		// Skip node 0 (the central server) as a member for fairness.
		perm := rng.Perm(n - 1)[:size]
		for i := range perm {
			perm[i]++
		}
		var memberRefs []overlay.NodeRef
		for _, m := range perm[1:] {
			memberRefs = append(memberRefs, refs[m])
		}
		var id livetopo.GroupID
		var cerr error
		done := false
		svcs[perm[0]].CreateGroup(append([]overlay.NodeRef{refs[perm[0]]}, memberRefs...),
			func(i livetopo.GroupID, e error) { id, cerr, done = i, e, true })
		for !done && sim.Step() {
		}
		if cerr != nil {
			return 0, 0, fmt.Errorf("%s group %d: %w", kind, g, cerr)
		}
		all = append(all, made{id: id, members: perm})
	}

	load = msgRate(sim, net.Sent, 2*time.Minute, window)

	lat := stats.NewSample(0)
	var crashAt time.Time
	victims := make(map[int]bool)
	for _, g := range all {
		v := g.members[len(g.members)-1]
		victims[v] = true
		for _, m := range g.members {
			m := m
			svcs[m].RegisterFailureHandler(func(livetopo.Notice) {
				if !victims[m] {
					lat.Add(envs[m].Now().Sub(crashAt).Seconds())
				}
			}, g.id)
		}
	}
	crashAt = sim.Now()
	for v := range victims {
		net.Crash(transport.Addr(fmt.Sprintf("lt-%03d", v)))
	}
	sim.RunFor(15 * time.Minute)
	return load, lat.Median(), nil
}
