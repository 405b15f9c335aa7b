package experiments

import (
	"fmt"
	"time"

	"fuse/internal/scenario"
)

// PaperScaleSimulation is the §7.3 scalability run: the paper validates
// FUSE "using overlay sizes of up to 16,000 nodes" on its packet-level
// simulator and reports that behaviour matches the 400-node cluster. This
// driver builds that overlay on the Mercator-substitute paper-scale
// topology (~104k routers), installs a proportional population of small
// groups (the regime §4's SVTree workload produces), and measures three
// things: the steady-state background message rate (which must stay at
// overlay-ping levels - the piggyback claim at 40x the cluster's scale),
// the notification behaviour after a multi-node failure (every live
// member of an affected group hears exactly one notification), and the
// simulator's own throughput in virtual seconds per wall second, the
// yardstick the eventsim/simnet hot paths are engineered against.
//
// Short runs a 1,000-node scaled-down variant on the default topology,
// used by `go test` and CI; the assertions are identical.
func PaperScaleSimulation(p Params) (*Result, error) {
	n := 16000
	if p.Short {
		n = 1000
	}
	if p.Nodes > 0 {
		n = p.Nodes
	}
	groups, size := n/8, 5
	if p.Groups > 0 {
		groups = p.Groups
	}
	window := 5 * time.Minute
	if p.Short {
		window = 3 * time.Minute
	}
	if p.Window > 0 {
		window = p.Window
	}
	// Crash 1% of the overlay at once (the paper's Figure 9 disconnects
	// 10 of 400 nodes; 1% keeps the affected-group population meaningful
	// as n grows without provoking an unrealistic repair storm).
	kill := n / 100
	if kill < 4 {
		kill = 4
	}
	if kill > 64 {
		kill = 64
	}

	setup := time.Now()
	c := paperCluster(p, n)
	rng := c.Sim.Rand()

	// Pick every group's membership up front so route warmup can cover
	// the root<->member pairs the create/repair/notify protocols use
	// alongside the overlay's own links. A reused partial Fisher-Yates
	// scratch draws each group at O(size), where rng.Perm(n) per group
	// would shuffle (and allocate) all n indices to use five of them.
	scratch := make([]int, n)
	for i := range scratch {
		scratch[i] = i
	}
	pick := func(k int) []int {
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
		}
		out := make([]int, k)
		copy(out, scratch[:k])
		return out
	}
	specs := make([]scenario.GroupSpec, groups)
	var extra [][2]int
	for g := range specs {
		perm := pick(size)
		specs[g] = scenario.GroupSpec{Root: perm[0], Members: perm[1:]}
		for _, m := range perm[1:] {
			extra = append(extra, [2]int{perm[0], m})
		}
	}
	c.WarmRoutes(extra)
	warmWall := time.Since(setup)
	routes := c.Topo.RouteStats()

	// Failure phase, scripted up front: after the drain and the steady
	// window the victims crash together (the paper disconnects whole
	// machines), and the engine's audit checks one-way agreement at scale
	// - every live member of an affected group hears exactly once.
	const (
		drain  = 2 * time.Minute  // creation and install traffic
		settle = 10 * time.Minute // after the crash, for detection and repair
	)
	s := scenario.CrashScript("paperscale", specs, drain+window, pick(kill))
	s.Duration = scenario.Duration(drain + window + settle)
	createStart := time.Now()
	e, err := scenario.Start(c, s)
	if err != nil {
		return nil, err
	}
	createWall := time.Since(createStart)

	c.Sim.RunFor(drain)
	var pairs, timers int
	for _, nd := range c.Nodes {
		_, np, nt := nd.Fuse.CheckingStats()
		pairs += np
		timers += nt
	}

	// Steady-state measurement window.
	baseExec := metric(c, "eventsim_events_executed_total")
	wall := time.Now()
	rate := msgRate(c, 0, window)
	elapsed := time.Since(wall)
	simSpeed := window.Seconds() / elapsed.Seconds()
	evRate := float64(metric(c, "eventsim_events_executed_total")-baseExec) / elapsed.Seconds()

	c.Sim.RunFor(settle)
	rep := e.Report()
	lat, err := auditedLatencies(rep, time.Duration.Seconds)
	if err != nil {
		return nil, err
	}
	expected := rep.Expected()

	r := newResult("paperscale", fmt.Sprintf(
		"§7.3 paper-scale simulation: %d nodes, %d groups of %d, %d crashed (%d shards, %d workers)",
		n, groups, size, kill, c.ShardCount(), c.Workers()))
	r.addLine("setup: route warmup %.1fs wall (%d sweeps for %d pairs over %d border routers, %d edges), %d groups created in %.1fs wall",
		warmWall.Seconds(), routes.Sweeps, routes.Pairs, routes.Borders, routes.BorderEdges, groups, createWall.Seconds())
	r.addLine("steady state:  %10.1f msg/s background  (%d monitored pairs, %d shared timers)",
		rate, pairs, timers)
	r.addLine("sim throughput: %9.1f virtual s / wall s  (%.0f events/s wall)", simSpeed, evRate)
	r.addLine("crash notify:  %d/%d live members notified, %d duplicates", lat.N(), expected, rep.Duplicates)
	r.addLine("notify latency: median %.1f s  p90 %.1f s  max %.1f s (paper: ping+repair timeouts dominate)",
		lat.Median(), lat.Percentile(90), lat.Max())
	r.metric("nodes", float64(n))
	r.metric("groups", float64(groups))
	r.metric("msg_per_s", rate)
	r.metric("sim_speed", simSpeed)
	r.metric("events_per_wall_s", evRate)
	r.metric("checked_pairs", float64(pairs))
	r.metric("check_timers", float64(timers))
	r.metric("notifications", float64(lat.N()))
	r.metric("expected", float64(expected))
	r.metric("duplicates", float64(rep.Duplicates))
	r.metric("notify_median_s", lat.Median())
	r.metric("notify_max_s", lat.Max())
	r.metric("workers", float64(p.Workers))
	return r, nil
}

// PaperScale100k pushes the §7.3 driver to a 100,000-node overlay - 6x
// the paper's largest simulation, filling most of the Mercator
// substitute's ~104k routers. The workload keeps the paperscale shape
// (proportional small groups, steady-state window, 1%-capped crash
// phase with exactly-once verification) but trims the measurement
// window so a run finishes in CI-nightly time; use -window to widen it.
func PaperScale100k(p Params) (*Result, error) {
	if p.Nodes == 0 {
		p.Nodes = 100_000
		if p.Short {
			p.Nodes = 20_000
		}
	}
	if p.Groups == 0 {
		p.Groups = p.Nodes / 50
	}
	if p.Window == 0 {
		p.Window = time.Minute
	}
	r, err := PaperScaleSimulation(p)
	if err != nil {
		return nil, err
	}
	r.Name = "paperscale100k"
	return r, nil
}
