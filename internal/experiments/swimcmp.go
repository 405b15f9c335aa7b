package experiments

import (
	"time"

	"fuse/internal/cluster"
	"fuse/internal/overlay"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/swim"
	"fuse/internal/transport"
)

// SwimComparison quantifies the §2 contrast between the membership-list
// abstraction (a SWIM-style weakly consistent membership service) and
// FUSE groups:
//
//  1. crash handling: both notify interested parties of a real crash -
//     SWIM by flooding a global "dead" verdict, FUSE by notifying exactly
//     the groups the node belonged to;
//  2. intransitive connectivity: SWIM's indirect probes mask the failure
//     (the pair stays mutually "alive" and the application blocks), while
//     FUSE lets the application fail just the affected group; and
//  3. steady-state message load per node.
func SwimComparison(p Params) (*Result, error) {
	n := 40
	if p.Short {
		n = 24
	}

	r := newResult("swimcmp", "membership service (SWIM) vs FUSE groups")

	// --- SWIM side ---
	swimLoad, swimDetect, swimIntransitive, err := swimRun(p, n)
	if err != nil {
		return nil, err
	}
	// --- FUSE side ---
	fuseLoad, fuseDetect, fuseIntransitive, err := fuseRun(p, n)
	if err != nil {
		return nil, err
	}

	r.addLine("%-22s %12s %12s", "", "SWIM", "FUSE")
	r.addLine("%-22s %10.1f/s %10.1f/s", "steady msgs per node", swimLoad, fuseLoad)
	r.addLine("%-22s %11.1fs %11.1fs", "crash detection (med)", swimDetect, fuseDetect)
	r.addLine("%-22s %12s %12s", "intransitive failure",
		map[bool]string{true: "masked", false: "declared"}[swimIntransitive],
		map[bool]string{true: "app-scoped", false: "none"}[fuseIntransitive])
	r.addLine("SWIM reaches a verdict per NODE; FUSE reaches a verdict per GROUP, so the")
	r.addLine("intransitive pair can fail their shared operation without anyone being declared dead.")
	r.metric("swim_load_per_node", swimLoad)
	r.metric("fuse_load_per_node", fuseLoad)
	r.metric("swim_detect_s", swimDetect)
	r.metric("fuse_detect_s", fuseDetect)
	r.metric("swim_masks_intransitive", boolMetric(swimIntransitive))
	r.metric("fuse_scopes_intransitive", boolMetric(fuseIntransitive))
	return r, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// swimRun measures the SWIM baseline: per-node steady load, median
// crash-detection time across all observers, and whether an intransitive
// cut is masked. Its service replaces each node's handler on an
// unassembled cluster, whose overlay and FUSE layers never run.
func swimRun(p Params, n int) (loadPerNode, medianDetectSec float64, masked bool, err error) {
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed, SkipAssemble: true})
	svcs := make([]*swim.Service, n)
	refs := make([]overlay.NodeRef, n)
	for i, nd := range c.Nodes {
		refs[i] = nd.Ref()
		svc := swim.New(nd.Env, swim.DefaultConfig(), refs[i])
		svcs[i] = svc
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
	}
	for _, svc := range svcs {
		svc.Bootstrap(refs)
	}

	// Steady-state load per node over 5 minutes.
	loadPerNode = msgRate(c, 30*time.Second, 5*time.Minute) / float64(n)

	// Crash detection: median time for every other node to see Dead.
	detect := stats.NewSample(n - 1)
	crashAt := c.Sim.Now()
	for i, svc := range svcs[:n-1] {
		env := c.Nodes[i].Env
		svc.OnChange = func(ref overlay.NodeRef, s swim.State) {
			if ref.Name == refs[n-1].Name && s == swim.Dead {
				detect.Add(env.Now().Sub(crashAt).Seconds())
			}
		}
	}
	c.Crash(n - 1)
	c.Sim.RunFor(5 * time.Minute)
	medianDetectSec = detect.Median()

	// Intransitive cut between two live nodes: masked if both still see
	// each other alive afterwards.
	if _, err := scenario.Run(c, scenario.Script{Name: "swimcmp swim cut", Duration: 5 * time.Minute,
		Events: []scenario.Event{{Do: scenario.BlockPair{A: 1, B: 2}}}}); err != nil {
		return 0, 0, false, err
	}
	s1, _ := svcs[1].Status(refs[2].Name)
	s2, _ := svcs[2].Status(refs[1].Name)
	masked = s1 == swim.Alive && s2 == swim.Alive
	return loadPerNode, medianDetectSec, masked, nil
}

// fuseRun measures the FUSE side with one group over every node (an
// intentionally extreme group size, to give SWIM's whole-system view a
// fair counterpart).
func fuseRun(p Params, n int) (loadPerNode, medianDetectSec float64, appScoped bool, err error) {
	c := cluster.New(cluster.Options{N: n, Seed: p.Seed})
	members := make([]int, n-1)
	for i := 1; i < n; i++ {
		members[i-1] = i
	}
	load, medianDetectSec, err := crashRun(c, "swimcmp", []scenario.GroupSpec{{Root: 0, Members: members}},
		[]int{n - 1}, 30*time.Second, 5*time.Minute)
	if err != nil {
		return 0, 0, false, err
	}
	loadPerNode = load / float64(n)

	// Intransitive: a fresh 3-member group whose two members are cut
	// apart. FUSE stays quiet through the cut (it caused no notice), then
	// fail-on-send scopes the failure to exactly this group: every member
	// hears the signal once.
	rep, err := scenario.Run(c, scenario.Script{
		Name:   "swimcmp intransitive",
		Groups: []scenario.GroupSpec{{Root: 1, Members: []int{2, 3}}},
		Events: []scenario.Event{
			{Do: scenario.BlockPair{A: 2, B: 3}},
			{At: 5 * time.Minute, Do: scenario.Signal{Node: 2, Group: 0}},
		},
		Duration:   6 * time.Minute,
		ExpectFail: []int{0},
	})
	if err != nil {
		return 0, 0, false, err
	}
	appScoped = rep.OK() && rep.Faults[0].Notices == 0
	return loadPerNode, medianDetectSec, appScoped, nil
}
