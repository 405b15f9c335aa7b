package experiments

import (
	"fmt"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/swim"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
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
	swimLoad, swimDetect, swimIntransitive := swimRun(p, n)
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
// cut is masked.
func swimRun(p Params, n int) (loadPerNode, medianDetectSec float64, masked bool) {
	sim := eventsim.New(p.Seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(p.Seed))
	net := simnet.New(sim, topo, simnet.Options{})
	pts := topo.AttachPoints(n, sim.Rand())
	svcs := make([]*swim.Service, n)
	envs := make([]transport.Env, n)
	refs := make([]overlay.NodeRef, n)
	addr := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("sw-%03d", i)) }
	for i := 0; i < n; i++ {
		refs[i] = overlay.NodeRef{Name: fmt.Sprintf("sw%03d", i), Addr: addr(i)}
		env := net.AddNode(addr(i), pts[i])
		envs[i] = env
		svc := swim.New(env, swim.DefaultConfig(), refs[i])
		svcs[i] = svc
		func(svc *swim.Service) {
			net.SetHandler(addr(i), func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
		}(svc)
	}
	for _, svc := range svcs {
		svc.Bootstrap(refs)
	}

	// Steady-state load per node over 5 minutes.
	loadPerNode = msgRate(sim, net.Sent, 30*time.Second, 5*time.Minute) / float64(n)

	// Crash detection: median time for every other node to see Dead.
	detect := stats.NewSample(n - 1)
	crashAt := sim.Now()
	for i, svc := range svcs {
		if i == n-1 {
			continue
		}
		env := envs[i]
		svc.OnChange = func(ref overlay.NodeRef, s swim.State) {
			if ref.Name == refs[n-1].Name && s == swim.Dead {
				detect.Add(env.Now().Sub(crashAt).Seconds())
			}
		}
	}
	net.Crash(addr(n - 1))
	sim.RunFor(5 * time.Minute)
	medianDetectSec = detect.Median()

	// Intransitive cut between two live nodes: masked if both still see
	// each other alive afterwards.
	net.BlockBoth(addr(1), addr(2))
	sim.RunFor(5 * time.Minute)
	s1, _ := svcs[1].Status(refs[2].Name)
	s2, _ := svcs[2].Status(refs[1].Name)
	masked = s1 == swim.Alive && s2 == swim.Alive
	return loadPerNode, medianDetectSec, masked
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
	const drain, window = 30 * time.Second, 5 * time.Minute
	e, err := scenario.Start(c, crashScript("swimcmp",
		[]scenario.GroupSpec{{Root: 0, Members: members}}, drain+window, []int{n - 1}))
	if err != nil {
		return 0, 0, false, err
	}
	loadPerNode = msgRate(c.Sim, c.Net.Sent, drain, window) / float64(n)
	c.Sim.RunFor(15 * time.Minute)
	detect, err := auditedLatencies(e.Report(), time.Duration.Seconds)
	if err != nil {
		return 0, 0, false, err
	}
	medianDetectSec = detect.Median()

	// Intransitive: create a fresh 3-member group, cut the two member
	// nodes apart, verify FUSE stays quiet, then fail-on-send scopes the
	// failure to exactly this group.
	id2, err := c.CreateGroup(1, 2, 3)
	if err != nil {
		return 0, 0, false, err
	}
	c.Net.BlockBoth(c.Nodes[2].Addr, c.Nodes[3].Addr)
	c.Sim.RunFor(5 * time.Minute)
	if !c.Nodes[1].Fuse.HasState(id2) {
		return loadPerNode, medianDetectSec, false, nil // false positive: not scoped
	}
	c.Nodes[2].Fuse.SignalFailure(id2)
	c.Sim.RunFor(time.Minute)
	appScoped = !c.Nodes[3].Fuse.HasState(id2) && !c.Nodes[1].Fuse.HasState(id2)
	return loadPerNode, medianDetectSec, appScoped, nil
}
