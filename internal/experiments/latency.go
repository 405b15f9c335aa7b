package experiments

import (
	"fmt"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// paperCluster builds the evaluation deployment of §7.1: an n-node
// overlay over the Mercator-substitute topology (the paper-scale one
// beyond the default's routers) with the messaging-layer overheads the
// paper measured (2.8 ms per send, 1.1 ms per delivery), on p.Workers
// event-loop goroutines.
func paperCluster(p Params, n int) *cluster.Cluster {
	opts := simnet.DefaultOptions()
	return cluster.New(cluster.Options{
		N:          n,
		Seed:       p.Seed,
		SimOptions: &opts,
		Workers:    p.Workers,
	})
}

// groupSizes is the paper's workload axis: "groups ranging from 2 to 32
// members" (§7.1).
var groupSizes = []int{2, 4, 8, 16, 32}

// Fig6RPCLatency reproduces Figure 6: the CDF of RPC times between
// random node pairs used to calibrate the simulator against the cluster.
// The simulated transport has no connection-establishment cost, so its
// curve corresponds to the paper's "Simulator"/"2nd Cluster RPC" pair;
// the live-transport benchmark covers the 1st-vs-2nd distinction.
func Fig6RPCLatency(p Params) (*Result, error) {
	n := p.nodes(400)
	rpcs := 2400
	if p.Short {
		n, rpcs = 100, 400
	}
	c := paperCluster(p, n)

	var replied bool
	for _, nd := range c.Nodes {
		ov, fu, env := nd.Overlay, nd.Fuse, nd.Env
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
			switch msg.(type) {
			case *echo:
				env.Send(from, &echoReply{})
			case *echoReply:
				replied = true
			default:
				if !ov.Handle(from, msg) {
					fu.Handle(from, msg)
				}
			}
		})
	}

	sample := stats.NewSample(rpcs)
	rng := c.Sim.Rand()
	for k := 0; k < rpcs; k++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		start := c.Sim.Elapsed()
		replied = false
		c.Nodes[a].Env.Send(c.Nodes[b].Addr, &echo{})
		for !replied && c.Sim.Step() {
		}
		sample.AddDuration(c.Sim.Elapsed() - start)
	}

	r := newResult("fig6", "RPC latency CDF (simulated transport), milliseconds")
	for _, f := range []float64{10, 25, 50, 75, 90, 99} {
		r.addLine("p%02.0f: %8.1f ms", f, sample.Percentile(f))
	}
	r.addLine("n=%d median=%.1f ms (paper: ~130 ms median, heavy tail)", sample.N(), sample.Median())
	r.metric("median_ms", sample.Median())
	r.metric("p90_ms", sample.Percentile(90))
	r.metric("samples", float64(sample.N()))
	return r, nil
}

// echo and echoReply are Fig. 6's RPC: one request, answered to its
// sender. The loop above keeps one in flight at a time.
type (
	echo      struct{ transport.Body }
	echoReply struct{ transport.Body }
)

// randomGroups draws count groups of the given size: members uniformly
// random among c's first nodes nodes, the first of them the root.
func randomGroups(c *cluster.Cluster, nodes, count, size int) []scenario.GroupSpec {
	rng := c.Sim.Rand()
	out := make([]scenario.GroupSpec, count)
	for g := range out {
		perm := rng.Perm(nodes)[:size]
		out[g] = scenario.GroupSpec{Root: perm[0], Members: perm[1:]}
	}
	return out
}

// millis is stats.Sample.AddDuration's unit, for auditedLatencies.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// audited returns an error when rep's run broke an invariant.
func audited(rep *scenario.Report) error {
	if !rep.OK() {
		return fmt.Errorf("%s violated invariants:\n%s", rep.Name, rep.Stats())
	}
	return nil
}

// auditedLatencies returns rep's notification latencies - each the span
// from the fault the engine attributes it to, in the given unit - or an
// error when the run broke an invariant.
func auditedLatencies(rep *scenario.Report, unit func(time.Duration) float64) (*stats.Sample, error) {
	if err := audited(rep); err != nil {
		return nil, err
	}
	lat := stats.NewSample(len(rep.Deliveries))
	for _, d := range rep.Deliveries {
		if d.Fault > 0 {
			lat.Add(unit(d.At - rep.Faults[d.Fault-1].At))
		}
	}
	return lat, nil
}

// crashRun is the ablation's crash-and-measure sequence:
// the engine creates specs on c, the message rate is read over window
// after drain, then the victims crash together and 15 minutes later the
// audited notification latencies' median (in seconds) is read.
func crashRun(c *cluster.Cluster, name string, specs []scenario.GroupSpec, victims []int, drain, window time.Duration) (load, medianLatencySec float64, err error) {
	const settle = 15 * time.Minute
	s := scenario.CrashScript(name, specs, drain+window, victims)
	s.Duration = scenario.Duration(drain + window + settle)
	e, err := scenario.Start(c, s)
	if err != nil {
		return 0, 0, err
	}
	load = msgRate(c, drain, window)
	c.Sim.RunFor(settle)
	lat, err := auditedLatencies(e.Report(), time.Duration.Seconds)
	if err != nil {
		return 0, 0, err
	}
	return load, lat.Median(), nil
}

// Fig7GroupCreation reproduces Figure 7: latency of blocking group
// creation versus group size (20 groups per size; 25th/50th/75th
// percentiles). It times each creation, so it creates its groups itself
// rather than through a script.
func Fig7GroupCreation(p Params) (*Result, error) {
	n := p.nodes(400)
	perSize := 20
	if p.Short {
		n, perSize = 100, 8
	}
	c := paperCluster(p, n)
	// Warm routes give the same paths as cold ones; at -nodes 16000 (the
	// §7.3 overlay) they are what makes the run tractable.
	c.WarmRoutes(nil)
	r := newResult("fig7", "group creation latency (ms): size -> p25 / median / p75")
	for _, size := range groupSizes {
		lat := stats.NewSample(perSize)
		for g, spec := range randomGroups(c, n, perSize, size) {
			start := c.Sim.Elapsed()
			if _, err := c.CreateGroup(spec.Root, spec.Members...); err != nil {
				return nil, fmt.Errorf("creating group %d (size %d): %w", g, size, err)
			}
			lat.AddDuration(c.Sim.Elapsed() - start)
		}
		p25, p50, p75 := lat.Quartiles()
		r.addLine("size %2d: %7.1f / %7.1f / %7.1f", size, p25, p50, p75)
		r.metric(fmt.Sprintf("size%d_median_ms", size), p50)
		r.metric(fmt.Sprintf("size%d_p75_ms", size), p75)
	}
	return r, nil
}

// Fig8SignaledNotification reproduces Figure 8: the latency from an
// explicit SignalFailure at a random member to the arrival of the
// notification at each other member (20 create/notify cycles per size).
// Each size is one script on the one cluster: its groups, then a signal
// every 30 s at a random member of each group in turn.
func Fig8SignaledNotification(p Params) (*Result, error) {
	n := p.nodes(400)
	perSize := 20
	if p.Short {
		n, perSize = 100, 8
	}
	c := paperCluster(p, n)
	r := newResult("fig8", "signaled notification latency (ms): size -> p25 / median / p75 (max)")
	overallMax := 0.0
	const gap = 30 * time.Second // one group's notification settles before the next signal
	for _, size := range groupSizes {
		s := scenario.Script{Name: fmt.Sprintf("fig8 size %d", size), Groups: randomGroups(c, n, perSize, size),
			Duration: scenario.Duration(time.Duration(perSize) * gap)}
		for gi, g := range s.Groups {
			members := append([]int{g.Root}, g.Members...)
			s.Events = append(s.Events, scenario.Event{At: time.Duration(gi) * gap,
				Do: scenario.Signal{Node: members[c.Sim.Rand().Intn(size)], Group: gi}})
			s.ExpectFail = append(s.ExpectFail, gi)
		}
		rep, err := scenario.Run(c, s)
		if err != nil {
			return nil, err
		}
		lat, err := auditedLatencies(rep, millis)
		if err != nil {
			return nil, err
		}
		p25, p50, p75 := lat.Quartiles()
		if lat.Max() > overallMax {
			overallMax = lat.Max()
		}
		r.addLine("size %2d: %6.1f / %6.1f / %6.1f  (max %6.1f)", size, p25, p50, p75, lat.Max())
		r.metric(fmt.Sprintf("size%d_median_ms", size), p50)
	}
	r.addLine("max over all groups: %.0f ms (paper: 1165 ms)", overallMax)
	r.metric("max_ms", overallMax)
	return r, nil
}

// Fig9CrashNotification reproduces Figure 9: create 400 groups of size 5,
// disconnect 10 of the 400 nodes, and measure the distribution of failure
// notification times at the surviving members of affected groups. The
// paper observes 0-4 minutes, dominated by the ping timeout (60 s
// interval + 20 s timeout) and the repair timeouts (1 min member / 2 min
// root).
func Fig9CrashNotification(p Params) (*Result, error) {
	n := p.nodes(400)
	groups, size, kill := 400, 5, 10
	if p.Short {
		n, groups, kill = 100, 80, 4
	}
	c := paperCluster(p, n)

	// Let creation traffic settle for a minute, then disconnect `kill`
	// nodes at once (the paper pulls one 10-process machine off the
	// network) and watch for ten minutes.
	specs := randomGroups(c, n, groups, size)
	s := scenario.CrashScript("fig9", specs, time.Minute, c.Sim.Rand().Perm(n)[:kill])
	s.Duration = scenario.Duration(11 * time.Minute)
	rep, err := scenario.Run(c, s)
	if err != nil {
		return nil, err
	}
	times, err := auditedLatencies(rep, time.Duration.Minutes)
	if err != nil {
		return nil, err
	}

	expected := rep.Expected()
	r := newResult("fig9", "crash notification time CDF (minutes since disconnect)")
	r.addLine("affected groups: %d of %d; notifications observed: %d (expected %d)",
		rep.Failed, groups, times.N(), expected)
	for _, f := range []float64{10, 25, 50, 75, 90, 100} {
		r.addLine("p%03.0f: %5.2f min", f, times.Percentile(f))
	}
	r.metric("notifications", float64(times.N()))
	r.metric("expected", float64(expected))
	r.metric("median_min", times.Median())
	r.metric("max_min", times.Max())
	return r, nil
}
