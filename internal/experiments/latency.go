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
		start := c.Sim.Now()
		replied = false
		c.Nodes[a].Env.Send(c.Nodes[b].Addr, &echo{})
		for !replied && c.Sim.Step() {
		}
		sample.AddDuration(c.Sim.Now().Sub(start))
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

// randomGroups draws count groups of the given size: uniformly random
// members, the first of them the root.
func randomGroups(c *cluster.Cluster, count, size int) []scenario.GroupSpec {
	rng := c.Sim.Rand()
	out := make([]scenario.GroupSpec, count)
	for g := range out {
		perm := rng.Perm(len(c.Nodes))[:size]
		out[g] = scenario.GroupSpec{Root: perm[0], Members: perm[1:]}
	}
	return out
}

// createGroups creates count randomGroups one after the other, adding
// each blocking creation's latency to lat (when non-nil).
func createGroups(c *cluster.Cluster, count, size int, lat *stats.Sample) error {
	for g, spec := range randomGroups(c, count, size) {
		start := c.Sim.Now()
		if _, err := c.CreateGroup(spec.Root, spec.Members...); err != nil {
			return fmt.Errorf("creating group %d (size %d): %w", g, size, err)
		}
		if lat != nil {
			lat.AddDuration(c.Sim.Now().Sub(start))
		}
	}
	return nil
}

// millis is stats.Sample.AddDuration's unit, for auditedLatencies.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// auditedLatencies returns rep's notification latencies - each the span
// from the fault the engine attributes it to, in the given unit - or an
// error when the run broke an invariant.
func auditedLatencies(rep *scenario.Report, unit func(time.Duration) float64) (*stats.Sample, error) {
	if !rep.OK() {
		return nil, fmt.Errorf("%s violated invariants:\n%s", rep.Name, rep.Stats())
	}
	lat := stats.NewSample(len(rep.Deliveries))
	for _, d := range rep.Deliveries {
		if d.Fault > 0 {
			lat.Add(unit(d.At - rep.Faults[d.Fault-1].At))
		}
	}
	return lat, nil
}

// Fig7GroupCreation reproduces Figure 7: latency of blocking group
// creation versus group size (20 groups per size; 25th/50th/75th
// percentiles).
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
		if err := createGroups(c, perSize, size, lat); err != nil {
			return nil, err
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
		s := scenario.Script{Name: fmt.Sprintf("fig8 size %d", size), Groups: randomGroups(c, perSize, size),
			Duration: time.Duration(perSize) * gap}
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
	specs := randomGroups(c, groups, size)
	s := scenario.CrashScript("fig9", specs, time.Minute, c.Sim.Rand().Perm(n)[:kill])
	s.Duration = 11 * time.Minute
	rep, err := scenario.Run(c, s)
	if err != nil {
		return nil, err
	}
	times, err := auditedLatencies(rep, time.Duration.Minutes)
	if err != nil {
		return nil, err
	}

	expected := rep.Notices - rep.Duplicates + rep.Missed
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
