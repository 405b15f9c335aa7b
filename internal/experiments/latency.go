package experiments

import (
	"fmt"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/rpcx"
	"fuse/internal/stats"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// paperCluster builds the evaluation deployment of §7.1: a 400-node
// overlay over the Mercator-substitute topology with the messaging-layer
// overheads the paper measured (2.8 ms per send, 1.1 ms per delivery).
func paperCluster(p Params, n int) *cluster.Cluster {
	opts := simnet.DefaultOptions()
	return cluster.New(cluster.Options{
		N:          n,
		Seed:       p.Seed,
		SimOptions: &opts,
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

	peers := make([]*rpcx.Peer, len(c.Nodes))
	for i, nd := range c.Nodes {
		peers[i] = rpcx.New(nd.Env, func(transport.Addr, any) any { return "ack" })
		ov, fu, pr := nd.Overlay, nd.Fuse, peers[i]
		c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
			if ov.Handle(from, msg) || fu.Handle(from, msg) || pr.Handle(from, msg) {
				return
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
		done := false
		peers[a].Call(c.Nodes[b].Addr, "ping", time.Minute, func(any, error) {
			sample.AddDuration(c.Nodes[a].Env.Now().Sub(start))
			done = true
		})
		for !done && c.Sim.Step() {
		}
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

// createGroups creates count groups of the given size with uniformly
// random members rooted at a random node, returning the creation
// latencies and the IDs with their membership.
type madeGroup struct {
	id      core.GroupID
	root    int
	members []int
}

func createGroups(c *cluster.Cluster, count, size int, lat *stats.Sample) ([]madeGroup, error) {
	rng := c.Sim.Rand()
	var out []madeGroup
	for g := 0; g < count; g++ {
		perm := rng.Perm(len(c.Nodes))[:size]
		start := c.Sim.Now()
		id, err := c.CreateGroup(perm[0], perm[1:]...)
		if err != nil {
			return nil, fmt.Errorf("creating group %d (size %d): %w", g, size, err)
		}
		if lat != nil {
			lat.AddDuration(c.Sim.Now().Sub(start))
		}
		out = append(out, madeGroup{id: id, root: perm[0], members: perm})
	}
	return out, nil
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
	if p.PaperScale {
		n = 16000
	}
	c := paperCluster(p, n)
	r := newResult("fig7", "group creation latency (ms): size -> p25 / median / p75")
	for _, size := range groupSizes {
		lat := stats.NewSample(perSize)
		if _, err := createGroups(c, perSize, size, lat); err != nil {
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
func Fig8SignaledNotification(p Params) (*Result, error) {
	n := p.nodes(400)
	perSize := 20
	if p.Short {
		n, perSize = 100, 8
	}
	c := paperCluster(p, n)
	r := newResult("fig8", "signaled notification latency (ms): size -> p25 / median / p75 (max)")
	overallMax := 0.0
	for _, size := range groupSizes {
		lat := stats.NewSample(perSize * size)
		groups, err := createGroups(c, perSize, size, nil)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			var signalAt time.Time
			remaining := 0
			for _, m := range g.members {
				m := m
				c.Nodes[m].Fuse.RegisterFailureHandler(func(core.Notice) {
					lat.AddDuration(c.Nodes[m].Env.Now().Sub(signalAt))
					remaining--
				}, g.id)
				remaining++
			}
			signaller := g.members[c.Sim.Rand().Intn(len(g.members))]
			signalAt = c.Sim.Now()
			c.Nodes[signaller].Fuse.SignalFailure(g.id)
			c.Sim.RunFor(30 * time.Second)
			if remaining != 0 {
				return nil, fmt.Errorf("size %d: %d members missed the notification", size, remaining)
			}
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
	made, err := createGroups(c, groups, size, nil)
	if err != nil {
		return nil, err
	}

	// Register handlers everywhere, recording notification times.
	times := stats.NewSample(0)
	var crashAt time.Time
	crashed := make(map[int]bool, kill)
	for _, g := range made {
		for _, m := range g.members {
			m := m
			c.Nodes[m].Fuse.RegisterFailureHandler(func(core.Notice) {
				if !crashed[m] && !crashAt.IsZero() {
					times.Add(c.Nodes[m].Env.Now().Sub(crashAt).Minutes())
				}
			}, g.id)
		}
	}

	// Let creation traffic settle, then disconnect `kill` nodes at once
	// (the paper pulls one 10-process machine off the network).
	c.Sim.RunFor(time.Minute)
	rng := c.Sim.Rand()
	for _, v := range rng.Perm(n)[:kill] {
		crashed[v] = true
		c.Crash(v)
	}
	crashAt = c.Sim.Now()
	c.Sim.RunFor(10 * time.Minute)

	affected := 0
	for _, g := range made {
		for _, m := range g.members {
			if crashed[m] {
				affected++
				break
			}
		}
	}
	r := newResult("fig9", "crash notification time CDF (minutes since disconnect)")
	r.addLine("affected groups: %d of %d; notifications observed: %d (expected %d)",
		affected, groups, times.N(), expectedLiveMembers(made, crashed))
	for _, f := range []float64{10, 25, 50, 75, 90, 100} {
		r.addLine("p%03.0f: %5.2f min", f, times.Percentile(f))
	}
	r.metric("notifications", float64(times.N()))
	r.metric("expected", float64(expectedLiveMembers(made, crashed)))
	r.metric("median_min", times.Median())
	r.metric("max_min", times.Max())
	return r, nil
}

// expectedLiveMembers counts live members of groups containing at least
// one crashed member - each must receive exactly one notification.
func expectedLiveMembers(made []madeGroup, crashed map[int]bool) int {
	total := 0
	for _, g := range made {
		hit := false
		for _, m := range g.members {
			if crashed[m] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		for _, m := range g.members {
			if !crashed[m] {
				total++
			}
		}
	}
	return total
}
