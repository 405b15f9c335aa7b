package experiments

import (
	"fmt"
	"time"

	"fuse/internal/cluster"
)

// msgRate is the measurement every load figure makes: let drain pass
// (creation and install traffic), then count the messages c's network
// sends over window, per virtual second - the delta of the registry's
// send counter between two readings.
func msgRate(c *cluster.Cluster, drain, window time.Duration) float64 {
	c.Sim.RunFor(drain)
	base := metric(c, "simnet_messages_sent_total")
	c.Sim.RunFor(window)
	return float64(metric(c, "simnet_messages_sent_total")-base) / window.Seconds()
}

// metric reads one counter or gauge from c's telemetry registry, at a
// fence. A name the registry does not know is a driver bug, not a zero.
func metric(c *cluster.Cluster, name string) int64 {
	v, ok := c.Telemetry.Value(name)
	if !ok {
		panic("experiments: no metric " + name)
	}
	return v
}

// SteadyStateLoad reproduces the §7.5 steady-state measurement: the
// background message rate of the overlay alone versus the overlay with
// 400 idle FUSE groups of 10 members. The paper measured 337 vs 338
// messages per second - group monitoring rides the existing overlay
// pings, adding only a 20-byte hash to each.
func SteadyStateLoad(p Params) (*Result, error) {
	n := p.nodes(400)
	groups, size := 400, 10
	window := 10 * time.Minute
	if p.Short {
		n, groups, window = 100, 80, 5*time.Minute
	}

	measure := func(withGroups bool) (float64, error) {
		c := paperCluster(p, n)
		if withGroups {
			if err := createGroups(c, groups, size, nil); err != nil {
				return 0, err
			}
		}
		return msgRate(c, 2*time.Minute, window), nil
	}

	without, err := measure(false)
	if err != nil {
		return nil, err
	}
	with, err := measure(true)
	if err != nil {
		return nil, err
	}

	r := newResult("steady", "steady-state background load (messages/second)")
	r.addLine("overlay only:            %7.1f msg/s   (paper: 337)", without)
	r.addLine("overlay + %3d groups:    %7.1f msg/s   (paper: 338)", groups, with)
	r.addLine("delta: %.2f%% (only a 20-byte hash rides each ping)", 100*(with-without)/without)
	r.metric("without_groups", without)
	r.metric("with_groups", with)
	r.metric("delta_pct", 100*(with-without)/without)
	return r, nil
}

// Fig10Churn reproduces Figure 10: background message rates for (a) a
// stable 300-node overlay, (b) a 400-node overlay where 200 nodes churn
// with a 30-minute system half-life (so ~300 nodes are up on average),
// and (c) the churning overlay plus 100 10-member FUSE groups on the
// stable nodes. The paper measured 238 / 270 / 523 msgs/sec.
func Fig10Churn(p Params) (*Result, error) {
	stable, churners := 200, 200
	groups, size := 100, 10
	window := 30 * time.Minute
	if p.Short {
		stable, churners, groups, window = 60, 60, 25, 10*time.Minute
	}

	// (a) stable overlay of the average population (stable + half the
	// churners), no groups, no churn.
	baseline := func() float64 {
		c := cluster.New(cluster.Options{N: stable + churners/2, Seed: p.Seed})
		return msgRate(c, 2*time.Minute, window)
	}

	// (b)/(c): stable+churner overlay with a churn driver; optionally
	// with FUSE groups pinned to stable nodes.
	churnRun := func(withGroups bool) (float64, error) {
		c := cluster.New(cluster.Options{N: stable + churners, Seed: p.Seed})
		if withGroups {
			rng := c.Sim.Rand()
			for g := 0; g < groups; g++ {
				perm := rng.Perm(stable)[:size] // stable nodes only
				if _, err := c.CreateGroup(perm[0], perm[1:]...); err != nil {
					return 0, fmt.Errorf("group %d: %w", g, err)
				}
			}
		}

		// Churn driver: each churning node flips between up and down
		// with exponentially distributed dwell times whose mean yields
		// a 30-minute system half-life with ~half the churners up.
		meanDwell := 15 * time.Minute
		if p.Short {
			meanDwell = 5 * time.Minute
		}
		rng := c.Sim.Rand()
		var flip func(idx int)
		flip = func(idx int) {
			dwell := time.Duration(rng.ExpFloat64() * float64(meanDwell))
			c.Sim.After(dwell, func() {
				if c.Crashed(idx) {
					c.Restart(idx, c.Nodes[rng.Intn(stable)].Ref())
				} else {
					c.Crash(idx)
				}
				flip(idx)
			})
		}
		for i := stable; i < stable+churners; i++ {
			// Start half the churners down to sit at the average
			// population immediately.
			if i%2 == 0 {
				c.Crash(i)
			}
			flip(i)
		}

		return msgRate(c, 2*time.Minute, window), nil
	}

	noChurn := baseline()
	churn, err := churnRun(false)
	if err != nil {
		return nil, err
	}
	churnFuse, err := churnRun(true)
	if err != nil {
		return nil, err
	}

	r := newResult("fig10", "costs of overlay churn (messages/second)")
	r.addLine("no churn   (stable %3d nodes):           %7.1f msg/s  (paper: 238)", stable+churners/2, noChurn)
	r.addLine("with churn (%d stable + %d churning):  %7.1f msg/s  (paper: 270, +13%%)", stable, churners, churn)
	r.addLine("churn + %3d FUSE groups of %d:           %7.1f msg/s  (paper: 523, +94%%)", groups, size, churnFuse)
	r.addLine("churn overhead: %+.0f%%; FUSE-under-churn overhead: %+.0f%%",
		100*(churn-noChurn)/noChurn, 100*(churnFuse-churn)/churn)
	r.metric("no_churn", noChurn)
	r.metric("churn", churn)
	r.metric("churn_fuse", churnFuse)
	r.metric("churn_overhead_pct", 100*(churn-noChurn)/noChurn)
	r.metric("fuse_overhead_pct", 100*(churnFuse-churn)/churn)
	return r, nil
}
