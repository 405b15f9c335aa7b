package experiments

import (
	"fmt"
	"time"

	"fuse/internal/scenario"
)

// ManyGroupsSteadyState stresses steady-state liveness checking far
// beyond the paper's 400-idle-group experiment (§7.5): a 100-node
// overlay carrying thousands of concurrent small groups, the regime the
// ROADMAP's production north star targets. The paper's headline property
// is that steady-state monitoring costs nothing beyond the overlay's own
// pings plus a 20-byte piggyback hash; this driver checks that the
// implementation keeps that property when the group count dwarfs the
// node count, reporting the background message rate, the simulator's
// wall-clock throughput over the measurement window (virtual seconds per
// real second - the number the per-link checking index moves), and the
// per-node checking-state sizes. Every group must survive the run.
func ManyGroupsSteadyState(p Params) (*Result, error) {
	n := p.nodes(100)
	groups, size := 2000, 3
	window := 5 * time.Minute
	if p.Short {
		window = 2 * time.Minute
	}
	if p.Groups > 0 {
		groups = p.Groups
	}
	if p.Window > 0 {
		window = p.Window
	}

	const drain = 2 * time.Minute
	c := paperCluster(p, n)
	e, err := scenario.Start(c, idleScript(c, "manygroups", groups, size, drain+window))
	if err != nil {
		return nil, err
	}
	c.Sim.RunFor(drain) // drain creation and install traffic

	pairs, timers := checkingTotals(c)

	wall := time.Now()
	rate := msgRate(c, 0, window)
	elapsed := time.Since(wall)
	simSpeed := window.Seconds() / elapsed.Seconds()
	if err := audited(e.Report()); err != nil {
		return nil, err
	}

	r := newResult("manygroups", fmt.Sprintf("steady state with %d groups of %d on %d nodes", groups, size, n))
	r.addLine("background load:        %9.1f msg/s", rate)
	r.addLine("sim throughput:         %9.1f virtual s / wall s", simSpeed)
	r.addLine("monitored (group,link): %9d pairs", pairs)
	r.addLine("check timers:           %9d (%.2f per pair)", timers, float64(timers)/float64(pairs))
	r.metric("groups", float64(groups))
	r.metric("msg_per_s", rate)
	r.metric("sim_speed", simSpeed)
	r.metric("checked_pairs", float64(pairs))
	r.metric("check_timers", float64(timers))
	return r, nil
}
