package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/telemetry"
	"fuse/internal/transport/simnet"
)

// perLayer is what a traced run reports. Three families:
//
//   - run.*  counts and rates read from the traced workload itself;
//   - span.* each layer's share of the self time of the spans the
//     benchmark recorded around its calls into that layer;
//   - <package>.* the micro rungs: one layer at a time on small fixed
//     inputs, the same in every traced run whatever the workload, so any
//     traced run gives the whole per-layer picture.
//
// Virtual-time quantities carry the unit virt_us so that nobody reads
// them as wall time.
var perLayer = []metricSpec{
	{Name: "run.work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "run.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "run.spans", Unit: "count", Better: "lower"},
	{Name: "run.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "run.events_per_work", Unit: "count", Better: "lower"},
	{Name: "run.events_pending", Unit: "count", Better: "lower"},
	{Name: "run.msgs_per_work", Unit: "count", Better: "lower"},
	{Name: "run.msgs_dropped", Unit: "count", Better: "lower"},
	{Name: "run.checked_pairs", Unit: "count", Better: "lower"},
	{Name: "run.check_timers", Unit: "count", Better: "lower"},
	{Name: "run.groups_made", Unit: "count", Better: "higher"},
	{Name: "run.notifications", Unit: "count", Better: "higher"},
	{Name: "run.repairs", Unit: "count", Better: "lower"},
	{Name: "run.proto_events", Unit: "count", Better: "lower"},
	{Name: "run.faults", Unit: "count", Better: "higher"},
	{Name: "run.scenario_trace_bytes", Unit: "count", Better: "lower"},

	{Name: "span.netmodel_pct", Unit: "%", Better: "lower"},
	{Name: "span.cluster_pct", Unit: "%", Better: "lower"},
	{Name: "span.core_pct", Unit: "%", Better: "lower"},
	{Name: "span.sim_pct", Unit: "%", Better: "lower"},
	{Name: "span.scenario_pct", Unit: "%", Better: "lower"},
	{Name: "span.fuse_pct", Unit: "%", Better: "lower"},
	{Name: "span.bench_pct", Unit: "%", Better: "lower"},

	{Name: "netmodel.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "netmodel.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "netmodel.path_cold_us", Unit: "us", Better: "lower"},
	{Name: "netmodel.path_hit_ns", Unit: "ns", Better: "lower"},

	{Name: "eventsim.ns_per_event_heap1k", Unit: "ns", Better: "lower"},
	{Name: "eventsim.ns_per_event_heap10k", Unit: "ns", Better: "lower"},
	{Name: "eventsim.ns_per_event_heap100k", Unit: "ns", Better: "lower"},
	{Name: "eventsim.timer_reset_ns", Unit: "ns", Better: "lower"},
	{Name: "eventsim.shard_speedup_w1", Unit: "x", Better: "higher"},
	{Name: "eventsim.shard_speedup_w2", Unit: "x", Better: "higher"},
	{Name: "eventsim.lookahead_virt_us", Unit: "virt_us", Better: "higher"},
	{Name: "eventsim.events_per_window", Unit: "count", Better: "higher"},

	{Name: "ladder.ns_per_ping_cycle", Unit: "ns", Better: "lower"},
	{Name: "eventsim.ns_per_ping_cycle", Unit: "ns", Better: "lower"},
	{Name: "simnet.ns_per_ping_cycle", Unit: "ns", Better: "lower"},
	{Name: "overlay.ns_per_ping_cycle", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_ping_cycle", Unit: "ns", Better: "lower"},
	{Name: "simnet.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "overlay.join_wall_us", Unit: "us", Better: "lower"},

	{Name: "core.ping_payload_ns_g10", Unit: "ns", Better: "lower"},
	{Name: "core.ping_payload_ns_g1k", Unit: "ns", Better: "lower"},
	{Name: "core.ping_payload_ns_g10k", Unit: "ns", Better: "lower"},
	{Name: "core.on_ping_payload_ns_g10", Unit: "ns", Better: "lower"},
	{Name: "core.on_ping_payload_ns_g1k", Unit: "ns", Better: "lower"},
	{Name: "core.on_ping_payload_ns_g10k", Unit: "ns", Better: "lower"},
	{Name: "core.create_wall_us_s0", Unit: "us", Better: "lower"},
	{Name: "core.create_wall_us_s2k", Unit: "us", Better: "lower"},
	{Name: "core.notify_wall_us_s0", Unit: "us", Better: "lower"},
	{Name: "core.notify_wall_us_s2k", Unit: "us", Better: "lower"},

	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.emit_on_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.emit_off_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.events_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.trace_on_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},

	{Name: "scenario.build_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.run_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.faults", Unit: "count", Better: "higher"},
	{Name: "scenario.notices", Unit: "count", Better: "higher"},
	{Name: "scenario.violations", Unit: "count", Better: "lower"},
	{Name: "scenario.trace_bytes", Unit: "count", Better: "lower"},

	{Name: "tcpnet.oneway_us_ping", Unit: "us", Better: "lower"},
	{Name: "tcpnet.oneway_us_pingAck", Unit: "us", Better: "lower"},
	{Name: "tcpnet.oneway_us_hardNotification", Unit: "us", Better: "lower"},
	{Name: "tcpnet.oneway_us_installChecking", Unit: "us", Better: "lower"},
	{Name: "tcpnet.oneway_us_groupCreateRequest", Unit: "us", Better: "lower"},
	{Name: "tcpnet.allocs_per_msg_ping", Unit: "count", Better: "lower"},
	{Name: "tcpnet.allocs_per_msg_pingAck", Unit: "count", Better: "lower"},
	{Name: "tcpnet.allocs_per_msg_hardNotification", Unit: "count", Better: "lower"},
	{Name: "tcpnet.allocs_per_msg_installChecking", Unit: "count", Better: "lower"},
	{Name: "tcpnet.allocs_per_msg_groupCreateRequest", Unit: "count", Better: "lower"},
	{Name: "tcpnet.wire_bytes_ping", Unit: "B", Better: "lower"},
	{Name: "tcpnet.wire_bytes_pingAck", Unit: "B", Better: "lower"},
	{Name: "tcpnet.wire_bytes_hardNotification", Unit: "B", Better: "lower"},
	{Name: "tcpnet.wire_bytes_installChecking", Unit: "B", Better: "lower"},
	{Name: "tcpnet.wire_bytes_groupCreateRequest", Unit: "B", Better: "lower"},
	{Name: "tcpnet.pipelined_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tcpnet.dial_us", Unit: "us", Better: "lower"},
	{Name: "tcpnet.after_allocs", Unit: "count", Better: "lower"},
	{Name: "tcpnet.goroutines_leaked_per_redial", Unit: "count", Better: "lower"},

	{Name: "fuse.create_p50_us", Unit: "us", Better: "lower"},
	{Name: "fuse.notify_p50_us", Unit: "us", Better: "lower"},
	{Name: "fuse.msgs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "fuse.alloc_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "fuse.cpu_util", Unit: "x", Better: "lower"},
}

// microSizes scales the rungs; bench_test.go shrinks them.
type microSizes struct {
	iters          int // calls per timed loop of a nanosecond-scale operation
	heaps          [3]int
	sweeps         int
	shardNodes     int
	ladderNodes    int
	ladderWindow   time.Duration
	ladderRounds   int
	linkGroups     [3]int // groups on one link for the core.*_g rungs
	standing       int    // standing groups for the core.*_s2k rungs
	cycles         int    // lifecycle and live cycles per reading
	clusterNodes   int
	churn          scenario.Params
	paperNet       func(seed int64) netmodel.Config
	tcpMsgs, burst int
}

var micro = microSizes{
	iters: 200_000, heaps: [3]int{1_000, 10_000, 100_000}, sweeps: 8,
	shardNodes: 400, ladderNodes: 300, ladderWindow: 5 * time.Minute, ladderRounds: 3,
	linkGroups: [3]int{10, 1_000, 10_000}, standing: 2_000, cycles: 300,
	clusterNodes: 500,
	churn:        scenario.Params{Nodes: 100, Groups: 12, Window: 10 * time.Minute, MeanDwell: 4 * time.Minute},
	paperNet:     netmodel.PaperScaleConfig,
	tcpMsgs:      200, burst: 128,
}

// progress receives one line per finished micro rung.
var progress io.Writer = os.Stderr

// runMicroSuite measures every rung. It records no spans: the span file
// belongs to the workload.
func runMicroSuite(r *run) {
	r.tr.on = false
	for _, rung := range []struct {
		name string
		fn   func(*run)
	}{
		{"netmodel", microNetmodel}, {"eventsim", microEventsim}, {"shards", microShards},
		{"ladder", microLadder}, {"join", microJoin}, {"link hash", microLinkHash},
		{"lifecycle", microLifecycle}, {"telemetry", microTelemetry},
		{"cluster+scenario", microClusterAndScenario}, {"tcpnet", microTCPNet}, {"live", microLive},
	} {
		t := time.Now()
		rung.fn(r)
		fmt.Fprintf(progress, "micro %-18s %6.2f s\n", rung.name, time.Since(t).Seconds())
	}
}

// nsPer times n calls of fn and returns nanoseconds per call.
func nsPer(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// --- netmodel ---

func microNetmodel(r *run) {
	rng := rand.New(rand.NewSource(r.seed))

	t := time.Now()
	big := netmodel.Generate(micro.paperNet(r.seed))
	r.layer["netmodel.generate_ms"] = msOf(time.Since(t))

	// One single-source sweep over the big topology per pair: this is
	// the unit route warm-up is made of.
	pts := big.AttachPoints(2*micro.sweeps, rng)
	pairs := make([][2]netmodel.RouterID, micro.sweeps)
	for i := range pairs {
		pairs[i] = [2]netmodel.RouterID{pts[2*i], pts[2*i+1]}
	}
	t = time.Now()
	big.WarmRoutes(pairs, 1)
	r.layer["netmodel.sweep_ms"] = msOf(time.Since(t)) / float64(micro.sweeps)

	// Cold and memoized Path on the default topology, which is what a
	// join or a first send pays inside a running simulation.
	small := netmodel.Generate(netmodel.DefaultConfig(r.seed))
	const cold = 100
	pts = small.AttachPoints(2*cold, rng)
	r.layer["netmodel.path_cold_us"] = nsPer(cold, func(i int) { small.Path(pts[2*i], pts[2*i+1]) }) / 1e3
	r.layer["netmodel.path_hit_ns"] = nsPer(micro.iters, func(i int) { small.Path(pts[2*(i%cold)], pts[2*(i%cold)+1]) })
}

// --- eventsim ---

func microEventsim(r *run) {
	rng := rand.New(rand.NewSource(r.seed))
	for i, name := range []string{"heap1k", "heap10k", "heap100k"} {
		// h periodic timers, each re-armed from its own callback with a
		// period of its own: the heap stays h deep and every pop is
		// followed by a push, as with the overlay's ping timers.
		h := micro.heaps[i]
		sim := eventsim.New(r.seed)
		for k := 0; k < h; k++ {
			period := 30*time.Second + time.Duration(rng.Int63n(int64(60*time.Second)))
			var tm *eventsim.Timer
			tm = sim.After(time.Duration(rng.Int63n(int64(period))), func() { tm.Reset(period) })
		}
		sim.RunFor(time.Minute)
		exec0 := sim.Executed()
		t := time.Now()
		sim.RunFor(3 * time.Minute)
		r.layer["eventsim.ns_per_event_"+name] = float64(time.Since(t)) / float64(sim.Executed()-exec0)
	}

	// Moving a pending deadline in place, in a heap 1k deep.
	sim := eventsim.New(r.seed)
	for k := 0; k < 1000; k++ {
		sim.After(time.Duration(k+1)*time.Second, func() {})
	}
	tm := sim.After(time.Minute, func() {})
	r.layer["eventsim.timer_reset_ns"] = nsPer(micro.iters, func(i int) {
		tm.Reset(time.Duration(1+i%1000) * time.Second)
	})
}

// microShards runs one set of inputs under the serial scheduler, the
// sharded one on one worker (pure overhead) and on two.
func microShards(r *run) {
	const window = 5 * time.Minute
	var lookahead time.Duration
	var events uint64
	wall := make(map[int]time.Duration)
	for _, workers := range []int{0, 1, 2} {
		rng := rand.New(rand.NewSource(r.seed))
		opts := simnet.DefaultOptions()
		c := cluster.New(cluster.Options{
			N: micro.shardNodes, Seed: r.seed, SimOptions: &opts, Workers: workers, Shards: steadyShards,
		})
		createGroups(r, c, pickGroups(rng, micro.shardNodes, micro.shardNodes/8, groupSize))
		c.Sim.RunFor(2 * time.Minute)
		exec0 := c.Sim.Executed()
		t := time.Now()
		c.Sim.RunFor(window)
		wall[workers] = time.Since(t)
		if workers == 2 {
			lookahead, events = c.Sim.Lookahead(), c.Sim.Executed()-exec0
		}
	}
	r.layer["eventsim.shard_speedup_w1"] = wall[0].Seconds() / wall[1].Seconds()
	r.layer["eventsim.shard_speedup_w2"] = wall[0].Seconds() / wall[2].Seconds()
	r.layer["eventsim.lookahead_virt_us"] = usOf(lookahead)
	r.layer["eventsim.events_per_window"] = float64(events) / (float64(window) / float64(lookahead))
}

// --- overlay ---

// microJoin prices one join: the wall time of five virtual seconds of a
// 100-node overlay with a node joining, minus the same five seconds
// without.
func microJoin(r *run) {
	const joins, settle = 20, 5 * time.Second
	opts := simnet.DefaultOptions()
	c := cluster.New(cluster.Options{N: 100, Seed: r.seed, SimOptions: &opts})
	c.Sim.RunFor(2 * time.Minute)
	t := time.Now()
	c.Sim.RunFor(joins * settle)
	idle := time.Since(t)
	t = time.Now()
	for i := 0; i < joins; i++ {
		nd := c.AddNode()
		nd.Overlay.Join(c.Nodes[i].Ref())
		c.Sim.RunFor(settle)
	}
	joined := 0
	for _, nd := range c.Nodes[100:] {
		if len(nd.Overlay.Neighbors()) > 0 {
			joined++
		}
	}
	r.check(joined == joins, "micro join: %d of %d joiners have neighbours", joined, joins)
	r.layer["overlay.join_wall_us"] = usOf(time.Since(t)-idle) / joins
}

// --- core ---

// microLinkHash prices the per-ping work of core with g groups riding
// one overlay link: the piggyback hash served on send and checked on
// receive.
func microLinkHash(r *run) {
	for i, name := range []string{"g10", "g1k", "g10k"} {
		c := cluster.New(cluster.Options{N: 2, Seed: r.seed})
		for g := 0; g < micro.linkGroups[i]; g++ {
			if _, err := c.CreateGroup(0, 1); err != nil {
				r.check(false, "micro link hash: create %d: %v", g, err)
				return
			}
		}
		c.Sim.RunFor(2 * time.Minute)
		f0, ref0, ref1 := c.Nodes[0].Fuse, c.Nodes[0].Ref(), c.Nodes[1].Ref()
		fromPeer := c.Nodes[1].Fuse.PingPayload(ref0)
		r.check(len(fromPeer) == 20, "micro link hash %s: payload is %d bytes, want the 20-byte hash", name, len(fromPeer))
		r.layer["core.ping_payload_ns_"+name] = nsPer(micro.iters, func(int) { f0.PingPayload(ref1) })
		r.layer["core.on_ping_payload_ns_"+name] = nsPer(micro.iters, func(int) { f0.OnPingPayload(ref1, fromPeer) })
	}
}

// microLifecycle splits a create → notified cycle into its two halves,
// with no standing groups and with micro.standing of them.
func microLifecycle(r *run) {
	l := newLifecycleRig(r, 100)
	for _, name := range []string{"s0", "s2k"} {
		if name == "s2k" {
			l.standing(micro.standing, false)
		}
		l.reset()
		for i := 0; i < micro.cycles; i++ {
			l.cycle()
		}
		r.layer["core.create_wall_us_"+name] = l.createWallUS()
		r.layer["core.notify_wall_us_"+name] = l.notifyWallUS()
	}
}

// --- telemetry ---

func microTelemetry(r *run) {
	const lanes = 9 // control lane + 8 shards
	reg := telemetry.New(time.Now(), lanes)
	counter := reg.Counter("bench_counter", "micro rung")
	hist := reg.Histogram("bench_hist", "micro rung")
	lane := reg.Lane(1)
	at := reg.Epoch()
	r.layer["telemetry.counter_inc_ns"] = nsPer(micro.iters, func(int) { counter.Inc(lane) })
	r.layer["telemetry.observe_ns"] = nsPer(micro.iters, func(i int) { hist.Observe(lane, time.Duration(i)*time.Microsecond) })
	r.layer["telemetry.emit_off_ns"] = nsPer(micro.iters, func(int) { lane.Emit(at, "notify", "node", "group", 1, 2, "") })
	reg.EnableTrace(telemetry.TraceProto)
	r.layer["telemetry.emit_on_ns"] = nsPer(micro.iters, func(i int) {
		reg.Lane(i%lanes).Emit(at.Add(time.Duration(i)), "notify", "node", "group", 1, 2, "")
	})
	t := time.Now()
	merged := reg.Events()
	r.layer["telemetry.events_merge_ms"] = msOf(time.Since(t))
	r.check(len(merged) == micro.iters, "micro telemetry: merged %d events, emitted %d", len(merged), micro.iters)
}

// --- cluster, scenario ---

func microClusterAndScenario(r *run) {
	builds := stats.NewSample(3)
	for i := 0; i < 3; i++ {
		t := time.Now()
		cluster.New(cluster.Options{N: micro.clusterNodes, Seed: r.seed + int64(i)})
		builds.Add(msOf(time.Since(t)))
	}
	r.layer["cluster.new_ms"] = builds.Median()

	// A small churn drill, alternately with the protocol-event trace off
	// and on: the scenario engine's own cost, and what tracing adds.
	off, on, build := stats.NewSample(3), stats.NewSample(3), stats.NewSample(6)
	var first *churnOutcome
	for i := 0; i < 6; i++ {
		p := micro.churn
		p.Seed = r.seed*1000 + int64(i/2)
		out := churnOnce(r, p, i%2 == 1)
		if out == nil {
			return
		}
		build.Add(msOf(out.build))
		if i%2 == 1 {
			on.Add(msOf(out.run))
		} else {
			off.Add(msOf(out.run))
		}
		if first == nil {
			first = out
		}
	}
	r.layer["scenario.build_ms"] = build.Median()
	r.layer["scenario.run_ms"] = off.Median()
	r.layer["telemetry.trace_on_overhead_pct"] = 100 * (on.Median()/off.Median() - 1)
	r.layer["scenario.faults"] = float64(len(first.rep.Faults))
	r.layer["scenario.notices"] = float64(first.rep.Notices)
	r.layer["scenario.violations"] = float64(len(first.rep.Violations))
	r.layer["scenario.trace_bytes"] = float64(len(first.rep.Trace))
	r.check(first.rep.OK(), "micro churn: %s", first.rep.Stats())
}

// --- fuse (live facade) ---

func microLive(r *run) {
	l := &liveRig{r: r}
	defer l.close()
	if !l.start(50) {
		return
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	delivered0, cpu0, t := l.delivered(), cpuTime(), time.Now()
	for i := 0; i < micro.cycles; i++ {
		l.cycle()
	}
	wall, cpu := time.Since(t), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	msgs := float64(l.delivered() - delivered0)
	r.check(l.drain() == 0, "micro live: duplicate or late notifications")
	r.layer["fuse.create_p50_us"] = l.createUS.Median()
	r.layer["fuse.notify_p50_us"] = l.notifyUS.Median()
	r.layer["fuse.msgs_per_cycle"] = msgs / float64(micro.cycles)
	r.layer["fuse.alloc_bytes_per_msg"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / msgs
	r.layer["fuse.cpu_util"] = cpu.Seconds() / wall.Seconds()
}
