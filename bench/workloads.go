package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fuse"
	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/netmodel"
	"fuse/internal/scenario"
	"fuse/internal/stats"
	"fuse/internal/telemetry"
	"fuse/internal/transport/simnet"
)

// workload is one set of inputs the benchmark runs. All five are closed
// loops driven by one goroutine: the next slice, cycle or scenario starts
// when the previous one has completed.
type workload struct {
	name string
	why  string
	run  func(*run)
}

var workloads = []workload{
	{"paperscale-400", "400 nodes on the 104k-router topology, serial: netmodel route warm-up owns set-up time; the steady slices are the serial eventsim-simnet-overlay baseline; ends with a crash and the exactly-once check", runPaperScale},
	{"steady-1k-sharded", "1,000 nodes, 125 groups, 8 shards, 2 workers: the same protocol driven through windows, outboxes and barriers with netmodel idle; a Workers=1 prefix must give the same digest", runSteadySharded},
	{"group-lifecycle", "create, register, signal, notify cycles over 5,000 standing groups on fuse.NewSim(100): the write side of core (per-link sets, piggyback hash, install, hard notify) with a tiny event heap", runGroupLifecycle},
	{"churn-150", "the churn preset through the scenario engine (joins, neighbour death, repair, crash and restart, cold paths, sinks and auditor), run back to back: fault events cost about twice a steady event", runChurn},
	{"live-loopback", "three fuse.Start nodes on 127.0.0.1: create over all three, signal, wait for all three notifications; the only workload through codec, tcpnet, real timers and the mailbox (loopback, no real link)", runLiveLoopback},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes holds every input size, so bench_test.go can run the same code
// at toy scale.
type sizes struct {
	paperNodes, paperGroups     int
	paperNet                    func(seed int64) netmodel.Config
	steadyNodes, steadyGroups   int
	paperSlice, steadySlice     time.Duration // virtual time per op
	standingGroups, cycleBatch  int
	lifecycleNodes, warmCycles  int
	churnNodes, churnGroups     int
	churnWindow, churnMeanDwell time.Duration
	liveBatch, liveWarmCycles   int
	// How often the cheap set-ups are repeated; setup_s is the fastest.
	lifecycleSetups, liveSetups int
}

var size = sizes{
	paperNodes: 400, paperGroups: 50, paperNet: netmodel.PaperScaleConfig,
	steadyNodes: 1000, steadyGroups: 125,
	paperSlice: 30 * time.Second, steadySlice: 5 * time.Second,
	standingGroups: 5000, cycleBatch: 10, lifecycleNodes: 100, warmCycles: 200,
	churnNodes: 150, churnGroups: 20, churnWindow: 12 * time.Minute, churnMeanDwell: 4 * time.Minute,
	liveBatch: 10, liveWarmCycles: 100,
	lifecycleSetups: 3, liveSetups: 8,
}

const (
	groupSize    = 5 // members per group in the windowed simulations
	steadyShards = 8 // fixed, not nproc: the shard count is part of the logical event order

	// cycleVirtual is the virtual time of one group-lifecycle cycle:
	// above the slowest create plus notify the topology produces (two
	// intercontinental round trips, about 3 s).
	cycleVirtual = 4 * time.Second
)

// --- shared pieces of the two cluster-driven simulations ---

type madeGroup struct {
	id      core.GroupID
	members []int // root first
}

// pickGroups draws each group's distinct members from rng.
func pickGroups(rng *rand.Rand, nodes, groups, k int) [][]int {
	out := make([][]int, groups)
	for g := range out {
		out[g] = rng.Perm(nodes)[:k]
	}
	return out
}

// createGroups creates every group, one check per create.
func createGroups(r *run, c *cluster.Cluster, memberships [][]int) []madeGroup {
	made := make([]madeGroup, 0, len(memberships))
	for _, m := range memberships {
		sp := r.span("core", "Cluster.CreateGroup")
		id, err := c.CreateGroup(m[0], m[1:]...)
		sp.end()
		r.check(err == nil, "create group %v: %v", m, err)
		if err == nil {
			made = append(made, madeGroup{id: id, members: m})
		}
	}
	return made
}

func protoSwitch(reg *telemetry.Registry) func(on bool) {
	return func(on bool) {
		if on {
			reg.EnableTrace(telemetry.TraceProto)
		} else {
			reg.EnableTrace(telemetry.TraceOff)
		}
	}
}

// steadyWindow measures steady state in slices of virtual time short
// enough (a few milliseconds of wall time) that some of them run without
// interference from the host's other tenants, and long enough that every
// slice carries the same load to within a few percent: each link pings
// once a virtual minute, at a phase of its own.
func steadyWindow(r *run, c *cluster.Cluster, slice time.Duration) {
	sent0, exec0, virt0 := c.Net.Sent(), c.Sim.Executed(), c.Sim.Elapsed()
	snap := snapSim(c.Telemetry)
	w := r.measure(protoSwitch(c.Telemetry))
	for w.next() {
		sp := r.span("sim", "Sim.RunFor")
		t := time.Now()
		c.Sim.RunFor(slice)
		d := time.Since(t)
		sp.end()
		w.op(d)
		w.batch(slice.Seconds(), d)
	}
	w.done()

	virt := (c.Sim.Elapsed() - virt0).Seconds()
	r.detail["virt_s_per_wall_s"] = r.rates.Median()
	r.detail["bg_msgs_per_node_virt_s"] = float64(c.Net.Sent()-sent0) / virt / float64(len(c.Nodes))
	r.detail["events_per_virt_s"] = float64(c.Sim.Executed()-exec0) / virt

	var pairs, timers int
	for _, nd := range c.Nodes {
		_, np, nt := nd.Fuse.CheckingStats()
		pairs += np
		timers += nt
	}
	r.layer["run.checked_pairs"] = float64(pairs)
	r.layer["run.check_timers"] = float64(timers)
	simCounters(r, c.Telemetry, snap)
}

// simSnap is where a simulated deployment's counters stood when the
// timed window opened.
type simSnap struct{ events, msgs int64 }

func snapSim(reg *telemetry.Registry) simSnap {
	events, _ := reg.Value("eventsim_events_executed_total")
	msgs, _ := reg.Value("simnet_messages_sent_total")
	return simSnap{events, msgs}
}

// simCounters turns the deployment's own counters into the traced run's
// run.* readings: rates over the timed window, totals for the run.
func simCounters(r *run, reg *telemetry.Registry, from simSnap) {
	now := snapSim(reg)
	r.layer["run.events_per_work"] = float64(now.events-from.events) / r.work
	r.layer["run.events_per_s"] = float64(now.events-from.events) / r.wall.Seconds()
	r.layer["run.msgs_per_work"] = float64(now.msgs-from.msgs) / r.work
	for metric, counter := range map[string]string{
		"run.events_pending": "eventsim_events_pending",
		"run.msgs_dropped":   "simnet_messages_dropped_total",
		"run.groups_made":    "fuse_groups_created_total",
		"run.notifications":  "fuse_notices_delivered_total",
		"run.repairs":        "fuse_repairs_total",
	} {
		v, _ := reg.Value(counter)
		r.layer[metric] = float64(v)
	}
	r.layer["run.proto_events"] = float64(len(reg.Events()))
}

// --- paperscale-400 ---

func runPaperScale(r *run) {
	rng := rand.New(rand.NewSource(r.seed))
	n := size.paperNodes
	var c *cluster.Cluster
	var made []madeGroup
	r.setup(func() {
		cfg := size.paperNet(r.seed)
		opts := simnet.DefaultOptions()
		sp := r.span("cluster", "cluster.New")
		c = cluster.New(cluster.Options{N: n, Seed: r.seed, NetConfig: &cfg, SimOptions: &opts})
		sp.end()
		memberships := pickGroups(rng, n, size.paperGroups, groupSize)
		var extra [][2]int
		for _, m := range memberships {
			for _, member := range m[1:] {
				extra = append(extra, [2]int{m[0], member})
			}
		}
		sp = r.span("netmodel", "Cluster.WarmRoutes")
		c.WarmRoutes(extra)
		sp.end()
		made = createGroups(r, c, memberships)
		sp = r.span("sim", "Sim.RunFor drain")
		c.Sim.RunFor(2 * time.Minute)
		sp.end()
	})

	c.Sim.RunFor(3 * time.Minute) // warm-up: caches fill, pools reach their working size
	r.digest = digestOf(c.Telemetry.RenderTable())

	steadyWindow(r, c, size.paperSlice)
	crashPhase(r, c, made, rng)
}

// crashPhase fail-stops 1% of the nodes at once and checks one-way
// agreement: every live member of every affected group hears exactly one
// notification within ten virtual minutes. The victims are members of
// distinct random groups, so the check is never vacuous.
func crashPhase(r *run, c *cluster.Cluster, made []madeGroup, rng *rand.Rand) {
	kill := min(max(len(c.Nodes)/100, 4), len(made))
	crashed := make(map[int]bool, kill)
	for _, g := range rng.Perm(len(made))[:kill] {
		crashed[made[g].members[rng.Intn(groupSize)]] = true
	}
	type slot struct {
		group, member, count int
		at                   time.Duration
	}
	var slots []*slot
	crashAt := c.Sim.Elapsed()
	for g, grp := range made {
		for _, m := range grp.members {
			s := &slot{group: g, member: m}
			slots = append(slots, s)
			c.Nodes[m].Fuse.RegisterFailureHandler(func(core.Notice) {
				s.count++
				s.at = c.Sim.Elapsed() - crashAt
			}, grp.id)
		}
	}
	for v := range crashed {
		c.Crash(v)
	}
	sp := r.span("sim", "Sim.RunFor crash")
	c.Sim.RunFor(10 * time.Minute)
	sp.end()

	affected := make(map[int]bool)
	for g, grp := range made {
		for _, m := range grp.members {
			if crashed[m] {
				affected[g] = true
			}
		}
	}
	lat := stats.NewSample(len(slots))
	broken := r.breakCheck
	for _, s := range slots {
		if !affected[s.group] || crashed[s.member] {
			continue
		}
		want := 1
		if broken { // test hook: demand a notification that cannot come
			want, broken = 2, false
		}
		r.check(s.count == want, "group %d member %d: %d notifications, want exactly 1", s.group, s.member, s.count)
		if s.count > 0 {
			lat.Add(s.at.Seconds())
		}
	}
	r.detail["crash_groups_affected"] = float64(len(affected))
	r.detail["notify_p50_virt_s"] = lat.Median()
	r.detail["notify_max_virt_s"] = lat.Max()
}

// --- steady-1k-sharded ---

func runSteadySharded(r *run) {
	var c *cluster.Cluster
	build := func(workers int) {
		rng := rand.New(rand.NewSource(r.seed))
		opts := simnet.DefaultOptions()
		sp := r.span("cluster", "cluster.New")
		c = cluster.New(cluster.Options{
			N: size.steadyNodes, Seed: r.seed, SimOptions: &opts,
			Workers: workers, Shards: steadyShards,
		})
		sp.end()
		createGroups(r, c, pickGroups(rng, size.steadyNodes, size.steadyGroups, groupSize))
		sp = r.span("sim", "Sim.RunFor drain")
		c.Sim.RunFor(2 * time.Minute)
		sp.end()
	}
	// The logical event order depends on the shard count only, so the
	// same inputs on one worker and on two must reach the same state.
	// Building both also gives setup_s two readings.
	var digests [2]string
	for i, workers := range []int{1, 2} {
		r.setup(func() { build(workers) })
		c.Sim.RunFor(2 * time.Minute)
		digests[i] = digestOf(c.Telemetry.RenderTable())
	}
	if r.breakCheck {
		digests[0] = "broken"
	}
	r.check(digests[0] == digests[1], "sim_digest differs between Workers=1 (%s) and Workers=2 (%s)", digests[0], digests[1])
	r.digest = digests[1]

	steadyWindow(r, c, size.steadySlice)
}

// --- group-lifecycle ---

// lifecycleRig drives create → register → signal → notified cycles over
// three random nodes of a simulated deployment, through the public
// facade. The workload and the core micro rungs share it.
type lifecycleRig struct {
	r   *run
	s   *fuse.Sim
	rng *rand.Rand

	createVirt             *stats.Sample // blocking-create latency, virtual ms
	createWall, notifyWall time.Duration
	cycles                 int
}

func newLifecycleRig(r *run, nodes int) *lifecycleRig {
	l := &lifecycleRig{r: r, rng: rand.New(rand.NewSource(r.seed))}
	sp := r.span("cluster", "fuse.NewSim")
	l.s = fuse.NewSim(nodes, r.seed)
	sp.end()
	l.reset()
	return l
}

// reset clears the accumulators (after warm-up).
func (l *lifecycleRig) reset() {
	l.createVirt = stats.NewSample(1 << 14)
	l.createWall, l.notifyWall, l.cycles = 0, 0, 0
}

func (l *lifecycleRig) pick3() [3]int {
	p := l.rng.Perm(l.s.Nodes())
	return [3]int{p[0], p[1], p[2]}
}

// standing creates groups that stay: every later create and notify works
// against link sets of this size. counted says whether the creates go
// into the run's tally (they do once, not for every repeated set-up).
func (l *lifecycleRig) standing(groups int, counted bool) {
	defer l.r.span("core", "Sim.CreateGroup standing").end()
	for g := 0; g < groups; g++ {
		m := l.pick3()
		_, err := l.s.CreateGroup(m[0], m[1], m[2])
		if counted || err != nil {
			l.r.check(err == nil, "standing group %d: %v", g, err)
		}
	}
}

// cycle runs one create → notified cycle and returns its wall time.
func (l *lifecycleRig) cycle() time.Duration {
	r, s := l.r, l.s
	t := time.Now()
	m := l.pick3()
	v0 := s.Now()
	sp := r.span("core", "Sim.CreateGroup")
	id, err := s.CreateGroup(m[0], m[1], m[2])
	sp.end()
	created := time.Since(t)
	l.createVirt.Add(msOf(s.Now().Sub(v0)))
	if err != nil {
		r.check(false, "cycle create %v: %v", m, err)
		return created
	}
	var fired [3]int
	for i, node := range m {
		s.RegisterFailureHandler(node, func(fuse.Notice) { fired[i]++ }, id)
	}
	s.SignalFailure(m[l.rng.Intn(3)], id)
	sp = r.span("sim", "signal→notified")
	// Every cycle takes the same virtual time whatever the latencies of
	// its three nodes, so the background work a cycle carries (pings over
	// links whose group sets just changed) is the same for every seed.
	// Past that, a cycle gets until 30 virtual seconds in all.
	s.RunFor(v0.Add(cycleVirtual).Sub(s.Now()))
	for step := 0; step < 104 && (fired[0] == 0 || fired[1] == 0 || fired[2] == 0); step++ {
		s.RunFor(250 * time.Millisecond)
	}
	sp.end()
	r.check(fired == [3]int{1, 1, 1}, "cycle over %v: notifications %v, want exactly one each", m, fired)
	d := time.Since(t)
	l.createWall += created
	l.notifyWall += d - created
	l.cycles++
	return d
}

func (l *lifecycleRig) createWallUS() float64 {
	return usOf(l.createWall) / float64(l.cycles)
}

func (l *lifecycleRig) notifyWallUS() float64 {
	return usOf(l.notifyWall) / float64(l.cycles)
}

func runGroupLifecycle(r *run) {
	var l *lifecycleRig
	for rep := 0; rep < size.lifecycleSetups; rep++ {
		r.setup(func() {
			l = newLifecycleRig(r, size.lifecycleNodes)
			l.standing(size.standingGroups, rep == 0)
		})
	}
	s := l.s
	for i := 0; i < size.warmCycles; i++ {
		l.cycle()
	}
	r.digest = digestOf(s.Telemetry().RenderTable())
	l.reset()
	notices0, _ := s.Telemetry().Value("fuse_notices_delivered_total")
	snap, virt0 := snapSim(s.Telemetry()), s.Now()

	w := r.measure(protoSwitch(s.Telemetry()))
	for w.next() {
		t := time.Now()
		for i := 0; i < size.cycleBatch; i++ {
			w.op(l.cycle())
		}
		w.batch(float64(size.cycleBatch), time.Since(t))
	}
	w.done()

	// Late duplicates would not show in a cycle's own check: the run's
	// notice count must be exactly three per cycle.
	notices, _ := s.Telemetry().Value("fuse_notices_delivered_total")
	want := int64(3 * l.cycles)
	if r.breakCheck {
		want++
	}
	r.check(notices-notices0 == want, "%d notices delivered over %d cycles, want %d", notices-notices0, l.cycles, want)

	r.detail["group_cycles_per_s"] = r.rates.Median()
	r.detail["cycle_p90_ms"] = r.ops.Percentile(90)
	r.detail["cycle_p99_ms"] = r.ops.Percentile(99)
	r.detail["create_p50_virt_ms"] = l.createVirt.Median()
	r.detail["create_wall_us"] = l.createWallUS()
	r.detail["notify_wall_us"] = l.notifyWallUS()
	r.detail["virt_s_per_cycle"] = s.Now().Sub(virt0).Seconds() / float64(l.cycles)
	simCounters(r, s.Telemetry(), snap)
}

// --- churn-150 ---

// churnOutcome is one build + run of the churn preset.
type churnOutcome struct {
	build  time.Duration
	run    time.Duration
	virt   float64 // virtual seconds the script covers
	events float64 // simulator events executed
	msgs   float64 // messages sent
	rep    *scenario.Report
	c      *cluster.Cluster // the deployment the run consumed
}

// churnOnce builds the churn preset for p and runs it through the
// scenario engine; nil means it could not run (already counted as a
// failure). proto switches the protocol-event trace on for the run.
func churnOnce(r *run, p scenario.Params, proto bool) *churnOutcome {
	sp := r.span("scenario", "scenario.BuildPreset")
	t := time.Now()
	c, script, err := scenario.BuildPreset("churn", p)
	out := &churnOutcome{build: time.Since(t), c: c}
	sp.end()
	if err != nil {
		r.check(false, "churn build seed %d: %v", p.Seed, err)
		return nil
	}
	if proto {
		c.Telemetry.EnableTrace(telemetry.TraceProto)
	}
	sp = r.span("scenario", "scenario.Run")
	t = time.Now()
	out.rep, err = scenario.Run(c, script)
	out.run = time.Since(t)
	sp.end()
	if err != nil {
		r.check(false, "churn run seed %d: %v", p.Seed, err)
		return nil
	}
	out.virt = script.Duration.Seconds()
	out.events, out.msgs = float64(c.Sim.Executed()), float64(c.Net.Sent())
	return out
}

func runChurn(r *run) {
	params := func(i int) scenario.Params {
		return scenario.Params{
			Nodes: size.churnNodes, Groups: size.churnGroups,
			Window: size.churnWindow, MeanDwell: size.churnMeanDwell,
			Seed: r.seed*1000 + int64(i),
		}
	}
	audit := func(i int, rep *scenario.Report) {
		ok := rep.OK() && rep.Duplicates == 0 && rep.Missed == 0
		if r.breakCheck && i == 0 {
			ok = false
		}
		r.check(ok, "churn run %d: %s", i, rep.Stats())
	}

	// Warm-up, and the fixed inputs the digest is taken over.
	if out := churnOnce(r, params(0), false); out != nil {
		audit(0, out.rep)
		r.digest = digestOf(out.rep.Stats(), out.rep.Trace)
	}

	var faults, notices, traceBytes, events, msgs, maxLatency float64
	runs := 0
	var last *cluster.Cluster // still referenced when the window closes, so heap_live_mb holds one deployment
	w := r.measure(nil)
	for i := 1; w.next(); i++ {
		out := churnOnce(r, params(i), w.tracing)
		if out == nil {
			continue
		}
		last = out.c
		audit(i, out.rep)
		r.setups.Add(out.build.Seconds())
		w.op(out.run)
		w.batch(out.virt, out.run)
		faults += float64(len(out.rep.Faults))
		notices += float64(out.rep.Notices)
		traceBytes += float64(len(out.rep.Trace))
		events += out.events
		msgs += out.msgs
		maxLatency = max(maxLatency, out.rep.MaxLatency.Seconds())
		runs++
	}
	w.done()
	runtime.KeepAlive(last)

	r.detail["virt_s_per_wall_s"] = r.rates.Median()
	r.detail["scenario_runs"] = float64(runs)
	r.detail["faults_per_run"] = faults / float64(runs)
	r.detail["notify_max_virt_s"] = maxLatency
	r.layer["run.faults"] = faults
	r.layer["run.notifications"] = notices
	r.layer["run.scenario_trace_bytes"] = traceBytes
	r.layer["run.events_per_work"] = events / r.work
	r.layer["run.events_per_s"] = events / r.wall.Seconds()
	r.layer["run.msgs_per_work"] = msgs / r.work
	r.layer["run.groups_made"] = float64(runs * size.churnGroups)
}

// --- live-loopback ---

type liveNote struct{ cycle, node int }

// liveRig drives create → signal → all-notified cycles over three live
// nodes on loopback TCP. The workload and the fuse micro rung share it.
type liveRig struct {
	r     *run
	nodes []*fuse.Node
	refs  []fuse.Peer

	// One channel for the whole run: every notification names its cycle,
	// so a duplicate that arrives late is still seen and counted.
	notes chan liveNote
	next  int // cycle number
	stale int // notifications for a cycle that had already ended

	createUS, notifyUS *stats.Sample
}

func (l *liveRig) close() {
	for _, n := range l.nodes {
		n.Close()
	}
	l.nodes = nil
}

// start brings up three joined nodes and runs warm cycles over them, so
// that a set-up ends where a user's would: every pair has dialled and
// the first groups have gone through.
func (l *liveRig) start(warm int) bool {
	l.close()
	sp := l.r.span("fuse", "fuse.Start x3")
	nodes, err := startLiveNodes(3)
	sp.end()
	if err != nil {
		l.r.check(false, "live set-up: %v", err)
		return false
	}
	l.nodes = nodes
	l.refs = []fuse.Peer{nodes[0].Ref(), nodes[1].Ref(), nodes[2].Ref()}
	l.notes = make(chan liveNote, 64)
	for range 2 { // once for the warm cycles to write into, once fresh
		l.createUS, l.notifyUS = stats.NewSample(1<<15), stats.NewSample(1<<15)
		for i := 0; i < warm; i++ {
			l.cycle()
		}
		warm = 0
	}
	return true
}

// cycle: the root (rotating) creates a group over all three, every node
// registers a handler, the last member signals, and the cycle ends when
// all three have been notified or five seconds have passed.
func (l *liveRig) cycle() time.Duration {
	r, i := l.r, l.next
	l.next++
	t := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	sp := r.span("fuse", "Node.CreateGroup")
	id, err := l.nodes[i%3].CreateGroup(ctx, l.refs)
	sp.end()
	cancel()
	created := time.Since(t)
	if err != nil {
		r.check(false, "live cycle %d create: %v", i, err)
		return created
	}
	for k, n := range l.nodes {
		n.RegisterFailureHandler(func(fuse.Notice) { l.notes <- liveNote{i, k} }, id)
	}
	l.nodes[(i+2)%3].SignalFailure(id)
	sp = r.span("fuse", "signal→notified")
	var got [3]int
	timeout := time.NewTimer(5 * time.Second)
wait:
	for got[0] == 0 || got[1] == 0 || got[2] == 0 {
		select {
		case nt := <-l.notes:
			if nt.cycle == i {
				got[nt.node]++
			} else {
				l.stale++
			}
		case <-timeout.C:
			break wait
		}
	}
	timeout.Stop()
	sp.end()
	d := time.Since(t)
	r.check(got == [3]int{1, 1, 1}, "live cycle %d: notifications %v, want exactly one each", i, got)
	l.createUS.Add(usOf(created))
	l.notifyUS.Add(usOf(d - created))
	return d
}

// drain counts what is still on its way after the last cycle: every
// cycle already saw its three notifications or timed out, so anything
// left is a duplicate.
func (l *liveRig) drain() int {
	time.Sleep(50 * time.Millisecond)
	return l.stale + len(l.notes)
}

func (l *liveRig) delivered() int64 {
	var total int64
	for _, n := range l.nodes {
		v, _ := n.Telemetry().Value("tcpnet_messages_delivered_total")
		total += v
	}
	return total
}

func runLiveLoopback(r *run) {
	l := &liveRig{r: r}
	defer l.close()
	for rep := 0; rep < size.liveSetups; rep++ {
		ok := false
		r.setup(func() { ok = l.start(size.liveWarmCycles) })
		if !ok {
			return
		}
	}
	delivered0 := l.delivered()

	w := r.measure(func(on bool) {
		for _, n := range l.nodes {
			protoSwitch(n.Telemetry())(on)
		}
	})
	measured := 0
	for w.next() {
		t := time.Now()
		for i := 0; i < size.liveBatch; i++ {
			w.op(l.cycle())
		}
		w.batch(float64(size.liveBatch), time.Since(t))
		measured += size.liveBatch
	}
	w.done()

	stale := l.drain()
	if r.breakCheck {
		stale++
	}
	r.check(stale == 0, "%d duplicate or late notifications", stale)

	msgs := float64(l.delivered() - delivered0)
	r.detail["group_cycles_per_s"] = r.rates.Median()
	r.detail["cycle_p50_ms"] = r.ops.Median()
	r.detail["cycle_p90_ms"] = r.ops.Percentile(90)
	r.detail["cycle_p99_ms"] = r.ops.Percentile(99)
	r.detail["msgs_per_cycle"] = msgs / float64(measured)
	r.detail["cpu_us_per_msg"] = usOf(r.cpu) / msgs
	r.detail["allocs_per_msg"] = float64(r.mallocs) / msgs
	r.detail["create_p50_us"] = l.createUS.Median()
	r.detail["notify_p50_us"] = l.notifyUS.Median()
	r.detail["cpu_util"] = r.cpu.Seconds() / r.wall.Seconds()
	r.layer["run.msgs_per_work"] = msgs / r.work
	r.layer["run.groups_made"] = float64(measured)
	r.layer["run.notifications"] = float64(3 * measured)
	// A live node's trace may only be read once its mailbox has stopped.
	nodes := l.nodes
	l.close()
	events := 0
	for _, n := range nodes {
		events += len(n.Telemetry().Events())
	}
	r.layer["run.proto_events"] = float64(events)
}

// startLiveNodes starts n loopback nodes joined through the first and
// waits until every node sees all the others as overlay neighbours.
func startLiveNodes(n int) ([]*fuse.Node, error) {
	var nodes []*fuse.Node
	fail := func(err error) ([]*fuse.Node, error) {
		for _, nd := range nodes {
			nd.Close()
		}
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		cfg := fuse.NodeConfig{Name: fmt.Sprintf("live%d.fuse.example.org", i), Bind: "127.0.0.1:0", TimeScale: 0.05}
		if i > 0 {
			cfg.Bootstrap = nodes[0].Ref()
		}
		nd, err := fuse.Start(cfg)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, nd)
		// One join at a time, each complete on both sides before the
		// next starts: a node that joins through a bootstrap which has
		// not yet recorded the previous joiner never hears of it, and
		// the ring stays unknit until maintenance finds it.
		for _, nd := range nodes {
			for len(nd.Neighbors()) < i {
				if time.Now().After(deadline) {
					return fail(fmt.Errorf("%s sees %d of %d neighbours after 10 s", nd.Ref().Name, len(nd.Neighbors()), i))
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	return nodes, nil
}
