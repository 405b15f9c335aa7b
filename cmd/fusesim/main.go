// Command fusesim runs a scripted failure scenario in the deterministic
// simulator and prints the notification timeline, so the protocol's
// behaviour can be inspected without a cluster:
//
//	fusesim -nodes 400 -groups 40 -size 5 -crash 8
//
// builds an overlay, creates the groups, crashes the requested number of
// nodes at t=0, and reports when every affected member heard its
// notification (the Figure 9 experiment, parameterized).
//
// Alternatively, -scenario runs one of the scenario engine's scripted
// failure drills (churn, intransitive, partition-heal, restart) or a
// scenario .json file (see the README's "writing your own scenario"),
// and prints its deterministic event trace, per-fault latency
// attribution, and the invariant harness's verdict:
//
//	fusesim -scenario restart -seed 3
//	fusesim -scenario my-drill.json
//	fusesim -list-scenarios
//
// -dump prints the scenario as canonical JSON instead of running it, so
// a preset can be saved and edited into a custom drill.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fuse"
	"fuse/internal/cluster"
	"fuse/internal/scenario"
	"fuse/internal/telemetry"
)

// telemetryOpts carries the -trace/-trace-pings/-metrics flags through
// both run paths (the Figure 9 crash experiment and -scenario).
type telemetryOpts struct {
	traceTo string
	pings   bool
	metrics bool
}

// arm sets the trace level before the run; events are only recorded
// while a level is enabled, so this must precede any protocol activity
// that should appear in the output.
func (o telemetryOpts) arm(reg *telemetry.Registry) {
	if o.traceTo == "" {
		return
	}
	lvl := telemetry.TraceProto
	if o.pings {
		lvl = telemetry.TraceVerbose
	}
	reg.EnableTrace(lvl)
}

// finish writes the trace file and prints the metrics snapshot after the
// run. Both outputs are deterministic for a given seed and worker count
// (and identical across worker counts), so two runs can be diffed.
func (o telemetryOpts) finish(reg *telemetry.Registry) {
	if o.traceTo != "" {
		f, err := os.Create(o.traceTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: -trace: %v\n", err)
			os.Exit(1)
		}
		if err := reg.WriteTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("protocol-event trace written to %s\n", o.traceTo)
	}
	if o.metrics {
		fmt.Print("\ntelemetry snapshot:\n" + reg.RenderTable())
	}
}

func main() {
	var (
		nodes   = flag.Int("nodes", 100, "overlay size")
		groups  = flag.Int("groups", 20, "number of FUSE groups")
		size    = flag.Int("size", 5, "members per group")
		crash   = flag.Int("crash", 2, "nodes to crash simultaneously")
		seed    = flag.Int64("seed", 1, "random seed (same seed => identical run)")
		window  = flag.Duration("window", 10*time.Minute, "virtual time to observe after the crash")
		paper   = flag.Bool("paper", false, "use the paper-scale topology (required beyond ~2,880 nodes, e.g. -nodes 16000)")
		script  = flag.String("scenario", "", fmt.Sprintf("run a scripted fault scenario instead (one of %v, or a path to a scenario .json file)", scenario.Names()))
		short   = flag.Bool("short", false, "trim scenario windows (with -scenario)")
		list    = flag.Bool("list-scenarios", false, "list the built-in scenario presets and exit")
		dump    = flag.Bool("dump", false, "with -scenario: print the scenario as canonical JSON instead of running it")
		workers = flag.Int("workers", 0, "event-loop worker goroutines over the default shard count; 0 = all nodes on one shard, one goroutine (traces are identical at every count >= 1)")
		traceTo = flag.String("trace", "", "write the protocol-event trace as JSON Lines to this file (deterministic: diff two runs directly)")
		pings   = flag.Bool("trace-pings", false, "with -trace: include per-ping/ack events (verbose; large)")
		metrics = flag.Bool("metrics", false, "print the end-of-run telemetry snapshot table")
	)
	flag.Parse()
	if *list {
		fmt.Println("built-in scenario presets (fusesim -scenario <name>):")
		for _, name := range scenario.Names() {
			fmt.Printf("  %-15s %s\n", name, scenario.Describe(name))
		}
		fmt.Println("\na path ending in .json runs a scenario script file instead (see the README).")
		return
	}
	if *script != "" {
		// Forward only the sizing flags the user explicitly set, so the
		// preset's (or script file's) tuned defaults apply otherwise.
		sp := scenario.Params{Short: *short, Workers: *workers}
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes":
				sp.Nodes = *nodes
			case "groups":
				sp.Groups = *groups
			case "window":
				sp.Window = *window
			case "seed":
				seedSet = true
			}
		})
		if seedSet || !strings.HasSuffix(*script, ".json") {
			// A .json file carries its own seed; presets default to 1.
			sp.Seed = *seed
		}
		runScenario(*script, sp, *dump, telemetryOpts{traceTo: *traceTo, pings: *pings, metrics: *metrics})
		return
	}
	if *size > *nodes || *crash >= *nodes {
		fmt.Fprintln(os.Stderr, "fusesim: size/crash must be smaller than nodes")
		os.Exit(2)
	}

	var sim *fuse.Sim
	if *paper {
		sim = fuse.NewSimPaperScaleWorkers(*nodes, *seed, *workers)
	} else {
		sim = fuse.NewSimWorkers(*nodes, *seed, *workers)
	}
	topts := telemetryOpts{traceTo: *traceTo, pings: *pings, metrics: *metrics}
	topts.arm(sim.Telemetry())
	fmt.Printf("overlay of %d nodes up; creating %d groups of %d...\n", *nodes, *groups, *size)

	rng := newRng(*seed)
	type groupRec struct {
		id      fuse.GroupID
		members []int
	}
	var made []groupRec
	for g := 0; g < *groups; g++ {
		perm := rng.Perm(*nodes)[:*size]
		id, err := sim.CreateGroup(perm[0], perm[1:]...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: create: %v\n", err)
			os.Exit(1)
		}
		made = append(made, groupRec{id: id, members: perm})
	}

	crashed := map[int]bool{}
	for _, v := range rng.Perm(*nodes)[:*crash] {
		crashed[v] = true
	}

	// One pre-allocated slot per (group, member) registration: handlers
	// run in their node's event context (with -workers, on shard worker
	// goroutines), so each writes only its own slot, timestamped with the
	// member's own node clock; exactly-once delivery means a slot is hit
	// at most once.
	type event struct {
		at    time.Duration
		node  int
		group fuse.GroupID
		hit   bool
	}
	events := make([]event, 0, len(made)**size)
	var crashAt time.Time
	armed := false
	for _, g := range made {
		for _, m := range g.members {
			events = append(events, event{node: m, group: g.id})
			ev := &events[len(events)-1]
			m := m
			sim.RegisterFailureHandler(m, func(fuse.Notice) {
				if !crashed[m] && armed {
					ev.hit = true
					ev.at = sim.NodeNow(m).Sub(crashAt)
				}
			}, g.id)
		}
	}

	sim.RunFor(time.Minute)
	crashAt = sim.Now()
	armed = true
	for v := range crashed {
		sim.Crash(v)
	}
	fmt.Printf("crashed %d nodes at t=0; observing for %v of virtual time...\n\n", *crash, *window)
	sim.RunFor(*window)

	fired := events[:0:0]
	for _, ev := range events {
		if ev.hit {
			fired = append(fired, ev)
		}
	}
	events = fired
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].node < events[j].node
	})
	affected := map[string]bool{}
	for _, g := range made {
		for _, m := range g.members {
			if crashed[m] {
				affected[g.id.String()] = true
			}
		}
	}
	for _, ev := range events {
		fmt.Printf("  t=%7.1fs  node %3d notified for group %s\n", ev.at.Seconds(), ev.node, ev.group)
	}
	fmt.Printf("\n%d affected groups, %d notifications delivered; none lost.\n", len(affected), len(events))
	topts.finish(sim.Telemetry())
}

// runScenario executes a scenario-engine preset or a scenario .json
// file and prints the deterministic event trace, the per-fault latency
// attribution, and the invariant harness's verdict. With dump set, it
// prints the scenario as canonical JSON instead of running it.
func runScenario(name string, sp scenario.Params, dump bool, topts telemetryOpts) {
	var (
		c    *cluster.Cluster
		s    scenario.Script
		seed = sp.Seed
		err  error
	)
	if strings.HasSuffix(name, ".json") {
		data, rerr := os.ReadFile(name)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "fusesim: %v\n", rerr)
			os.Exit(2)
		}
		sf, lerr := scenario.Load(data)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "fusesim: %s: %v\n", name, lerr)
			os.Exit(2)
		}
		if seed == 0 {
			seed = sf.Seed
		}
		c, s, err = sf.Build(sp)
	} else {
		c, s, err = scenario.BuildPreset(name, sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: %v\n(-list-scenarios describes the presets; a path ending in .json runs a scenario script file)\n", err)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusesim: %v\n", err)
		os.Exit(2)
	}
	if dump {
		data, err := scenario.ToFile(len(c.Nodes), seed, s).Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	topts.arm(c.Telemetry)
	rep, err := scenario.Run(c, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusesim: scenario %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Print(rep.Trace)
	if ft := rep.FaultTable(); ft != "" {
		fmt.Print("per-fault latency attribution:\n" + ft)
		// The harness records the same latencies into the telemetry
		// histogram at audit time; surface its summary next to the table.
		if n, sum, ok := c.Telemetry.HistogramValue("scenario_detection_latency_ms"); ok && n > 0 {
			fmt.Printf("detection latency histogram: count=%d mean=%s\n",
				n, (sum / time.Duration(n)).Round(time.Millisecond))
		}
	}
	fmt.Print(rep.Stats())
	topts.finish(c.Telemetry)
	if !rep.OK() {
		os.Exit(1)
	}
}

// newRng gives the scenario driver its own deterministic stream, separate
// from the simulator's internal randomness.
func newRng(seed int64) *permRand {
	return &permRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

type permRand struct{ state uint64 }

func (r *permRand) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 16
}

func (r *permRand) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
