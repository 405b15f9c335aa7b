// Command fusesim runs a scripted failure scenario in the deterministic
// simulator and prints what the scenario engine recorded - its event
// trace (groups created, every fault applied, every notification
// delivered), the per-fault latency attribution, and the invariant
// harness's verdict - so the protocol's behaviour can be inspected
// without a cluster. There is one run path: the scenario is a
// scenario.Script, and it comes from one of three places:
//
//	fusesim -nodes 400 -groups 40 -size 5 -crash 8
//	fusesim -scenario restart -seed 3
//	fusesim -scenario my-drill.json
//
// The sizing flags alone build the Figure 9 experiment, parameterized:
// random groups, then -crash nodes fail-stop together a minute in and
// every affected group must fail. -scenario names one of the engine's
// scripted failure drills (-list-scenarios describes them) or a scenario
// .json file (see the README's "writing your own scenario"). The report
// ends with the audit ("scenario ...: ... duplicates=0 missed=0"); a
// VIOLATION line after it, and a non-zero exit, mean the run broke
// exactly-once delivery.
//
// Every script names its deployment's size and seed; -nodes and -seed,
// when passed, set them, and the script is validated against them before
// anything runs. The size picks the topology (the paper-scale one beyond
// the default topology's 2,880 routers), and every run warms its overlay
// routes first. -dump prints the script as canonical JSON instead of
// running it, so a preset or a flag-built crash run can be saved and
// edited into a custom drill.
//
// -trace writes the run's one event stream as JSON Lines: the protocol's
// events (every ping too with -trace-pings) and the scenario engine's own
// record of the run - its "setup", "action", "fault", "restart", "notice"
// and "end" events, the only input the printed trace and audit are folded
// from, so the file alone re-audits to the printed report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/scenario"
	"fuse/internal/telemetry"
)

// telemetryOpts carries the -trace/-trace-pings/-metrics flags.
type telemetryOpts struct {
	traceTo string
	pings   bool
	metrics bool
}

// arm sets the trace level before the run; protocol events are only
// recorded while a level is enabled (the engine's own at any level), so
// this must precede any protocol activity that should appear in the
// output.
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
		script  = flag.String("scenario", "", fmt.Sprintf("run a scripted fault scenario instead (one of %v, or a path to a scenario .json file)", scenario.Names()))
		short   = flag.Bool("short", false, "trim scenario windows (with -scenario)")
		list    = flag.Bool("list-scenarios", false, "list the built-in scenario presets and exit")
		dump    = flag.Bool("dump", false, "print the scenario as canonical JSON instead of running it")
		workers = flag.Int("workers", 0, "event-loop worker goroutines over the default shard count (at most this many per window; a window with fewer than 32 events queued runs on one); 0 = all nodes on one shard, one goroutine (traces are identical at every count >= 1)")
		traceTo = flag.String("trace", "", "write the event stream - protocol events plus the scenario engine's record of the run - as JSON Lines to this file (deterministic: diff two runs directly)")
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

	// Forward only the sizing flags the user explicitly set, so a
	// preset's (or script file's) own deployment applies otherwise.
	sp := scenario.Params{Short: *short, Workers: *workers, Seed: *seed}
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
	var (
		c   *cluster.Cluster
		s   scenario.Script
		err error
	)
	switch {
	case *script == "":
		if *size < 2 || *size > *nodes || *crash < 0 || *crash >= *nodes {
			err = fmt.Errorf("need 2 <= size <= nodes and 0 <= crash < nodes")
			break
		}
		s = crashScript(*nodes, *groups, *size, *crash, *seed, *window)
	case strings.HasSuffix(*script, ".json"):
		s, err = loadFile(*script)
	default:
		if c, s, err = scenario.BuildPreset(*script, sp); err != nil {
			err = fmt.Errorf("%w\n(-list-scenarios describes the presets; a path ending in .json runs a scenario script file)", err)
		}
	}
	if err == nil && c == nil {
		// -nodes and -seed, when passed, set the script's deployment (a
		// preset took them through Params and is validated already).
		if sp.Nodes != 0 {
			s.Nodes = sp.Nodes
		}
		if seedSet {
			s.Seed = *seed
		}
		err = s.Validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusesim: %v\n", err)
		os.Exit(2)
	}
	if *dump {
		data, err := s.Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusesim: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if c == nil {
		c = cluster.New(cluster.Options{N: s.Nodes, Seed: s.Seed, Workers: *workers})
	}

	c.WarmRoutes(nil)
	topts := telemetryOpts{traceTo: *traceTo, pings: *pings, metrics: *metrics}
	topts.arm(c.Telemetry)
	rep, err := scenario.Run(c, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusesim: %v\n", err)
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

// loadFile reads and validates a scenario .json file.
func loadFile(path string) (scenario.Script, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scenario.Script{}, err
	}
	s, err := scenario.Load(data)
	if err != nil {
		return scenario.Script{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// crashScript is the scenario the sizing flags describe: on nodes nodes
// and seed, random groups, then the victims fail-stop together one
// minute after creation settles and the run watches for window
// (scenario.CrashScript). The draws come from a stream of their own,
// separate from the simulator's internal randomness.
func crashScript(nodes, groups, size, crash int, seed int64, window time.Duration) scenario.Script {
	rng := &permRand{state: uint64(seed)*2862933555777941757 + 3037000493}
	var specs []scenario.GroupSpec
	for g := 0; g < groups; g++ {
		perm := rng.Perm(nodes)[:size]
		specs = append(specs, scenario.GroupSpec{Root: perm[0], Members: perm[1:]})
	}
	s := scenario.CrashScript("crash", specs, time.Minute, rng.Perm(nodes)[:crash])
	s.Nodes, s.Seed = nodes, seed
	s.Duration = scenario.Duration(time.Minute + window)
	return s
}

// permRand is crashScript's generator: it is what picks the same groups
// and victims for a seed from one release to the next.
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
