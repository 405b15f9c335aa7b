package scenario

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"fuse/internal/cluster"
)

// Presets: the recurring failure drills, each a ~20-line script mapped
// to the paper section it reproduces. A preset's script names its
// deployment (nodes and seed); BuildPreset validates it and returns it
// with the cluster it names; run with Run(c, s).

// Params scales a preset.
type Params struct {
	// Nodes is the deployment size; 0 means the preset's default.
	Nodes int
	// Seed drives all randomness (same seed => identical run).
	Seed int64
	// Short trims windows for use under `go test`.
	Short bool
	// Groups overrides the churn preset's group count; 0 means default.
	Groups int
	// MeanDwell overrides the churn preset's mean up/down dwell time
	// (the churn rate axis of §7.4); 0 means default.
	MeanDwell time.Duration
	// Window overrides the churn preset's churn window; 0 means default.
	Window time.Duration
	// Workers is cluster.Options.Workers: 0 runs every node on one
	// event shard; >= 1 partitions them into the default shard count,
	// executed by that many goroutines. Traces and reports are
	// byte-identical across worker counts (>= 1).
	Workers int
}

// presets is the one table of drills. describe is the one-line summary
// fusesim -list-scenarios prints.
var presets = map[string]struct {
	build    func(p Params) (Script, error)
	describe string
}{
	"churn":          {churnPreset, "§7.4: groups pinned to stable nodes ride out Poisson churn, then one member of each crashes"},
	"intransitive":   {intransitivePreset, "§3.4: two members lose only their mutual connectivity; the application signals fail-on-send"},
	"partition-heal": {partitionHealPreset, "§3: a partition with a straddling group and a contained group, healed selectively"},
	"restart":        {restartPreset, "§3.6: a brief crash masked by stable storage vs. the same crash without it"},
}

// Describe returns the one-line summary of a preset ("" if unknown).
func Describe(name string) string { return presets[name].describe }

// Names lists the available presets, sorted.
func Names() []string { return slices.Sorted(maps.Keys(presets)) }

// BuildPreset constructs the named preset's script, validates it, and
// builds the cluster it names. A Nodes override too small for the
// preset's pinned node indices fails validation, naming the field.
func BuildPreset(name string, p Params) (*cluster.Cluster, Script, error) {
	ps, ok := presets[name]
	if !ok {
		return nil, Script{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, Names())
	}
	s, err := ps.build(p)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return nil, Script{}, err
	}
	return cluster.New(cluster.Options{N: s.Nodes, Seed: s.Seed, Workers: p.Workers}), s, nil
}

// CrashScript is the drill every crash-latency experiment runs: the
// victims fail-stop together at the one instant at (timeline-relative; a
// repeated victim crashes once), and a group that loses some but not all
// of its members must fail - the audit then holds the run to "every live
// member of an affected group hears exactly once". The caller sets
// Duration: the span Run runs, or the one a driver runs itself.
func CrashScript(name string, groups []GroupSpec, at time.Duration, victims []int) Script {
	s := Script{Name: name, Groups: groups}
	down := make(map[int]bool, len(victims))
	for _, v := range victims {
		if !down[v] {
			down[v] = true
			s.Events = append(s.Events, Event{At: at, Do: Crash{Node: v}})
		}
	}
	for gi, g := range groups {
		lost := 0
		for _, m := range append([]int{g.Root}, g.Members...) {
			if down[m] {
				lost++
			}
		}
		if lost > 0 && lost <= len(g.Members) {
			s.ExpectFail = append(s.ExpectFail, gi)
		}
	}
	return s
}

func (p Params) nodes(def int) int {
	if p.Nodes > 0 {
		return p.Nodes
	}
	return def
}

// ChurnWindow returns the churn window the churn preset will use for p:
// how long the Poisson process actually runs. Experiments normalize
// realized fault rates by this, not by the script's full duration
// (which also spans setup, the crash phase, and the drain).
func ChurnWindow(p Params) time.Duration {
	if p.Window > 0 {
		return p.Window
	}
	if p.Short {
		return 8 * time.Minute
	}
	return 15 * time.Minute
}

// restartPreset is the §3.6 drill: one member crashes briefly and
// recovers from stable storage - the group must survive without any
// notification (the restart is masked, resumed via Recover). A second
// member crashes and restarts *without* storage - its group must fail
// and notify every remaining member exactly once.
func restartPreset(p Params) (Script, error) {
	return Script{
		Name:  "restart",
		Nodes: p.nodes(32),
		Seed:  p.Seed,
		Groups: []GroupSpec{
			{Root: 0, Members: []int{10, 20}, Stores: []int{10}},
			{Root: 3, Members: []int{9, 15}},
		},
		Events: []Event{
			// Brief crash, well under the neighbor ping timeout: stable
			// storage masks it (§3.6).
			{At: 2 * time.Minute, Do: Crash{Node: 10}},
			{At: 2*time.Minute + 10*time.Second, Do: Restart{Node: 10, Bootstrap: 0, Recover: true}},
			// Same brief crash without storage: the fresh process has
			// forgotten the group, so repair must fail it.
			{At: 12 * time.Minute, Do: Crash{Node: 9}},
			{At: 12*time.Minute + 10*time.Second, Do: Restart{Node: 9, Bootstrap: 3}},
		},
		Duration:      Duration(30 * time.Minute),
		ExpectSurvive: []int{0},
		ExpectFail:    []int{1},
	}, nil
}

// partitionHealPreset is the §3 partition drill with selective healing:
// a group spanning the cut must fail on both sides; a group inside one
// side must survive the partition *and* its repair traffic; and healing
// the partition must not disturb the unrelated loss ramp installed
// before it (the composability the engine needs from simnet).
func partitionHealPreset(p Params) (Script, error) {
	n := p.nodes(40)
	half := n / 2
	sideA := make([]int, half)
	sideB := make([]int, n-half)
	for i := range sideA {
		sideA[i] = i
	}
	for i := range sideB {
		sideB[i] = half + i
	}
	sides := [][]int{sideA, sideB}
	return Script{
		Name:  "partition-heal",
		Nodes: n,
		Seed:  p.Seed,
		Groups: []GroupSpec{
			{Root: 2, Members: []int{5, half + 5}}, // spans the cut
			{Root: 8, Members: []int{11, 14}},      // inside side A
		},
		Events: []Event{
			{At: time.Minute, Do: LossRamp{A: half + 10, B: half + 15, From: 0, To: 0.3, Steps: 4, Over: Duration(4 * time.Minute)}},
			{At: 2 * time.Minute, Do: Partition{Sides: sides}},
			{At: 21 * time.Minute, Do: Heal{Sides: sides}},
		},
		Duration:      Duration(35 * time.Minute),
		ExpectFail:    []int{0},
		ExpectSurvive: []int{1},
	}, nil
}

// intransitivePreset is the §3.4 drill (converted from the old
// examples/intransitive): the two workers lose connectivity to each
// other only. FUSE's monitored tree does not use that path, so nothing
// fires for ten minutes - the hard case where a membership service must
// either lie or block. The application then hits the broken path and
// signals, and all three members (including the pair that cannot talk
// to each other) converge on the failure exactly once.
func intransitivePreset(p Params) (Script, error) {
	return Script{
		Name:  "intransitive",
		Nodes: p.nodes(24),
		Seed:  p.Seed,
		Groups: []GroupSpec{
			{Root: 2, Members: []int{8, 15}},
		},
		Events: []Event{
			{At: time.Minute, Do: BlockPair{A: 8, B: 15}},
			// Ten minutes of nothing: the block is invisible to the
			// monitored paths. Then fail-on-send.
			{At: 11 * time.Minute, Do: Signal{Node: 8, Group: 0}},
		},
		Duration:   Duration(14 * time.Minute),
		ExpectFail: []int{0},
	}, nil
}

// churnPreset is the §7.4 drill: groups pinned to stable nodes while
// the rest of the overlay churns with exponentially distributed dwell
// times (restarts without storage, as in the paper), then one member of
// every group crashes. Every group must fail and notify each surviving
// member exactly once - notification reliability under churn.
func churnPreset(p Params) (Script, error) {
	n := p.nodes(40)
	stable := max(n*3/5, 1) // the placement below takes indices mod stable
	groups := p.Groups
	if groups <= 0 {
		groups = 6
	}
	dwell := p.MeanDwell
	if dwell <= 0 {
		dwell = 8 * time.Minute
	}
	window := ChurnWindow(p)

	s := Script{Name: "churn", Nodes: n, Seed: p.Seed}
	crash := make(map[int]bool)
	// Quarter-stride placement: each group's nodes sit a quarter of the
	// stable population apart in the name space, so the InstallChecking
	// routes between them cross intermediate hops - delegates that may
	// well be churners. Consecutive indices would be ring neighbors with
	// direct (delegate-free) tree links, and churn would never touch the
	// checking trees. The three offsets are distinct for any stable >= 4
	// (integer division keeps them strictly increasing and below
	// stable), so a group never lists the same node twice regardless of
	// the group count; on fewer stable nodes validation names the
	// repeated member.
	for g := 0; g < groups; g++ {
		spec := GroupSpec{
			Root: g % stable,
			Members: []int{
				(g + stable/4) % stable,
				(g + stable/2) % stable,
				(g + 3*stable/4) % stable,
			},
		}
		s.Groups = append(s.Groups, spec)
		s.ExpectFail = append(s.ExpectFail, g)
		crash[spec.Members[2]] = true
	}
	// Every group must keep at least one member out of the crash set, or
	// there is nobody left to notify and the drill is vacuous (with many
	// groups on a small stable population the victims can cover it).
	for g, spec := range s.Groups {
		survivors := 0
		for _, m := range append([]int{spec.Root}, spec.Members...) {
			if !crash[m] {
				survivors++
			}
		}
		if survivors == 0 {
			return Script{}, fmt.Errorf(
				"scenario script: groups[%d]: no member survives the crash (%d groups on %d stable nodes); use more nodes or fewer groups",
				g, groups, stable)
		}
	}

	churnStart := 30 * time.Second
	s.Events = append(s.Events,
		Event{At: churnStart, Do: ChurnStart{First: stable, Count: n - stable, MeanDwell: Duration(dwell), Bootstrap: 0}},
		Event{At: churnStart + window, Do: ChurnStop{}},
	)
	crashAt := churnStart + window + time.Minute
	for _, v := range slices.Sorted(maps.Keys(crash)) {
		s.Events = append(s.Events, Event{At: crashAt, Do: Crash{Node: v}})
	}
	s.Duration = Duration(crashAt + 10*time.Minute)
	return s, nil
}
