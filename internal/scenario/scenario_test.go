package scenario

import (
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"fuse/internal/cluster"
)

// run builds and executes a preset, failing the test on any invariant
// violation.
func run(t *testing.T, name string, p Params) *Report {
	t.Helper()
	c, s, err := BuildPreset(name, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scenario %s violated invariants:\n%s\ntrace:\n%s", name, rep.Stats(), rep.Trace)
	}
	return rep
}

// TestDeterminism: the same seed and script produce a byte-identical
// event trace and identical harness statistics across two runs. The
// churn preset is the most randomness-hungry script (Poisson dwell
// times drawn from the simulation rng, overlay rejoin traffic), so it
// is the sharpest determinism probe.
func TestDeterminism(t *testing.T) {
	p := Params{Seed: 5, Short: true}
	a := run(t, "churn", p)
	b := run(t, "churn", p)
	if a.Trace != b.Trace {
		t.Fatal("same seed + script produced different event traces")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed + script produced different stats:\n%s\nvs\n%s", a.Stats(), b.Stats())
	}
	if a.Trace == "" || !strings.Contains(a.Trace, "churn crash") {
		t.Fatal("trace did not record churn activity")
	}

	// And the seed matters: a different seed gives a different run.
	c, s, err := BuildPreset("churn", Params{Seed: 6, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if other.Trace == a.Trace {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestIntransitiveExactlyOnce is the §3.4 regression (converted from
// the old examples/intransitive): an intransitive connectivity failure
// between the two workers must produce no automatic notification - the
// monitored tree does not use the broken path - and the subsequent
// application signal must reach all three members exactly once,
// including the pair that cannot talk to each other.
func TestIntransitiveExactlyOnce(t *testing.T) {
	rep := run(t, "intransitive", Params{Seed: 7})
	if rep.Failed != 1 || rep.Notices != 3 || rep.Duplicates != 0 || rep.Missed != 0 {
		t.Fatalf("want 1 failed group, 3 exactly-once notices; got %s", rep.Stats())
	}
	// No false positive during the ten minutes the pair was blocked:
	// every notification in the trace comes after the signal.
	sig := strings.Index(rep.Trace, "signal group=0")
	if sig < 0 {
		t.Fatalf("trace missing signal event:\n%s", rep.Trace)
	}
	if notify := strings.Index(rep.Trace, "notify group=0"); notify >= 0 && notify < sig {
		t.Fatalf("notification before the application signal (false positive):\n%s", rep.Trace)
	}
	// The audit's attribution agrees: the cut caused no notice, and all
	// three are the signal's. A verdict per group, not per node.
	if len(rep.Faults) != 2 {
		t.Fatalf("want 2 faults (block, signal), got %+v", rep.Faults)
	}
	if cut, sig := rep.Faults[0], rep.Faults[1]; cut.Notices != 0 || sig.Notices != 3 {
		t.Fatalf("notices per fault: %q %d, %q %d; want 0 and 3", cut.Desc, cut.Notices, sig.Desc, sig.Notices)
	}
	// A signal needs no detection: the fan-out alone reaches everyone.
	if rep.MaxLatency <= 0 || rep.MaxLatency > 2*time.Minute {
		t.Fatalf("max latency %s out of range (0, 2m]", rep.MaxLatency)
	}
}

// TestRestartLifecycle is the §3.6 drill: a brief crash with stable
// storage is masked (the recovered member resumes via Recover, no
// notification anywhere), while the same crash without storage fails
// the group and notifies the survivors exactly once.
func TestRestartLifecycle(t *testing.T) {
	rep := run(t, "restart", Params{Seed: 3})
	if rep.Survived != 1 || rep.Failed != 1 {
		t.Fatalf("want 1 survived + 1 failed, got %s", rep.Stats())
	}
	if strings.Contains(rep.Trace, "notify group=0") {
		t.Fatalf("group 0 (restart with persistence) was notified:\n%s", rep.Trace)
	}
	// The root and the remaining member of group 1 each hear exactly
	// once; the restarted-without-storage node is a fresh process.
	if n := strings.Count(rep.Trace, "notify group=1"); n != 2 {
		t.Fatalf("group 1 notified %d times, want 2:\n%s", n, rep.Trace)
	}
	if rep.MaxLatency <= 0 || rep.MaxLatency > 10*time.Minute {
		t.Fatalf("max latency %s out of range (0, 10m]", rep.MaxLatency)
	}
}

// TestPartitionHealsSelectively checks both the scenario outcome (the
// spanning group fails on both sides, the intra-side group survives)
// and the rule plumbing underneath: healing the partition must leave
// the unrelated loss ramp in force - exactly the per-pair composability
// ClearRule/HealPartition were added for.
func TestPartitionHealsSelectively(t *testing.T) {
	c, s, err := BuildPreset("partition-heal", Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations:\n%s\ntrace:\n%s", rep.Stats(), rep.Trace)
	}
	if rep.Failed != 1 || rep.Survived != 1 {
		t.Fatalf("want 1 failed + 1 survived, got %s", rep.Stats())
	}
	if rep.MaxLatency <= 0 || rep.MaxLatency > 10*time.Minute {
		t.Fatalf("max latency %s out of range (0, 10m]", rep.MaxLatency)
	}
	// After the selective heal only the ramp's two directional loss
	// overrides remain.
	n := len(c.Nodes)
	a, b := c.Nodes[n/2+10].Addr, c.Nodes[n/2+15].Addr
	if loss, ok := c.Net.LossOverride(a, b); !ok || loss != 0.3 {
		t.Fatalf("loss ramp gone after heal: %v,%v", loss, ok)
	}
	if got := c.Net.RuleCount(); got != 2 {
		t.Fatalf("rule table holds %d entries after heal, want 2 (the ramp)", got)
	}
}

// TestChurnInvariants: under Poisson churn plus a crash of one member
// per group, every group fails and every surviving member hears exactly
// once - zero missed, zero duplicated.
func TestChurnInvariants(t *testing.T) {
	rep := run(t, "churn", Params{Seed: 1, Short: true})
	if rep.Failed != rep.Groups || rep.Missed != 0 || rep.Duplicates != 0 {
		t.Fatalf("churn run inconsistent: %s", rep.Stats())
	}
	// 6 groups x 3 surviving members (the crashed member is exempt).
	if rep.Notices != 18 {
		t.Fatalf("got %d notices, want 18: %s", rep.Notices, rep.Stats())
	}
	if rep.MaxLatency <= 0 || rep.MaxLatency > 8*time.Minute {
		t.Fatalf("max latency %s out of range", rep.MaxLatency)
	}
}

// TestHarnessCatchesBrokenExpectations: the harness itself must flag a
// script whose expectations contradict the run (a surviving group
// declared ExpectFail), or it proves nothing.
func TestHarnessCatchesBrokenExpectations(t *testing.T) {
	c, s, err := BuildPreset("restart", Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Invert the expectations: the persistent group is now "expected"
	// to fail.
	s.ExpectFail, s.ExpectSurvive = s.ExpectSurvive, s.ExpectFail
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("harness accepted a run that contradicted the script's expectations")
	}
}

// TestPresetRejectsUndersizedOverlay: presets pin concrete node
// indices, so at every size from 1 to its default each preset either
// builds and starts or fails with an error naming the offending field -
// never an index panic mid-run.
func TestPresetRejectsUndersizedOverlay(t *testing.T) {
	field := regexp.MustCompile(`^scenario script: [a-z_]+(\[\d+\])*(\.[a-z_]+(\[\d+\])*)*: `)
	for _, name := range Names() {
		def, err := presets[name].build(Params{})
		if err != nil {
			t.Fatalf("%s at its default size: %v", name, err)
		}
		for n := 1; n <= def.Nodes; n++ {
			c, s, err := BuildPreset(name, Params{Seed: 1, Nodes: n})
			if err == nil {
				_, err = Start(c, s)
			}
			if err != nil && !field.MatchString(err.Error()) {
				t.Errorf("%s at %d nodes: the error names no field: %v", name, n, err)
			}
		}
	}
}

// TestStartValidatesGoBuiltScripts: a script built in Go is held to the
// validation its JSON form gets. Start checks it against the cluster it is
// handed and rejects it with the error Load gives for that form.
func TestStartValidatesGoBuiltScripts(t *testing.T) {
	c := cluster.New(cluster.Options{N: 16, Seed: 1})
	cases := []struct {
		name   string
		events []Event
		member int
		want   string
	}{
		{"member out of range", nil, 16, "groups[0].members[1]: 16 out of range [0, 16)"},
		{"signal from a non-member", []Event{{At: time.Minute, Do: Signal{Node: 9, Group: 0}}}, 2, "events[0].node: node 9 is not in group 0"},
		{"event after the duration", []Event{{At: 11 * time.Minute, Do: Crash{Node: 1}}}, 2, "events[0].at: 11m0s is past the script duration 10m0s"},
		{"recover without a store", []Event{
			{At: time.Minute, Do: Crash{Node: 1}},
			{At: 2 * time.Minute, Do: Restart{Node: 1, Bootstrap: 0, Recover: true}},
		}, 2, "events[1].recover: node 1 has no store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Script{
				Name:     tc.name,
				Groups:   []GroupSpec{{Root: 0, Members: []int{1, tc.member}}},
				Events:   tc.events,
				Duration: Duration(10 * time.Minute),
			}
			file := s
			file.Nodes = len(c.Nodes)
			data, err := file.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			_, loadErr := Load(data)
			if loadErr == nil || !strings.Contains(loadErr.Error(), tc.want) {
				t.Fatalf("Load: got %v, want %q", loadErr, tc.want)
			}
			if _, err := Start(c, s); err == nil || err.Error() != loadErr.Error() {
				t.Errorf("Start: got %v, want Load's %q", err, loadErr)
			}
		})
	}
}

// TestStartReportIsRun: a driver that advances the clock itself - in
// pieces, the way the experiment drivers do around their measurement
// windows - gets the trace and statistics Run gives, on every preset.
func TestStartReportIsRun(t *testing.T) {
	for _, name := range Names() {
		p := Params{Seed: 4, Short: true}
		whole := run(t, name, p)
		c, s, err := BuildPreset(name, p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Start(c, s)
		if err != nil {
			t.Fatal(err)
		}
		d := time.Duration(s.Duration)
		c.Sim.RunFor(d / 3)
		c.Sim.RunFor(d - d/3)
		rep := e.Report()
		if rep.Trace != whole.Trace || rep.Stats() != whole.Stats() {
			t.Errorf("%s: Start + RunFor + Report differs from Run:\n%s\nvs\n%s", name, rep.Stats(), whole.Stats())
		}
	}
}

// TestDeliveriesMatchTheAudit: Deliveries is the same observation the
// counters and the fault schedule summarize - one record per notice, each
// attributed to a fault of the schedule, and a fault's latency is the
// span to the last delivery attributed to it.
func TestDeliveriesMatchTheAudit(t *testing.T) {
	for _, name := range Names() {
		rep := run(t, name, Params{Seed: 4, Short: true})
		if len(rep.Deliveries) != rep.Notices || rep.Notices == 0 {
			t.Fatalf("%s: %d deliveries for %d notices", name, len(rep.Deliveries), rep.Notices)
		}
		latency := make([]time.Duration, len(rep.Faults))
		for _, d := range rep.Deliveries {
			if d.Fault < 1 || d.Fault > len(rep.Faults) || rep.Faults[d.Fault-1].Seq != d.Fault {
				t.Fatalf("%s: delivery %+v names no fault of the schedule", name, d)
			}
			if d.Group < 0 || d.Group >= rep.Groups {
				t.Fatalf("%s: delivery %+v names no group", name, d)
			}
			latency[d.Fault-1] = max(latency[d.Fault-1], d.At-rep.Faults[d.Fault-1].At)
		}
		for i, f := range rep.Faults {
			if latency[i] != f.Latency {
				t.Errorf("%s: fault #%d: latency %s from deliveries, %s in the schedule", name, f.Seq, latency[i], f.Latency)
			}
		}
	}
}

// TestCrashScriptExpectsPartlyCrashedGroups: a group that loses some but
// not all of its members must fail; one that loses none, or all of them
// (nobody is left to hear), carries no expectation; and a victim listed
// twice crashes once.
func TestCrashScriptExpectsPartlyCrashedGroups(t *testing.T) {
	groups := []GroupSpec{
		{Root: 0, Members: []int{1, 2}}, // loses a member
		{Root: 3, Members: []int{4}},    // loses none
		{Root: 5, Members: []int{6}},    // loses all
		{Root: 1, Members: []int{7, 8}}, // loses its root
	}
	s := CrashScript("crash", groups, time.Minute, []int{1, 5, 6, 1})
	var crashed []int
	for _, ev := range s.Events {
		c, ok := ev.Do.(Crash)
		if !ok || ev.At != time.Minute {
			t.Fatalf("event %+v: want a crash at %s", ev, time.Minute)
		}
		crashed = append(crashed, c.Node)
	}
	if !slices.Equal(crashed, []int{1, 5, 6}) {
		t.Errorf("crashed %v, want [1 5 6]", crashed)
	}
	if !slices.Equal(s.ExpectFail, []int{0, 3}) || s.ExpectSurvive != nil {
		t.Errorf("ExpectFail %v ExpectSurvive %v, want [0 3] and none", s.ExpectFail, s.ExpectSurvive)
	}
}

// TestEnginesBackToBackOnOneCluster: two engines in turn on one cluster,
// the way Fig. 8 runs one script per group size. Each report counts only
// its own groups and deliveries, and both audit green.
func TestEnginesBackToBackOnOneCluster(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 9})
	rounds := []Script{{
		Name:          "first",
		Groups:        []GroupSpec{{Root: 0, Members: []int{5, 10}}, {Root: 1, Members: []int{6, 11, 16}}},
		Events:        []Event{{At: 10 * time.Second, Do: Signal{Node: 5, Group: 0}}},
		Duration:      Duration(time.Minute),
		ExpectFail:    []int{0},
		ExpectSurvive: []int{1},
	}, {
		Name:       "second",
		Groups:     []GroupSpec{{Root: 6, Members: []int{0, 5, 20}}},
		Events:     []Event{{At: 10 * time.Second, Do: Signal{Node: 20, Group: 0}}},
		Duration:   Duration(time.Minute),
		ExpectFail: []int{0},
	}}
	for _, s := range rounds {
		rep, err := Run(c, s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s violated invariants:\n%s\ntrace:\n%s", s.Name, rep.Stats(), rep.Trace)
		}
		signalled := 1 + len(s.Groups[0].Members)
		if rep.Groups != len(s.Groups) || rep.Failed != 1 || rep.Notices != signalled || len(rep.Deliveries) != signalled {
			t.Errorf("%s: %s want %d groups, 1 failed, %d notices", s.Name, rep.Stats(), len(s.Groups), signalled)
		}
		if n := strings.Count(rep.Trace, "setup "); n != len(s.Groups) {
			t.Errorf("%s: trace has %d setup lines, want %d:\n%s", s.Name, n, len(s.Groups), rep.Trace)
		}
	}
}

// TestNoticesDuringSetupCount: a notice delivered before the timeline
// starts is part of the run. Here member 1 of group 0 crashes 2 s in,
// while 4,000 more groups on nodes 3-23 are still being created, so the
// other two members hear half an hour before the timeline's zero: the
// audit counts both, finds no one missed, and the trace prints them at
// their negative instants.
func TestNoticesDuringSetupCount(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 9})
	s := Script{
		Name:       "setup-notice",
		Groups:     []GroupSpec{{Root: 0, Members: []int{1, 2}}},
		Duration:   Duration(time.Minute),
		ExpectFail: []int{0},
	}
	for i := range 4000 {
		s.Groups = append(s.Groups, GroupSpec{Root: 3 + i%21, Members: []int{3 + (i+1)%21, 3 + (i+2)%21}})
	}
	c.Sim.After(2*time.Second, func() { c.Crash(1) })
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Failed != 1 || rep.Notices != 2 || rep.Missed != 0 {
		t.Fatalf("want group 0 failed with 2 notices, none missed:\n%s", rep.Stats())
	}
	for _, d := range rep.Deliveries {
		if d.At >= 0 {
			t.Errorf("node %d heard at %s, want before the timeline's start", d.Node, d.At)
		}
	}
	heard := regexp.MustCompile(`(?m)^t=-\d{5}\.\d{3}s  notify group=0 node=(0|2) `)
	if n := len(heard.FindAllString(rep.Trace, -1)); n != 2 {
		t.Errorf("trace prints %d setup-time notices as t=-0…, want 2:\n%s", n, head(rep.Trace, 8))
	}
}
