package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/telemetry"
)

// Telemetry determinism pins: the metric snapshot and the protocol-event
// trace are part of the run's observable behaviour, so they must be
// byte-identical across worker counts just like the harness trace.

// runPresetTelemetry runs a preset with proto-level tracing enabled and
// returns the report plus the rendered snapshot and JSONL trace.
func runPresetTelemetry(t *testing.T, name string, workers int) (*Report, string, string, *telemetry.Registry) {
	t.Helper()
	c, s, err := BuildPreset(name, Params{Seed: 5, Short: true, Workers: workers})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	c.Telemetry.EnableTrace(telemetry.TraceProto)
	r, err := Run(c, s)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	var tr strings.Builder
	if err := c.Telemetry.WriteTrace(&tr); err != nil {
		t.Fatalf("%s workers=%d: WriteTrace: %v", name, workers, err)
	}
	return r, c.Telemetry.RenderTable(), tr.String(), c.Telemetry
}

// TestTelemetryShardedDeterminism requires the end-of-run metric
// snapshot and the merged event trace to be byte-identical at workers=1
// and workers=4 for the churn and partition-heal drills. Lane slabs are
// laid out by shard (a function of shard count, not worker count) and
// merged by summation; the event merge orders by (virtual time, lane,
// FIFO) - none of which may depend on scheduling.
func TestTelemetryShardedDeterminism(t *testing.T) {
	for _, name := range []string{"churn", "partition-heal"} {
		t.Run(name, func(t *testing.T) {
			r1, tab1, tr1, _ := runPresetTelemetry(t, name, 1)
			if !r1.OK() {
				t.Fatalf("workers=1 run violated invariants:\n%s", r1.Stats())
			}
			if !strings.Contains(tab1, "fuse_notices_delivered_total") {
				t.Fatalf("snapshot missing protocol counters:\n%s", tab1)
			}
			if tr1 == "" {
				t.Fatal("workers=1 produced an empty event trace")
			}
			r4, tab4, tr4, _ := runPresetTelemetry(t, name, 4)
			if !r4.OK() {
				t.Fatalf("workers=4 run violated invariants:\n%s", r4.Stats())
			}
			if tab1 != tab4 {
				t.Fatalf("metric snapshots differ across worker counts\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", tab1, tab4)
			}
			if tr1 != tr4 {
				t.Fatalf("event traces differ across worker counts\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
					head(tr1, 40), head(tr4, 40))
			}
		})
	}
}

// TestTelemetrySpanChainReconstruction is the causal-tracing acceptance
// pin: a partition-heal run's trace must contain at least one delivered
// notification whose parent span resolves to a recorded trigger event -
// the full observation -> propagation -> delivery chain survives hops
// through soft/hard notification messages.
func TestTelemetrySpanChainReconstruction(t *testing.T) {
	_, _, _, reg := runPresetTelemetry(t, "partition-heal", 4)
	triggers := make(map[uint64]telemetry.Event)
	var chained, notifies int
	for _, ev := range reg.Events() {
		if ev.Kind == "trigger" && ev.Span != 0 {
			triggers[ev.Span] = ev
		}
	}
	for _, ev := range reg.Events() {
		if ev.Kind != "notify" {
			continue
		}
		notifies++
		tg, ok := triggers[ev.Parent]
		if !ok {
			continue
		}
		chained++
		if ev.At < tg.At {
			t.Fatalf("notification at %s precedes its trigger at %s", ev.At, tg.At)
		}
		if tg.Group != ev.Group {
			t.Fatalf("trigger group %s != notification group %s", tg.Group, ev.Group)
		}
	}
	if notifies == 0 {
		t.Fatal("no notify events in the partition-heal trace")
	}
	if chained == 0 {
		t.Fatalf("no notification's parent span resolved to a trigger (%d notifies, %d triggers)",
			notifies, len(triggers))
	}
}

// TestDetectionLatencyHistogram checks the harness's audit-time
// histogram: every fault that caused notifications contributes one
// observation, and the sum reflects the per-fault latencies.
func TestDetectionLatencyHistogram(t *testing.T) {
	r, _, _, reg := runPresetTelemetry(t, "partition-heal", 0)
	want := 0
	for _, f := range r.Faults {
		if f.Notices > 0 {
			want++
		}
	}
	n, sum, ok := reg.HistogramValue("scenario_detection_latency_ms")
	if !ok {
		t.Fatal("scenario_detection_latency_ms not registered")
	}
	if int(n) != want || want == 0 {
		t.Fatalf("histogram count %d, want %d (faults with notices)", n, want)
	}
	if sum <= 0 {
		t.Fatalf("histogram sum %s, want > 0", sum)
	}
}

// TestEngineRecordsOnTheTelemetryLanes: the engine observes a run through
// the registry at any trace level. With tracing off (the default) a
// restart drill leaves one notice event per delivery - same group, node,
// incarnation and timeline instant - one action event per applied script
// event, one setup event per group, one fault event per entry of the
// report's fault schedule (same instant and description), one restart
// event per restart and one end event per group member, and WriteTrace
// emits exactly those.
func TestEngineRecordsOnTheTelemetryLanes(t *testing.T) {
	c, s, err := BuildPreset("restart", Params{Seed: 5, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Start(c, s)
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.RunFor(time.Duration(s.Duration))
	rep := e.Report()
	if !rep.OK() || len(rep.Deliveries) == 0 || len(rep.Faults) == 0 {
		t.Fatalf("want a green run with faults and deliveries:\n%s", rep.Stats())
	}

	events := c.Telemetry.Events()
	var t0 time.Duration // the timeline starts at the last setup
	for _, ev := range events {
		if ev.Kind == "setup" {
			t0 = ev.At
		}
	}
	incOf := regexp.MustCompile(`inc=\d+`)
	var actions, faults, ends []string
	var got, want []string
	setups, restarts, restarted := 0, 0, 0
	for _, ev := range events {
		at := ev.At - t0
		switch ev.Kind {
		case "action":
			actions = append(actions, fmt.Sprintf("%s %s", at, ev.Detail))
			if strings.HasPrefix(ev.Detail, "restart ") || strings.HasPrefix(ev.Detail, "churn restart ") {
				restarted++
			}
		case "notice":
			got = append(got, fmt.Sprintf("%s %s %s %s", ev.Group, ev.Node, incOf.FindString(ev.Detail), at))
		case "setup":
			setups++
		case "fault":
			faults = append(faults, fmt.Sprintf("%s %s", at, ev.Detail))
		case "restart":
			restarts++
		case "end":
			ends = append(ends, ev.Group+" "+ev.Node)
		default:
			t.Fatalf("tracing is off, yet the registry holds a %q event", ev.Kind)
		}
	}
	for _, d := range rep.Deliveries {
		want = append(want, fmt.Sprintf("%s %s inc=%d %s", e.ids[d.Group], cluster.NameOf(d.Node), d.Inc, d.At))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("notice events differ from the deliveries:\n%s\nvs\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var wantFaults, wantEnds []string
	for _, f := range rep.Faults {
		wantFaults = append(wantFaults, fmt.Sprintf("%s fault=%d %s", f.At, f.Seq, f.Desc))
	}
	if !slices.Equal(faults, wantFaults) {
		t.Errorf("fault events %q, want the report's %q", faults, wantFaults)
	}
	for gi, g := range s.Groups {
		for _, n := range g.nodes() {
			wantEnds = append(wantEnds, e.ids[gi].String()+" "+cluster.NameOf(n))
		}
	}
	if !slices.Equal(ends, wantEnds) {
		t.Errorf("end events %q, want one per group member %q", ends, wantEnds)
	}
	if setups != len(s.Groups) || restarts != restarted || restarts == 0 {
		t.Errorf("%d setup and %d restart events, want %d and %d (> 0)", setups, restarts, len(s.Groups), restarted)
	}
	var applied []string
	for _, ev := range s.Events {
		applied = append(applied, fmt.Sprintf("%s %s", ev.At, ev.Do))
	}
	if !slices.Equal(actions, applied) {
		t.Errorf("action events %q, want the script's %q", actions, applied)
	}

	var tr strings.Builder
	if err := c.Telemetry.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(tr.String(), `"kind":"notice"`); n != len(want) {
		t.Errorf("WriteTrace emitted %d notices, want %d", n, len(want))
	}
	if n := strings.Count(tr.String(), `"kind":"action"`); n != len(applied) {
		t.Errorf("WriteTrace emitted %d actions, want %d", n, len(applied))
	}
}

// TestLaterEngineFoldsNothingOfAnEarlierOne: an engine records nothing
// once its Report is taken. The first engine here starts churn and never
// stops it; the second, run on the same cluster while those flips go on,
// traces and delivers only its own signal, and the registry holds no
// action, fault or restart of the first from after its Report.
func TestLaterEngineFoldsNothingOfAnEarlierOne(t *testing.T) {
	c := cluster.New(cluster.Options{N: 24, Seed: 9})
	first, err := Run(c, Script{
		Name:     "first",
		Groups:   []GroupSpec{{Root: 0, Members: []int{1, 2}}},
		Events:   []Event{{At: 10 * time.Second, Do: ChurnStart{Bootstrap: 0, First: 12, Count: 12, MeanDwell: Duration(20 * time.Second)}}},
		Duration: Duration(2 * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.Trace, "churn crash") {
		t.Fatalf("the first engine's churn never flipped:\n%s", first.Trace)
	}
	reported := c.Sim.Elapsed()

	second, err := Run(c, Script{
		Name:       "second",
		Groups:     []GroupSpec{{Root: 3, Members: []int{4, 5}}},
		Events:     []Event{{At: 30 * time.Second, Do: Signal{Node: 4, Group: 0}}},
		Duration:   Duration(2 * time.Minute),
		ExpectFail: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second.OK() || second.Notices != 3 || len(second.Deliveries) != 3 {
		t.Fatalf("second: want a green run with 3 notices:\n%s\ntrace:\n%s", second.Stats(), second.Trace)
	}
	if strings.Contains(second.Trace, "churn") || strings.Count(second.Trace, "\n") != 1+1+3 {
		t.Errorf("second trace holds more than its setup, signal and notices:\n%s", second.Trace)
	}
	for _, ev := range c.Telemetry.Events() {
		churned := ev.Kind == "restart" || (ev.Kind == "action" || ev.Kind == "fault") && !strings.Contains(ev.Detail, "signal ")
		if churned && ev.At > reported {
			t.Errorf("the first engine recorded %s %q at %s, after its Report", ev.Kind, ev.Detail, ev.At)
		}
	}
}

// requireReaudit holds a run's -trace JSONL to its live Report: the
// registry's events, written as JSON Lines and decoded back, re-audit to
// a Report deep-equal to the one the engine returned.
func requireReaudit(t *testing.T, s Script, reg *telemetry.Registry, live *Report) {
	t.Helper()
	var jsonl strings.Builder
	if err := reg.WriteTrace(&jsonl); err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	for line := range strings.Lines(jsonl.String()) {
		var l struct {
			T                 float64
			Lane              int
			Kind, Node, Group string
			Span, Parent      uint64
			Detail            string
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("%s: %v in %q", s.Name, err, line)
		}
		events = append(events, telemetry.Event{At: time.Duration(math.Round(l.T * 1e9)), Lane: l.Lane,
			Kind: l.Kind, Node: l.Node, Group: l.Group, Span: l.Span, Parent: l.Parent, Detail: l.Detail})
	}
	if got := audit(s, events); !reflect.DeepEqual(got, live) {
		t.Errorf("%s: the -trace JSONL re-audits to\n%s%s\nnot the live\n%s%s",
			s.Name, got.Stats(), got.FaultTable(), live.Stats(), live.FaultTable())
	}
}

// TestTraceReauditsToTheReport: a run is its event stream. Every preset,
// on one shard and on eight with four workers and the protocol's own
// events interleaved, re-audits from its -trace JSONL alone to the
// Report the engine returned. (runGenerated holds every fuzzed schedule
// to the same.)
func TestTraceReauditsToTheReport(t *testing.T) {
	for _, name := range Names() {
		for _, workers := range []int{0, 4} {
			c, s, err := BuildPreset(name, Params{Seed: 3, Short: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			c.Telemetry.EnableTrace(telemetry.TraceProto)
			rep, err := Run(c, s)
			if err != nil {
				t.Fatal(err)
			}
			requireReaudit(t, s, c.Telemetry, rep)
		}
	}

	// A failed audit re-audits to the same violations. Member 2 restarts
	// behind the engine's back, a fresh process the engine still audits:
	// at the end it is up, holds no state and never heard.
	c := cluster.New(cluster.Options{N: 16, Seed: 1})
	s := Script{Name: "unseen-restart", Groups: []GroupSpec{{Root: 0, Members: []int{1, 2}}}, Duration: Duration(10 * time.Minute)}
	c.Sim.After(time.Minute, func() { c.Crash(2) })
	c.Sim.After(2*time.Minute, func() { c.Restart(2, c.Nodes[0].Ref()) })
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Missed != 1 {
		t.Fatalf("want node 2 caught missed:\n%s", rep.Stats())
	}
	requireReaudit(t, s, c.Telemetry, rep)
}
