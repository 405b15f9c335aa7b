package scenario

import (
	"strings"
	"testing"
	"time"

	"fuse/internal/cluster"
)

// TestLatencyAttributionUnderOverlap pins the per-fault attribution
// acceptance criterion: a loss ramp overlapping churn reports the
// group's detection latency against the ramp step that actually broke
// the link, not against the latest churn fault before the first notice.
//
// The script keeps the group on consecutive indices {0,1,2} - ring
// neighbors with delegate-free tree links - so the churning nodes
// [12,20) generate a steady train of unrelated fault records while only
// the ramp on link 0<->1 can fell the group. The ramp crosses the
// breaking threshold (0.5, where the emulated TCP stops masking loss)
// exactly at its middle step, t=+5m.
// The seed is pinned to a run where repair fails and the group tears
// down; under other seeds FUSE can legitimately repair around the
// degraded link (churn-perturbed routes let checking re-install off the
// lossy pair) and the group survives. It is the lowest seed on which
// every assertion below holds: seed 1 is a surviving run.
func TestLatencyAttributionUnderOverlap(t *testing.T) {
	const crossing = 5 * time.Minute // ramp start 1m + half of the 8m window

	c := cluster.New(cluster.Options{N: 24, Seed: 2})
	s := Script{
		Name:   "attribution-overlap",
		Groups: []GroupSpec{{Root: 0, Members: []int{1, 2}}},
		Events: []Event{
			{At: 30 * time.Second, Do: ChurnStart{First: 12, Count: 8, MeanDwell: Duration(2 * time.Minute), Bootstrap: 3}},
			{At: time.Minute, Do: LossRamp{A: 0, B: 1, From: 0, To: 1, Steps: 5, Over: Duration(8 * time.Minute)}},
			{At: 10 * time.Minute, Do: ChurnStop{}},
		},
		Duration:   Duration(20 * time.Minute),
		ExpectFail: []int{0},
	}
	rep, err := Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("run violated invariants:\n%s", rep.Stats())
	}

	// Exactly one loss fault on the pair: the ramp's later steps (0.75,
	// 1.0) land while the 0.5 fault is still ongoing and must extend it,
	// not start fresh records that would steal the attribution.
	var loss *Fault
	churnAfterCrossing := 0
	for i, f := range rep.Faults {
		switch {
		case strings.Contains(f.Desc, "loss pair=0<->1"):
			if loss != nil {
				t.Errorf("ramp produced a second fault record %q at %s; steps past the threshold must dedup", f.Desc, f.At)
			}
			loss = &rep.Faults[i]
		case strings.Contains(f.Desc, "churn crash"):
			if f.At > crossing {
				churnAfterCrossing++
			}
			if f.Notices != 0 {
				t.Errorf("churn fault %q was attributed %d notices belonging to the loss ramp", f.Desc, f.Notices)
			}
		}
	}
	if loss == nil {
		t.Fatalf("no loss fault recorded; schedule:\n%s", rep.Trace)
	}
	if loss.At != crossing {
		t.Errorf("loss fault recorded at %s, want the threshold crossing at %s (not the ramp start or a later step)", loss.At, crossing)
	}
	if loss.Notices != 3 {
		t.Errorf("loss fault attributed %d notices, want all 3 members", loss.Notices)
	}
	if loss.Latency <= 0 || loss.Latency > 8*time.Minute {
		t.Errorf("loss fault latency %s outside (0, 8m]", loss.Latency)
	}

	// The overlap is real: churn kept faulting between the crossing and
	// the deliveries, so "latest fault before first notice" would have
	// blamed a churn crash.
	if churnAfterCrossing == 0 {
		t.Errorf("no churn fault after the crossing; the schedule no longer exercises overlapping fault trains\n%s", rep.Trace)
	}
	if rep.MaxLatency != loss.Latency {
		t.Errorf("group detection latency %s not measured from the loss fault (%s)", rep.MaxLatency, loss.Latency)
	}
}

// TestRecoveredDowntimeIsNotLatency: a member that is down when its
// group fails, and later restarts with its store recovered, hears of the
// failure as it comes back. Its downtime is no part of any latency: both
// the fault's and the group's are measured from the restart, the start
// of the incarnation that heard.
func TestRecoveredDowntimeIsNotLatency(t *testing.T) {
	const back = 8 * time.Minute
	s := Script{
		Name:   "recovered-downtime",
		Groups: []GroupSpec{{Root: 0, Members: []int{1, 2}, Stores: []int{2}}},
		Events: []Event{
			{At: time.Minute, Do: Crash{Node: 2}},
			{At: 2 * time.Minute, Do: Signal{Node: 1, Group: 0}},
			{At: back, Do: Restart{Node: 2, Bootstrap: 0, Recover: true}},
		},
		Duration:   Duration(15 * time.Minute),
		ExpectFail: []int{0},
	}
	rep, err := Run(cluster.New(cluster.Options{N: 16, Seed: 1}), s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("run violated invariants:\n%s", rep.Stats())
	}
	var recovered *Delivery
	for i, d := range rep.Deliveries {
		if d.Node == 2 && d.Inc == 1 {
			recovered = &rep.Deliveries[i]
		}
	}
	if recovered == nil || recovered.At < back {
		t.Fatalf("the recovered incarnation did not hear after its restart: %+v\n%s", rep.Deliveries, rep.Trace)
	}
	if rep.MaxLatency >= time.Minute {
		t.Errorf("max latency %s counts the recovered member's downtime\n%s", rep.MaxLatency, rep.FaultTable())
	}
	for _, f := range rep.Faults {
		if f.Latency >= time.Minute {
			t.Errorf("fault %q latency %s counts the recovered member's downtime", f.Desc, f.Latency)
		}
	}
}
