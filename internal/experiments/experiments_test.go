package experiments_test

import (
	"testing"

	"fuse/internal/experiments"
)

// short runs an experiment at reduced scale and returns its metrics.
func short(t *testing.T, name string) map[string]float64 {
	t.Helper()
	r, err := experiments.Run(name, experiments.Params{Seed: 1, Short: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(r.Lines) == 0 {
		t.Fatalf("%s produced no output", name)
	}
	t.Log("\n" + r.String())
	return r.Metrics
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := experiments.Run("nope", experiments.Params{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"ablation", "churn", "fig10", "fig11", "fig12", "fig6", "fig7", "fig8", "fig9", "manygroups", "paperscale", "paperscale100k", "steady", "svtree", "swimcmp"}
	got := experiments.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	m := short(t, "fig6")
	// Median RTT-dominated RPC latency near the topology's calibration
	// target (~130 ms) with a heavy tail.
	if m["median_ms"] < 50 || m["median_ms"] > 400 {
		t.Fatalf("median RPC = %.1f ms, want ~130", m["median_ms"])
	}
	if m["p90_ms"] < m["median_ms"] {
		t.Fatal("p90 below median")
	}
}

func TestFig7Shape(t *testing.T) {
	m := short(t, "fig7")
	// Creation latency grows with group size (more members -> higher
	// chance of a slow path) and sits in the paper's regime (hundreds of
	// ms to a few seconds).
	if !(m["size32_median_ms"] >= m["size2_median_ms"]) {
		t.Fatalf("creation latency not monotone: size2=%.0f size32=%.0f",
			m["size2_median_ms"], m["size32_median_ms"])
	}
	if m["size2_median_ms"] < 20 || m["size32_median_ms"] > 10000 {
		t.Fatalf("creation latencies out of regime: %.0f..%.0f ms",
			m["size2_median_ms"], m["size32_median_ms"])
	}
}

func TestFig8Shape(t *testing.T) {
	m := short(t, "fig8")
	// Notification is significantly cheaper than creation (one-way,
	// cached paths); the paper's max was 1165 ms.
	if m["size2_median_ms"] <= 0 {
		t.Fatal("no size-2 latency")
	}
	if m["max_ms"] > 5000 {
		t.Fatalf("max notification %.0f ms, want paper regime (<5 s)", m["max_ms"])
	}
}

func TestFig9EveryLiveMemberNotified(t *testing.T) {
	m := short(t, "fig9")
	if m["notifications"] != m["expected"] {
		t.Fatalf("notifications %v != expected %v", m["notifications"], m["expected"])
	}
	// The paper's distribution is dominated by ping and repair timeouts:
	// nothing beats a ping round, everything lands within ~4 minutes.
	if m["max_min"] > 6 {
		t.Fatalf("max notification time %.2f min", m["max_min"])
	}
}

func TestFig11MediansMatchPaper(t *testing.T) {
	m := short(t, "fig11")
	within := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !within(m["link0.4pct_median_route_loss"], 5.8, 3) {
		t.Fatalf("0.4%% link loss -> %.1f%% route loss, paper 5.8%%", m["link0.4pct_median_route_loss"])
	}
	if !within(m["link0.8pct_median_route_loss"], 11.4, 5) {
		t.Fatalf("0.8%% -> %.1f%%, paper 11.4%%", m["link0.8pct_median_route_loss"])
	}
	if !within(m["link1.6pct_median_route_loss"], 21.5, 8) {
		t.Fatalf("1.6%% -> %.1f%%, paper 21.5%%", m["link1.6pct_median_route_loss"])
	}
}

func TestSteadyStateParity(t *testing.T) {
	m := short(t, "steady")
	if d := m["delta_pct"]; d < -3 || d > 3 {
		t.Fatalf("idle groups changed load by %.2f%%, want ~0", d)
	}
}

func TestManyGroupsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-group steady-state run")
	}
	m := short(t, "manygroups")
	if m["groups"] < 2000 {
		t.Fatalf("ran %v groups, want >= 2000", m["groups"])
	}
	// One shared deadline per link, not one per (group, link) pair: with
	// thousands of groups over ~100 nodes the collapse is at least 10x.
	if m["check_timers"]*10 > m["checked_pairs"] {
		t.Fatalf("timer count %v not collapsed vs %v monitored pairs", m["check_timers"], m["checked_pairs"])
	}
	// The whole point of the piggyback design: thousands of idle groups
	// ride the overlay's own pings, so the background rate stays within a
	// few percent of the bare overlay's (~59 msg/s at this scale).
	if m["msg_per_s"] > 100 {
		t.Fatalf("steady-state load %v msg/s: groups are generating traffic", m["msg_per_s"])
	}
}

// TestPaperScaleScaledDown runs the §7.3 driver's 1,000-node variant and
// checks one-way agreement at scale: after the multi-node crash, every
// live member of an affected group is notified exactly once, and the
// group workload adds no measurable background traffic beyond the
// overlay's own pings.
func TestPaperScaleScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node paper-scale run")
	}
	m := short(t, "paperscale")
	if m["nodes"] != 1000 {
		t.Fatalf("ran %v nodes, want 1000", m["nodes"])
	}
	if m["notifications"] != m["expected"] {
		t.Fatalf("notifications %v != expected %v: one-way agreement broken", m["notifications"], m["expected"])
	}
	if m["expected"] == 0 {
		t.Fatal("no live members expected notification; crash workload did not engage")
	}
	if m["duplicates"] != 0 {
		t.Fatalf("%v duplicate notifications: exactly-once delivery broken", m["duplicates"])
	}
	// One shared deadline per link, not one per (group, link) pair.
	if m["check_timers"] >= m["checked_pairs"] {
		t.Fatalf("timer count %v not collapsed vs %v monitored pairs", m["check_timers"], m["checked_pairs"])
	}
	// The piggyback claim at scale: idle groups ride the overlay pings.
	// A 1000-node overlay generates ~600 msg/s of pings+acks on its own.
	if m["msg_per_s"] > 1000 {
		t.Fatalf("steady-state load %v msg/s: groups are generating traffic", m["msg_per_s"])
	}
}

// TestPaperScaleShardedDeterminism runs a small paperscale instance at
// workers=1 and workers=4 and requires every virtual-time metric to
// match: the sharded scheduler's logical order is a function of the
// shard count (fixed), never the worker count, so notification counts,
// latencies, and message totals must be bit-equal. Only wall-clock
// metrics (sim_speed, events_per_wall_s, workers) may differ.
func TestPaperScaleShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two 400-node paper-scale runs")
	}
	run := func(workers int) map[string]float64 {
		r, err := experiments.Run("paperscale", experiments.Params{
			Seed: 1, Short: true, Nodes: 400, Groups: 50, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r.Metrics
	}
	w1, w4 := run(1), run(4)
	for _, key := range []string{
		"nodes", "groups", "msg_per_s", "checked_pairs", "check_timers",
		"notifications", "expected", "duplicates", "notify_median_s", "notify_max_s",
	} {
		if w1[key] != w4[key] {
			t.Errorf("%s: workers=1 %v != workers=4 %v", key, w1[key], w4[key])
		}
	}
	if w1["notifications"] != w1["expected"] || w1["duplicates"] != 0 {
		t.Fatalf("exactly-once broken: notified %v of %v, %v duplicates",
			w1["notifications"], w1["expected"], w1["duplicates"])
	}
}

// TestDriversIdenticalAcrossWorkers: the drivers that take -workers print
// the same table at one worker as at four, since the logical event order
// depends on the shard count only.
func TestDriversIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range []string{"fig9", "steady", "churn"} {
		run := func(workers int) string {
			r, err := experiments.Run(name, experiments.Params{Seed: 1, Short: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return r.String()
		}
		if w1, w4 := run(1), run(4); w1 != w4 {
			t.Errorf("%s: workers=1 printed\n%s\nworkers=4 printed\n%s", name, w1, w4)
		}
	}
}

// TestChurnReliability is the §7.4 acceptance gate: the sweep (>=3
// churn rates x 5 seeds, each run audited by the scenario harness) must
// deliver every expected notification with zero missed and zero
// duplicates.
func TestChurnReliability(t *testing.T) {
	m := short(t, "churn")
	if m["rates"] < 3 || m["seeds"] < 5 {
		t.Fatalf("sweep too small: %v rates x %v seeds", m["rates"], m["seeds"])
	}
	if m["missed"] != 0 || m["duplicates"] != 0 {
		t.Fatalf("exactly-once broken under churn: %v missed, %v duplicated", m["missed"], m["duplicates"])
	}
}

func TestSVTreeSmallGroups(t *testing.T) {
	m := short(t, "svtree")
	if m["groups"] < 10 {
		t.Fatalf("only %v groups", m["groups"])
	}
	if m["mean_size"] < 2 || m["mean_size"] > 7 {
		t.Fatalf("mean group size %.2f, paper regime ~2.9", m["mean_size"])
	}
	if m["attached"] < m["subscribers"] {
		t.Fatalf("only %v of %v subscribers attached", m["attached"], m["subscribers"])
	}
}

func TestSwimComparisonContrast(t *testing.T) {
	m := short(t, "swimcmp")
	if m["swim_masks_intransitive"] != 1 {
		t.Fatal("SWIM should mask the intransitive failure (indirect probes)")
	}
	if m["fuse_scopes_intransitive"] != 1 {
		t.Fatal("FUSE should scope the intransitive failure to the signalled group")
	}
	if m["swim_detect_s"] <= 0 || m["fuse_detect_s"] <= 0 {
		t.Fatalf("missing detection latencies: %v", m)
	}
}
