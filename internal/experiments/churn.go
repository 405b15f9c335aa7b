package experiments

import (
	"fmt"
	"strings"
	"time"

	"fuse/internal/scenario"
)

// ChurnReliability reproduces the §7.4 claim on the axis the paper
// argues but does not plot: notification delivery stays perfect no
// matter how hard the rest of the overlay churns. For each churn rate
// (mean up/down dwell of the churning nodes - shorter dwell, faster
// churn, the paper's 30-minute system half-life sits in the middle of
// the sweep) the scenario engine runs the churn preset across several
// seeds: groups pinned to stable nodes ride out the churn window, then
// one member of every group crashes. The invariant harness audits every
// run for exactly-once delivery; the sweep reports reliability (degraded
// by missed or duplicated notifications), detection latency, and the
// realized fault rate per churn setting.
func ChurnReliability(p Params) (*Result, error) {
	dwells := []time.Duration{20 * time.Minute, 10 * time.Minute, 5 * time.Minute, 150 * time.Second}
	const seeds = 5
	if p.Short {
		dwells = dwells[1:] // 3 rates x 5 seeds
	}

	r := newResult("churn", "notification reliability vs. churn rate (§7.4; per-rate totals over seeded runs)")
	r.addLine("%-12s %6s %8s %8s %8s %6s %6s %12s %10s", "mean dwell", "runs", "groups", "notices", "expected", "missed", "dups", "max latency", "flips/hr")

	// Per-fault latency histogram across the whole sweep: each bucket
	// counts faults (not notices) by the span from the fault to the last
	// notification attributed to it. Attribution is per-fault, so
	// overlapping fault trains - churn flips alongside the scripted
	// crashes - land in their own buckets instead of smearing into one
	// first-notice-to-latest-fault span.
	buckets := []time.Duration{time.Minute, 2 * time.Minute, 4 * time.Minute, 8 * time.Minute}
	histogram := make([]int, len(buckets)+1)

	totalMissed, totalDups := 0.0, 0.0
	for _, dwell := range dwells {
		var (
			runs, groups, notices, missed, dups int
			expected, flips                     int
			churnWindow                         time.Duration
			maxLat                              time.Duration
		)
		for seed := int64(1); seed <= seeds; seed++ {
			sp := scenario.Params{
				Seed:      seed,
				Short:     p.Short,
				Nodes:     p.Nodes,
				Groups:    p.Groups,
				MeanDwell: dwell,
				Window:    p.Window,
				Workers:   p.Workers,
			}
			churnWindow = scenario.ChurnWindow(sp)
			c, s, err := scenario.BuildPreset("churn", sp)
			if err != nil {
				return nil, err
			}
			rep, err := scenario.Run(c, s)
			if err != nil {
				return nil, err
			}
			if !rep.OK() {
				return nil, fmt.Errorf("churn dwell=%s seed=%d violated invariants:\n%s", dwell, seed, rep.Stats())
			}
			runs++
			groups += rep.Groups
			notices += rep.Notices
			expected += rep.Expected()
			missed += rep.Missed
			dups += rep.Duplicates
			flips += strings.Count(rep.Trace, "churn crash") + strings.Count(rep.Trace, "churn restart")
			if rep.MaxLatency > maxLat {
				maxLat = rep.MaxLatency
			}
			for _, f := range rep.Faults {
				if f.Notices == 0 {
					continue // masked or cleared before it felled anything
				}
				histogram[bucketOf(buckets, f.Latency)]++
			}
		}
		// Normalize by the window the churn process actually ran, not
		// the script's full duration (setup + crash phase + drain).
		flipsPerHour := float64(flips) / (float64(runs) * churnWindow.Hours())
		r.addLine("%-12s %6d %8d %8d %8d %6d %6d %12s %10.1f",
			dwell, runs, groups, notices, expected, missed, dups, maxLat.Truncate(time.Millisecond), flipsPerHour)

		key := fmt.Sprintf("dwell%s", dwell)
		r.metric(key+"_notices", float64(notices))
		r.metric(key+"_expected", float64(expected))
		r.metric(key+"_missed", float64(missed))
		r.metric(key+"_duplicates", float64(dups))
		r.metric(key+"_max_latency_s", maxLat.Seconds())
		r.metric(key+"_flips_per_hour", flipsPerHour)
		totalMissed += float64(missed)
		totalDups += float64(dups)
	}
	r.addLine("per-fault detection latency (faults that caused notifications, all rates):")
	for i := range histogram {
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("< %s", buckets[0])
		case i == len(buckets):
			label = fmt.Sprintf(">= %s", buckets[len(buckets)-1])
		default:
			label = fmt.Sprintf("%s - %s", buckets[i-1], buckets[i])
		}
		r.addLine("  %-12s %6d", label, histogram[i])
		r.metric(fmt.Sprintf("latency_bucket_%d", i), float64(histogram[i]))
	}
	r.addLine("exactly-once held across the sweep: %d rates x %d seeds, %.0f missed, %.0f duplicated",
		len(dwells), seeds, totalMissed, totalDups)
	r.metric("rates", float64(len(dwells)))
	r.metric("seeds", seeds)
	r.metric("missed", totalMissed)
	r.metric("duplicates", totalDups)
	return r, nil
}

// bucketOf returns the histogram bucket index for latency d: position i
// when d < bounds[i], the overflow bucket len(bounds) otherwise.
func bucketOf(bounds []time.Duration, d time.Duration) int {
	for i, b := range bounds {
		if d < b {
			return i
		}
	}
	return len(bounds)
}
