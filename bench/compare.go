package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"text/tabwriter"
)

// compareReports prints one row per (workload, metric) present in both
// reports: both medians, the ratio with its base, the metric's bound and
// a verdict. It returns the process exit code: 1 when any end-to-end
// metric got worse by more than its bound or any operation failed.
//
// The bounds are the ones compiled into this binary, which bench_test.go
// pins to BENCHMARK.json. Per-layer metrics have no bound and get no
// verdict; their rows show where a change landed.
func compareReports(w io.Writer, oldPath, newPath string) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	specs := make(map[string]metricSpec)
	for _, m := range slices.Concat(endToEnd, perLayer) {
		specs[m.Name] = m
	}
	type key struct {
		workload string
		trace    bool
	}
	olds := make(map[key]*result)
	for _, res := range oldRep.Results {
		olds[key{res.Workload, res.Trace}] = res
	}

	exit := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	for _, nr := range newRep.Results {
		or := olds[key{nr.Workload, nr.Trace}]
		if or == nil {
			fmt.Fprintf(tw, "%s\t(not in %s)\n", nr.Workload, oldPath)
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(nr.Metrics)) {
			om, ok := or.Metrics[name]
			if !ok {
				continue
			}
			nm, spec := nr.Metrics[name], specs[name]
			v := verdict(spec, om.Value, nm.Value, or.Quartiles[name], nr.Quartiles[name])
			if v == "worse" {
				exit = 1
			}
			bound := "-"
			if spec.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*spec.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3fx of old\t%s\t%s\n",
				nr.Workload, name, om.Value, om.Unit, nm.Value, nm.Unit, nm.Value/om.Value, bound, v)
		}
		if nr.SimDigest != "" || or.SimDigest != "" {
			match := "differs: simulated statistics changed"
			if nr.SimDigest == or.SimDigest {
				match = "identical"
			} else if nr.Seed != or.Seed {
				match = "differs (seeds differ)"
			}
			fmt.Fprintf(tw, "%s\tsim_digest\t\t\t\t\t%s\n", nr.Workload, match)
		}
		for _, res := range []*result{or, nr} {
			if res.Failed > 0 {
				fmt.Fprintf(tw, "%s\tfailed\t\t\t\t\t%d of %d operations failed\n", res.Workload, res.Failed, res.Attempted)
				exit = 1
			}
		}
	}
	tw.Flush()
	return exit
}

// verdict classifies the change of one metric. With quartiles on both
// sides (reports made with -repeat), a spread — interquartile range over
// median — wider than the bound on either side means the runs cannot
// resolve a change of the bound's size, and the verdict says so instead
// of "same".
func verdict(spec metricSpec, oldV, newV float64, oldQ, newQ [3]float64) string {
	if spec.Bound <= 0 {
		return "-"
	}
	for _, q := range [][3]float64{oldQ, newQ} {
		if q[1] != 0 && (q[2]-q[0])/q[1] > spec.Bound {
			return "unresolved"
		}
	}
	change := newV/oldV - 1 // > 0: the value rose
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		return "worse"
	case change < -spec.Bound:
		return "better"
	}
	return "same"
}
