package fuse_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ledgerMetric is one metric of one workload in a BENCH_PR*.json file:
// the runs of alternating parent/change pairs and the figures derived
// from them. change_wins and parent_quartiles are checked only where a
// file states them.
type ledgerMetric struct {
	ParentMedian     *float64  `json:"parent_median"`
	ChangeMedian     *float64  `json:"change_median"`
	ChangeOverParent *float64  `json:"change_over_parent"`
	ChangeWins       *string   `json:"change_wins"`
	ParentQuartiles  []float64 `json:"parent_quartiles"`
	ParentRuns       []float64 `json:"parent_runs"`
	ChangeRuns       []float64 `json:"change_runs"`
}

// ledgerFile is the part of a BENCH_PR*.json file the check reads; other
// top-level keys (notes, raw pairs) are free-form.
type ledgerFile struct {
	What    string                                `json:"what"`
	Parent  string                                `json:"parent"`
	Command string                                `json:"command"`
	Host    string                                `json:"host"`
	Summary map[string]map[string]json.RawMessage `json:"summary"`
}

// ledgerExtra reports whether a summary key is a note on the workload's
// runs rather than a metric: its pair count, failed-operation counts, or
// whether every pair's sim_digest matched.
func ledgerExtra(key string) bool {
	return key == "pairs" || key == "failed" || key == "failed_ops" || strings.HasPrefix(key, "sim_digest_identical")
}

// The ledger stores runs and every figure derived from them rounded to 6
// decimals, and derives the figures from the unrounded runs: a median or
// quartile recomputed from the stored runs may sit one unit of the sixth
// decimal away. A ratio is stored to 4 decimals.
const (
	ledgerUnit      = 1e-6
	ledgerRatioUnit = 5e-5
)

// TestLedger checks every BENCH_PR*.json file at the root: its schema,
// that each workload and metric is one BENCHMARK.json defines, and that
// each median, ratio, win count and quartile pair follows from the runs
// it summarizes. With -v it prints, per workload and metric, each PR's
// change/parent ratio and the product of the ratios so far.
func TestLedger(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }         `json:"workloads"`
		EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Better string } `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &bench)
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	lower := map[string]bool{} // metric -> lower is better
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		lower[m.Name] = m.Better == "lower"
	}

	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_PR*.json files (%v)", err)
	}
	prOf := func(f string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_PR"), ".json"))
		if err != nil {
			t.Fatalf("%s: not named BENCH_PR<number>.json", f)
		}
		return n
	}
	sort.Slice(files, func(i, j int) bool { return prOf(files[i]) < prOf(files[j]) })

	type step struct {
		pr    int
		ratio float64
	}
	trajectory := map[string][]step{} // "workload metric" -> ratios in PR order
	for _, f := range files {
		var lf ledgerFile
		readJSON(t, f, &lf)
		for key, v := range map[string]string{"what": lf.What, "parent": lf.Parent, "command": lf.Command, "host": lf.Host} {
			if strings.TrimSpace(v) == "" {
				t.Errorf("%s: %q is missing or empty", f, key)
			}
		}
		if len(lf.Summary) == 0 {
			t.Errorf("%s: no summary", f)
		}
		for w, entries := range lf.Summary {
			if !workloads[w] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", f, w)
			}
			for name, raw := range entries {
				if ledgerExtra(name) {
					continue
				}
				where := fmt.Sprintf("%s: %s %s", f, w, name)
				isLower, known := lower[name]
				if !known {
					t.Errorf("%s: metric not in BENCHMARK.json", where)
					continue
				}
				var m ledgerMetric
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&m); err != nil {
					t.Errorf("%s: %v", where, err)
					continue
				}
				if err := checkLedgerMetric(m, isLower); err != nil {
					t.Errorf("%s: %v", where, err)
					continue
				}
				trajectory[w+" "+name] = append(trajectory[w+" "+name], step{prOf(f), *m.ChangeOverParent})
			}
		}
	}

	for _, k := range slices.Sorted(maps.Keys(trajectory)) {
		var b strings.Builder
		product := 1.0
		for _, s := range trajectory[k] {
			product *= s.ratio
			fmt.Fprintf(&b, "  PR%d x%.4f (%.4f)", s.pr, s.ratio, product)
		}
		t.Logf("%-36s%s", k, b.String())
	}
}

// checkLedgerMetric recomputes one metric's derived figures from its
// runs.
func checkLedgerMetric(m ledgerMetric, lower bool) error {
	if m.ParentMedian == nil || m.ChangeMedian == nil || m.ChangeOverParent == nil {
		return fmt.Errorf("parent_median, change_median and change_over_parent are required")
	}
	if len(m.ParentRuns) == 0 || len(m.ParentRuns) != len(m.ChangeRuns) {
		return fmt.Errorf("%d parent runs and %d change runs; want as many of each, at least one", len(m.ParentRuns), len(m.ChangeRuns))
	}
	pm, cm := *m.ParentMedian, *m.ChangeMedian
	for _, c := range []struct {
		what        string
		got, stored float64
	}{{"parent_median", median(m.ParentRuns), pm}, {"change_median", median(m.ChangeRuns), cm}} {
		if !near(c.got, c.stored, ledgerUnit) {
			return fmt.Errorf("%s %v, runs give %v", c.what, c.stored, c.got)
		}
	}
	// The stored ratio was taken from medians that are each within half
	// a unit of the stored ones, then rounded.
	const u = ledgerUnit / 2
	if pm <= u || cm < 0 {
		return fmt.Errorf("medians %v and %v: a ratio needs a positive parent", pm, cm)
	}
	if lo, hi := (cm-u)/(pm+u), (cm+u)/(pm-u); *m.ChangeOverParent < lo-ledgerRatioUnit-1e-12 || *m.ChangeOverParent > hi+ledgerRatioUnit+1e-12 {
		return fmt.Errorf("change_over_parent %v, medians give %v to %v", *m.ChangeOverParent, lo, hi)
	}
	if m.ChangeWins != nil {
		wins := 0
		for i, p := range m.ParentRuns {
			if c := m.ChangeRuns[i]; lower && c < p || !lower && c > p {
				wins++
			}
		}
		if want := fmt.Sprintf("%d of %d", wins, len(m.ParentRuns)); *m.ChangeWins != want {
			return fmt.Errorf("change_wins %q, runs give %q", *m.ChangeWins, want)
		}
	}
	if m.ParentQuartiles != nil {
		q1, q3 := quartiles(m.ParentRuns)
		if len(m.ParentQuartiles) != 2 || !near(q1, m.ParentQuartiles[0], ledgerUnit) || !near(q3, m.ParentQuartiles[1], ledgerUnit) {
			return fmt.Errorf("parent_quartiles %v, runs give [%v %v]", m.ParentQuartiles, q1, q3)
		}
	}
	return nil
}

// median is Python's statistics.median: the middle run, or the mean of
// the two middle ones.
func median(runs []float64) float64 {
	d := slices.Sorted(slices.Values(runs))
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles are the first and third of Python's statistics.quantiles(runs,
// n=4, method="exclusive"), computed in the same order of operations.
func quartiles(runs []float64) (q1, q3 float64) {
	d := slices.Sorted(slices.Values(runs))
	if len(d) < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol+1e-12 }

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
