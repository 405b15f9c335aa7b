// Command bench is the repository's one performance benchmark: five
// workloads that between them put every layer of the stack on the wall
// clock (netmodel → eventsim → simnet → overlay → core, the scenario
// engine, and codec → tcpnet → the live facade), measured end to end with
// tracing off and layer by layer in a separate traced run. BENCHMARK.json
// at the repository root declares the workloads, metrics, units,
// directions and regression bounds; README.md in this directory explains
// why each was chosen.
//
// The benchmark changes no other file: every layer is measured from the
// outside, by timing calls into its exported functions.
//
//	bench -workload <name> -seed N -seconds S -trace 0|1   one run; last stdout line is the result
//	bench -workload all    -seed N [-json out.json]       every workload, each in a child process
//	bench -workload <name> -repeat 10 -json out.json      N child runs, median + quartiles per metric
//	bench -compare old.json new.json                      verdict per (workload, metric) against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec declares one metric; BENCHMARK.json repeats these lists and
// bench_test.go pins the two against each other.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the repository waits on or pays for. Every
// workload reports every one of them, measured with tracing off.
// "work" is the workload's own unit: one virtual second simulated for
// the three windowed simulations, one group create→notify cycle for
// group-lifecycle and live-loopback. "op" is the smallest timed step: a
// slice of virtual time, one cycle, or one whole churn scenario. A batch,
// the unit of a rate sample, is one op, or ten cycles.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s_p95", "1/s", "higher", 0.25},
	{"op_p05_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the driver reads: exactly these four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's outcome plus what goes to the -json file and the
// human-readable table only.
type result struct {
	outcome

	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
	// Detail holds workload-specific readings under the paper's own
	// names (virt_s_per_wall_s, notify_p50_virt_s, ...): informative,
	// unbounded, and exact for a seed where they count virtual time.
	Detail map[string]float64 `json:"detail,omitempty"`
	// SimDigest is a sha256 over the simulated statistics at a fixed
	// virtual instant. A simulator-only speed-up must leave it unchanged.
	SimDigest string   `json:"sim_digest,omitempty"`
	Problems  []string `json:"problems,omitempty"`
	// Quartiles is filled by -repeat: [q1, median, q3] per metric.
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	Runs      int                   `json:"runs,omitempty"`
}

// report is the -json file: an env block plus one result per workload.
type report struct {
	Env     map[string]string `json:"env"`
	Results []*result         `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 8, "how long the timed part of one run measures")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics, span file in bench/out); 0: end-to-end metrics")
		jsonOut  = flag.String("json", "", "also write the full report (env, detail, digest) to this file")
		repeat   = flag.Int("repeat", 1, "run the workload this many times in child processes; record median and quartiles")
		compare  = flag.Bool("compare", false, "compare two -json reports: bench -compare old.json new.json")
		breakIt  = flag.Bool("break-check", false, "test hook: corrupt one correctness check so the run must fail")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare old.json new.json")
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *workload == "" {
		fatalf("bench: -workload is required (one of %s, or all)", strings.Join(workloadNames(), ", "))
	}
	if *workload == "all" || *repeat > 1 {
		os.Exit(runChildren(*workload, *seed, *seconds, *trace, *repeat, *jsonOut))
	}
	w := findWorkload(*workload)
	if w == nil {
		fatalf("bench: unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}

	r := newRun(w.name, *seed, *seconds, *trace == 1)
	r.breakCheck = *breakIt
	w.run(r)
	if r.trace {
		runMicroSuite(r)
	}
	res := r.finish()
	printTable(os.Stderr, res)
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, &report{Env: envBlock(*seed), Results: []*result{res}}); err != nil {
			fatalf("bench: %v", err)
		}
	}
	line, err := json.Marshal(res.outcome)
	if err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// runChildren re-executes this binary once per (workload, repetition) so
// that peak RSS, rusage and allocation counts belong to one run alone,
// then folds the children's reports into one.
func runChildren(workload string, seed int64, seconds float64, trace, repeat int, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("bench: %v", err)
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames()
	}
	tmp, err := os.MkdirTemp(outDir(), "child-")
	if err != nil {
		fatalf("bench: %v", err)
	}
	defer os.RemoveAll(tmp)

	rep := &report{Env: envBlock(seed)}
	exit := 0
	for _, name := range names {
		var runs []*result
		for i := 0; i < repeat; i++ {
			file := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, i))
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-json", file)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", name, i, err)
				exit = 1
			}
			child, err := readReport(file)
			if err != nil || len(child.Results) != 1 {
				fmt.Fprintf(os.Stderr, "bench: %s run %d left no report\n", name, i)
				exit = 1
				continue
			}
			runs = append(runs, child.Results[0])
		}
		if len(runs) > 0 {
			rep.Results = append(rep.Results, foldRuns(runs))
		}
	}
	for _, res := range rep.Results {
		printTable(os.Stdout, res)
	}
	if jsonOut != "" {
		if err := writeReport(jsonOut, rep); err != nil {
			fatalf("bench: %v", err)
		}
	}
	return exit
}

// outRoot is where span files and child reports go: bench/out under the
// working directory, which bench/.gitignore keeps out of the tree.
var outRoot = filepath.Join("bench", "out")

func outDir() string {
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		fatalf("bench: %v", err)
	}
	return outRoot
}

func envBlock(seed int64) map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       fmt.Sprint(seed),
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
