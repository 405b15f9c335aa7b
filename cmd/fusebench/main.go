// Command fusebench regenerates the paper's tables and figures from the
// simulated deployment. Each experiment prints the same rows/series the
// paper reports; README.md's experiment-to-figure table maps each to its
// figure and says what it measures.
//
// Usage:
//
//	fusebench -exp fig7                 # one experiment
//	fusebench -exp all                  # everything (several minutes)
//	fusebench -exp fig9 -short          # reduced scale
//	fusebench -exp svtree -nodes 16000  # the paper's 16k overlay
//	fusebench -exp paperscale -memprofile heap.prof  # live heap after the steady window
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fuse/internal/experiments"
	"fuse/internal/profile"
)

func main() {
	var (
		exp     = flag.String("exp", "", fmt.Sprintf("experiment to run (one of %v, or all)", experiments.Names()))
		seed    = flag.Int64("seed", 1, "random seed")
		nodes   = flag.Int("nodes", 0, "override overlay size (0 = experiment default)")
		groups  = flag.Int("groups", 0, "override group count where the driver has one (0 = default)")
		window  = flag.Duration("window", 0, "override steady-state measurement window (0 = default)")
		short   = flag.Bool("short", false, "reduced-scale run")
		workers = flag.Int("workers", 0, "event-loop worker goroutines for fig6-9, steady, manygroups, paperscale and churn (at most this many per window; a window with fewer than 32 events queued runs on one); 0 = all nodes on one shard, one goroutine")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file, after two GCs: right after paperscale's steady window (the last one run), else after the last experiment")
	)
	flag.Parse()

	if *exp == "" {
		fmt.Fprintf(os.Stderr, "usage: fusebench -exp <name>\navailable: %v, all\n", experiments.Names())
		os.Exit(2)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}

	params := experiments.Params{
		Nodes:   *nodes,
		Seed:    *seed,
		Short:   *short,
		Groups:  *groups,
		Window:  *window,
		Workers: *workers,
	}

	heapWritten := false
	writeHeap := func() {
		if err := profile.WriteHeap(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "fusebench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		heapWritten = true
	}
	if *memProf != "" {
		params.AfterSteady = writeHeap
	}
	stopCPU, err := profile.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: -cpuprofile: %v\n", err)
		os.Exit(1)
	}

	failed := false
	for _, name := range names {
		start := time.Now()
		result, err := experiments.Run(name, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusebench: %s: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Print(result.String())
		fmt.Printf("(%s in %.1fs wall clock)\n\n", name, time.Since(start).Seconds())
	}
	if err := stopCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "fusebench: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if *memProf != "" && !heapWritten {
		writeHeap()
	}
	if failed {
		os.Exit(1)
	}
}
