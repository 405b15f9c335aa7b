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
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fuse/internal/experiments"
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
	if failed {
		os.Exit(1)
	}
}
