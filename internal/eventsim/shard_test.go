package eventsim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// shardWorkload wires a deterministic 4-shard workload onto sim: each
// shard runs a periodic tick until 100ms, every third tick posts a
// cross-shard message (12ms, above the 10ms lookahead), every fifth tick
// posts a same-shard message below the lookahead (legal: no barrier is
// crossed), and a control-lane event at 30ms schedules onto a shard from
// a fence. Records land in per-lane logs (only the owning lane appends),
// so the returned transcript is well-defined at any worker count.
func shardWorkload(sim *Sim, shards []*Shard) func() []string {
	logs := make([][]string, len(shards)+1)
	record := func(lane int, at time.Duration, tag string) {
		logs[lane] = append(logs[lane], fmt.Sprintf("lane=%d at=%v %s", lane, at, tag))
	}
	for i := range shards {
		i := i
		sh := shards[i]
		n := 0
		var tick func()
		tick = func() {
			at := sh.Elapsed()
			record(i, at, fmt.Sprintf("tick#%d", n))
			n++
			if n%3 == 0 {
				dst := (i + 1) % len(shards)
				from := i
				sh.Post(shards[dst], 12*time.Millisecond, func() {
					record(dst, shards[dst].Elapsed(), fmt.Sprintf("recv-from=%d", from))
				})
			}
			if n%5 == 0 {
				sh.Post(sh, time.Millisecond, func() {
					record(i, sh.Elapsed(), "self-post")
				})
			}
			if at < 100*time.Millisecond {
				sh.Schedule(2*time.Millisecond+time.Duration(i)*100*time.Microsecond, tick)
			}
		}
		sh.Schedule(time.Duration(i+1)*time.Millisecond, tick)
	}
	sim.After(30*time.Millisecond, func() {
		record(len(shards), sim.Elapsed(), "fence")
		sh := shards[2]
		sh.Schedule(0, func() {
			record(2, sh.Elapsed(), "fence-kick")
		})
	})
	return func() []string {
		var out []string
		for _, l := range logs {
			out = append(out, l...)
		}
		return out
	}
}

func runShardWorkload(workers int, stepFirst int) []string {
	sim := New(42)
	shards := sim.EnableShards(4, workers, 10*time.Millisecond)
	transcript := shardWorkload(sim, shards)
	// Optionally drive the first events through Step, the way group
	// creation does, before switching to the windowed loop.
	for i := 0; i < stepFirst && sim.Step(); i++ {
	}
	// Two chunks so a window straddling the deadline is exercised.
	sim.RunFor(60 * time.Millisecond)
	sim.Run()
	return transcript()
}

func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	base := runShardWorkload(1, 0)
	if len(base) < 150 {
		t.Fatalf("workload too small to be meaningful: %d records", len(base))
	}
	for _, workers := range []int{2, 4, 8} {
		got := runShardWorkload(workers, 0)
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("workers=%d transcript diverged from workers=1 (%d vs %d records)",
				workers, len(got), len(base))
		}
	}
}

// TestMixedStepAndRunDeterministicAcrossWorkers drives the first chunk
// of the schedule through Step (the way CreateGroup loops do during
// setup) and the rest through the windowed loop, and pins that the
// transcript is identical at every worker count. This is the real
// contract the scenario engine depends on: a driver that makes the same
// Step/RunFor calls sees the same trace no matter how many workers
// execute the windows.
func TestMixedStepAndRunDeterministicAcrossWorkers(t *testing.T) {
	base := runShardWorkload(1, 40)
	for _, workers := range []int{2, 4} {
		got := runShardWorkload(workers, 40)
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("workers=%d mixed-driver transcript diverged from workers=1", workers)
		}
	}
}

func TestShardedRunDrainsAndCountsExecuted(t *testing.T) {
	sim := New(42)
	shards := sim.EnableShards(4, 4, 10*time.Millisecond)
	transcript := shardWorkload(sim, shards)
	sim.Run()
	if got := sim.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
	if got, want := sim.Executed(), uint64(len(transcript())); got != want {
		t.Fatalf("Executed = %d, want %d (one per record)", got, want)
	}
}

// queued counts what the lanes hold - heap entries, bucketed events and
// outbox entries - without the pending counters.
func queued(sim *Sim) int {
	n := len(sim.lane.queue) + sim.lane.inRing
	for _, x := range sim.shards {
		n += len(x.lane.queue) + x.lane.inRing
		for _, box := range x.outbox {
			n += len(box)
		}
	}
	return n
}

// TestPendingExactAtFences reads Pending where it may be read - from
// control-lane events, which run at fences, and between run calls -
// without shards and with, and holds it to what the lanes actually hold.
// The per-lane counts are plain fields written inside windows, so under
// -race this also pins that nothing reads them there.
func TestPendingExactAtFences(t *testing.T) {
	for _, workers := range []int{0, 4} {
		sim := New(7)
		if workers > 0 {
			shards := sim.EnableShards(4, workers, 10*time.Millisecond)
			shardWorkload(sim, shards)
		} else {
			var n int
			var tick func()
			tick = func() {
				if n++; n < 2000 {
					sim.Schedule(time.Millisecond, tick)
				}
			}
			sim.Schedule(0, tick)
		}
		check := func(where string) {
			t.Helper()
			if got, want := sim.Pending(), queued(sim); got != want {
				t.Fatalf("workers=%d %s: Pending = %d, lanes hold %d", workers, where, got, want)
			}
		}
		probes := 0
		for at := 3 * time.Millisecond; at < 150*time.Millisecond; at += 7 * time.Millisecond {
			sim.After(at, func() {
				probes++
				check("at a fence")
			})
		}
		check("before running")
		if sim.Pending() == 0 {
			t.Fatalf("workers=%d: workload scheduled nothing", workers)
		}
		sim.RunFor(45 * time.Millisecond)
		check("between run calls")
		sim.Run()
		if got := sim.Pending(); got != 0 || probes != 21 {
			t.Fatalf("workers=%d: Pending = %d after drain (want 0), %d probes ran (want 21)", workers, got, probes)
		}
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	sim := New(1)
	shards := sim.EnableShards(2, 1, 10*time.Millisecond)
	shards[0].Schedule(time.Millisecond, func() {
		// Cross-shard post below the lookahead bound: the barrier merge
		// must refuse it rather than silently misorder the trace.
		shards[0].Post(shards[1], time.Millisecond, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("undercutting the lookahead did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead violated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	sim.RunFor(50 * time.Millisecond)
}

func TestEnableShardsGuards(t *testing.T) {
	sim := New(1)
	sim.EnableShards(2, 1, time.Millisecond)
	for name, fn := range map[string]func(){
		"twice":         func() { sim.EnableShards(2, 1, time.Millisecond) },
		"zero shards":   func() { New(1).EnableShards(0, 1, time.Millisecond) },
		"no lookahead":  func() { New(1).EnableShards(2, 1, 0) },
		"neg lookahead": func() { New(1).EnableShards(2, 1, -time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EnableShards %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFenceSchedulingUsesGlobalClock pins the stale-shard-clock rule: a
// shard whose last event is long past still schedules fence work
// relative to the simulation's present, not its own past.
func TestFenceSchedulingUsesGlobalClock(t *testing.T) {
	sim := New(1)
	shards := sim.EnableShards(2, 2, 10*time.Millisecond)
	shards[0].Schedule(time.Millisecond, func() {}) // lone early event
	sim.RunFor(100 * time.Millisecond)

	var firedAt time.Duration
	shards[0].After(5*time.Millisecond, func() { firedAt = shards[0].Elapsed() })
	sim.RunFor(10 * time.Millisecond)
	if want := 105 * time.Millisecond; firedAt != want {
		t.Fatalf("fence-scheduled timer fired at %v, want %v", firedAt, want)
	}
}

// TestRunLeavesClockAtLastEvent pins Run's clock: draining through the
// window loop stops at the last event fired, not at the loop's horizon.
func TestRunLeavesClockAtLastEvent(t *testing.T) {
	sim := New(1)
	shards := sim.EnableShards(2, 1, time.Millisecond)
	shards[1].Schedule(5*time.Millisecond, func() {})
	sim.Run()
	if got, want := sim.Elapsed(), 5*time.Millisecond; got != want {
		t.Fatalf("Elapsed after Run = %v, want %v", got, want)
	}
}

// TestOneShardStepMatchesRunUntil drives one seeded schedule - shard
// tickers on colliding periods, self-posts, zero-delay follow-ups and
// control events that land on the same instants and kick the shard from
// the fence - once through RunUntil(T) and once through Step. With one
// shard nothing crosses a barrier, so the same-instant divergence Step
// documents for several shards cannot occur: same events, same order.
func TestOneShardStepMatchesRunUntil(t *testing.T) {
	const T = 100 * time.Millisecond
	build := func() (*Sim, *[]string) {
		sim := New(11)
		sh := sim.EnableShards(1, 1, 0)[0]
		var log []string
		rng := sim.Rand()
		for k := 0; k < 20; k++ {
			k := k
			period := time.Duration(1+rng.Intn(4)) * time.Millisecond
			n := 0
			var tick func()
			tick = func() {
				log = append(log, fmt.Sprintf("shard at=%v tick=%d#%d", sh.Elapsed(), k, n))
				if n++; n%3 == 0 {
					sh.Post(sh, time.Duration(k%3)*time.Millisecond, func() {
						log = append(log, fmt.Sprintf("shard at=%v post=%d", sh.Elapsed(), k))
					})
				}
				if sh.Elapsed() < 150*time.Millisecond {
					sh.Schedule(period, tick)
				}
			}
			sh.Schedule(period, tick)
		}
		for at := 5 * time.Millisecond; at <= 150*time.Millisecond; at += 5 * time.Millisecond {
			sim.After(at, func() {
				log = append(log, fmt.Sprintf("ctl   at=%v", sim.Elapsed()))
				sh.Schedule(0, func() {
					log = append(log, fmt.Sprintf("shard at=%v fence-kick", sh.Elapsed()))
				})
			})
		}
		return sim, &log
	}

	ran, ranLog := build()
	ran.RunUntil(T)
	n := ran.Executed()
	if n < 500 || ran.Pending() == 0 {
		t.Fatalf("schedule too small to mean anything: %d executed, %d pending", n, ran.Pending())
	}

	stepped, stepLog := build()
	for stepped.Executed() < n && stepped.Step() {
	}
	if got, want := strings.Join(*stepLog, "\n"), strings.Join(*ranLog, "\n"); got != want {
		t.Fatalf("Step and RunUntil(T) fired different events or orders:\nstep:\n%s\nrun:\n%s", got, want)
	}
	if stepped.Elapsed() > T || !stepped.Step() || stepped.Elapsed() <= T {
		t.Fatalf("RunUntil(T) did not stop exactly at T: the step after its %d events lands at %v", n, stepped.Elapsed())
	}
}

// TestControlLaneOnlySim pins the shard-less Sim (a bare event queue, as
// unit tests and micro-benchmarks use it) on the one loop: every event is
// a fence, one instant's events fire in schedule order, RunUntil leaves
// later events pending with the clock at its deadline, and a RunFor
// beyond the representable range drains like Run.
func TestControlLaneOnlySim(t *testing.T) {
	sim := New(1)
	var fired []int
	for i := 0; i < 4; i++ {
		i := i
		sim.After(time.Second, func() { fired = append(fired, i) })
	}
	sim.After(3*time.Second, func() { fired = append(fired, 4) })
	sim.RunUntil(2 * time.Second)
	if fmt.Sprint(fired) != "[0 1 2 3]" {
		t.Fatalf("fired = %v, want [0 1 2 3]", fired)
	}
	if sim.Elapsed() != 2*time.Second || sim.Pending() != 1 {
		t.Fatalf("after RunUntil: Elapsed = %v, Pending = %d; want 2s, 1", sim.Elapsed(), sim.Pending())
	}

	// RunFor from a clock already past zero: an unclamped sum would wrap
	// negative and fire nothing.
	sim = New(1)
	sim.RunFor(time.Second)
	sim.After(3*time.Second, func() { fired = append(fired, 5) })
	sim.RunFor(maxDuration)
	if fired[len(fired)-1] != 5 || sim.Pending() != 0 {
		t.Fatalf("far deadline did not drain: fired = %v, Pending = %d", fired, sim.Pending())
	}
}

// runTicks runs a periodic tick on each of 8 shards until 200ms: shard
// i ticks every period from i*10µs, and every fourth tick posts a
// message 12ms ahead (above the 10ms lookahead) to shard i+3. Records
// land in per-lane logs, as in shardWorkload; it returns the drained
// Sim and the transcript.
func runTicks(workers int, period time.Duration) (*Sim, []string) {
	sim := New(7)
	shards := sim.EnableShards(8, workers, 10*time.Millisecond)
	logs := make([][]string, len(shards))
	for i, sh := range shards {
		n := 0
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("lane=%d at=%v tick#%d", i, sh.Elapsed(), n))
			n++
			if n%4 == 0 {
				dst := (i + 3) % len(shards)
				from := i
				sh.Post(shards[dst], 12*time.Millisecond, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("lane=%d at=%v recv-from=%d", dst, shards[dst].Elapsed(), from))
				})
			}
			if sh.Elapsed() < 200*time.Millisecond {
				sh.Schedule(period, tick)
			}
		}
		sh.Schedule(time.Duration(i)*10*time.Microsecond, tick)
	}
	sim.Run()
	var out []string
	for _, l := range logs {
		out = append(out, l...)
	}
	return sim, out
}

// TestWindowForkRule pins who runs a window's shards. A dense window (a
// tick every 500µs on each of 8 shards: about 200 events per 10ms
// window, posts included) forks at every worker count above one, and
// its transcript is the one-worker transcript. A sparse one (a tick
// every 20ms: at most a tick and a post per shard per slot, so at most
// 16 queued) runs on the run-loop goroutine at
// workers=2 - except under the race detector, whose build forks every
// window with two or more busy shards (forkrule_race.go) - and its
// transcript does not move either.
func TestWindowForkRule(t *testing.T) {
	const dense, sparse = 500 * time.Microsecond, 20 * time.Millisecond
	sim, base := runTicks(1, dense)
	if sim.windows == 0 || sim.forked != 0 {
		t.Fatalf("dense, workers=1: %d windows, %d forked; want some windows, none forked", sim.windows, sim.forked)
	}
	for _, workers := range []int{2, 4, 8} {
		sim, got := runTicks(workers, dense)
		if sim.forked == 0 {
			t.Fatalf("dense, workers=%d: none of %d windows forked", workers, sim.windows)
		}
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("dense, workers=%d: transcript diverged from workers=1 (%d vs %d records)", workers, len(got), len(base))
		}
	}

	_, base = runTicks(1, sparse)
	sim, got := runTicks(2, sparse)
	if strings.Join(got, "\n") != strings.Join(base, "\n") {
		t.Fatalf("sparse, workers=2: transcript diverged from workers=1 (%d vs %d records)", len(got), len(base))
	}
	want := uint64(0)
	if minForkEvents == 1 {
		want = sim.windows
	}
	if sim.windows == 0 || sim.forked != want {
		t.Fatalf("sparse, workers=2: %d of %d windows forked, want %d (minForkEvents %d)",
			sim.forked, sim.windows, want, minForkEvents)
	}
}
