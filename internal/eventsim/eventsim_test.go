package eventsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySimRunReturns(t *testing.T) {
	s := New(1)
	s.Run()
	if s.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", s.Executed())
	}
	if s.Elapsed() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Elapsed())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(90*time.Second, func() { at = s.Elapsed() })
	s.Run()
	if want := 90 * time.Second; at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Hour, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Elapsed() != 0 {
		t.Fatalf("clock moved backwards or forwards: %v", s.Elapsed())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFireReportsFalse(t *testing.T) {
	s := New(1)
	var tm *Timer
	tm = s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestStopFromWithinCallback(t *testing.T) {
	s := New(1)
	fired := false
	var victim *Timer
	victim = s.After(2*time.Second, func() { fired = true })
	s.After(time.Second, func() { victim.Stop() })
	s.Run()
	if fired {
		t.Fatal("timer stopped from within a callback still fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if want := 99 * time.Millisecond; s.Elapsed() != want {
		t.Fatalf("final clock %v, want %v", s.Elapsed(), want)
	}
}

func TestRunUntilLeavesFutureEventsPending(t *testing.T) {
	s := New(1)
	var fired []int
	s.After(time.Second, func() { fired = append(fired, 1) })
	s.After(3*time.Second, func() { fired = append(fired, 2) })
	s.RunUntil(2 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if s.Elapsed() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", s.Elapsed())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("resumed run did not fire remaining event: %v", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event exactly at the deadline should fire")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := New(1)
	s.RunFor(5 * time.Second)
	s.RunFor(5 * time.Second)
	if want := 10 * time.Second; s.Elapsed() != want {
		t.Fatalf("clock = %v, want %v", s.Elapsed(), want)
	}
}

func TestAfterNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	New(1).After(time.Second, nil)
}

// TestDeterminism is a property test: with the same seed, a randomized
// workload of schedules and cancellations produces an identical firing
// trace.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var trace []int
		var timers []*Timer
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			i := i
			d := time.Duration(r.Intn(1000)) * time.Millisecond
			timers = append(timers, s.After(d, func() { trace = append(trace, i) }))
		}
		for i := 0; i < 50; i++ {
			timers[r.Intn(len(timers))].Stop()
		}
		s.Run()
		return trace
	}
	prop := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotonicClock is a property test: no matter the workload, the
// observed clock never decreases across event callbacks.
func TestMonotonicClock(t *testing.T) {
	prop := func(seed int64) bool {
		s := New(seed)
		r := rand.New(rand.NewSource(seed))
		last := s.Elapsed()
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Elapsed() < last {
				ok = false
			}
			last = s.Elapsed()
			if depth < 3 {
				for i := 0; i < 3; i++ {
					s.After(time.Duration(r.Intn(100))*time.Millisecond, func() { spawn(depth + 1) })
				}
			}
		}
		s.After(0, func() { spawn(0) })
		s.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStopShrinksPending(t *testing.T) {
	s := New(1)
	var timers []*Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Second, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", s.Pending())
	}
	for i, tm := range timers[:5] {
		if !tm.Stop() {
			t.Fatalf("Stop %d reported false", i)
		}
		if want := 9 - i; s.Pending() != want {
			t.Fatalf("pending = %d after %d stops, want %d", s.Pending(), i+1, want)
		}
	}
	s.Run()
	if s.Executed() != 5 {
		t.Fatalf("executed = %d, want 5", s.Executed())
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}

func TestResetMovesPendingDeadline(t *testing.T) {
	s := New(1)
	var at time.Duration
	tm := s.After(time.Second, func() { at = s.Elapsed() })
	if !tm.Reset(5 * time.Second) {
		t.Fatal("Reset on pending timer reported false")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (reset must not duplicate)", s.Pending())
	}
	s.Run()
	if want := 5 * time.Second; at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestResetFromOwnCallbackMakesPeriodicTimer(t *testing.T) {
	s := New(1)
	fires := 0
	var tm *Timer
	tm = s.After(time.Second, func() {
		fires++
		if fires < 5 {
			if !tm.Reset(time.Second) {
				t.Fatal("Reset from own callback reported false")
			}
		}
	})
	s.Run()
	if fires != 5 {
		t.Fatalf("fires = %d, want 5", fires)
	}
	if want := 5 * time.Second; s.Elapsed() != want {
		t.Fatalf("clock = %v, want %v", s.Elapsed(), want)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset after the final fire should report false")
	}
}

func TestResetAfterStopReportsFalse(t *testing.T) {
	s := New(1)
	tm := s.After(time.Second, func() {})
	tm.Stop()
	if tm.Reset(time.Second) {
		t.Fatal("Reset after Stop should report false")
	}
	s.Run()
	if s.Executed() != 0 {
		t.Fatal("stopped timer fired")
	}
}

// TestStaleHandleCannotTouchRecycledEvent pins the generation check: once
// a timer fires or is stopped, its event storage may be recycled for an
// unrelated scheduling, and the old handle must not affect the new one.
func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	s := New(1)
	old := s.After(time.Second, func() {})
	old.Stop()
	fired := false
	s.After(2*time.Second, func() { fired = true }) // reuses the pooled event
	if old.Stop() {
		t.Fatal("stale Stop reported true")
	}
	if old.Reset(time.Hour) {
		t.Fatal("stale Reset reported true")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event's new callback did not fire")
	}
}

// TestDeterminismWithPoolReuse extends the determinism property to the
// pooled/reused-event machinery: a workload that mixes schedules, stops,
// in-place resets, periodic self-resets, and handle-free Schedule calls
// must produce an identical firing trace and Executed() count per seed.
func TestDeterminismWithPoolReuse(t *testing.T) {
	run := func(seed int64) ([]int, uint64) {
		s := New(seed)
		var trace []int
		var timers []*Timer
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			i := i
			d := time.Duration(r.Intn(500)) * time.Millisecond
			switch i % 3 {
			case 0:
				timers = append(timers, s.After(d, func() { trace = append(trace, i) }))
			case 1:
				s.Schedule(d, func() { trace = append(trace, i) })
			default:
				ticks := 0
				var tm *Timer
				tm = s.After(d, func() {
					trace = append(trace, i)
					ticks++
					if ticks < 3 {
						tm.Reset(d + time.Millisecond)
					}
				})
				timers = append(timers, tm)
			}
		}
		for i := 0; i < 80; i++ {
			tm := timers[r.Intn(len(timers))]
			if r.Intn(2) == 0 {
				tm.Stop()
			} else {
				tm.Reset(time.Duration(r.Intn(500)) * time.Millisecond)
			}
		}
		s.Run()
		return trace, s.Executed()
	}
	prop := func(seed int64) bool {
		a, na := run(seed)
		b, nb := run(seed)
		if na != nb || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
