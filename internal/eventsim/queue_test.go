package eventsim

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// span is the ring's horizon: a delay of span-1 ns is the last one that
// can be bucketed, span itself goes to the heap.
const span = time.Duration(ringSlots) << slotShift

var queueSeed = flag.Int64("queue.seed", 0, "run the queue property tests on this one seed")

// queueRuns counts runs of the property tests in this process, so each of
// go test -count=N's repetitions draws seeds of its own.
var queueRuns atomic.Int64

func queueSeeds() []int64 {
	if *queueSeed != 0 {
		return []int64{*queueSeed}
	}
	base := queueRuns.Add(1) * 1000
	return []int64{base + 1, base + 2, base + 3}
}

// reference is the queue's specification: a bag of pending events, of
// which the next to fire is the least by (at, lane, seq), seq being the
// order in which the lane's events were (re)scheduled.
type reference struct {
	pending []refEvent
	seq     map[int]uint64
}

type refEvent struct {
	at   time.Duration
	lane int
	seq  uint64
	id   int
}

func (r *reference) add(lane int, at time.Duration, id int) {
	r.pending = append(r.pending, refEvent{at, lane, r.seq[lane], id})
	r.seq[lane]++
}

// drop removes id and reports whether it was pending.
func (r *reference) drop(id int) bool {
	for i, e := range r.pending {
		if e.id == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// next returns the event that must fire next; ok is false when none is
// pending.
func (r *reference) next() (least refEvent, ok bool) {
	for i, e := range r.pending {
		if i == 0 || e.at < least.at || e.at == least.at && (e.lane < least.lane || e.lane == least.lane && e.seq < least.seq) {
			least = e
		}
	}
	return least, len(r.pending) > 0
}

// queueDrive is one seeded run of a random mix of After, Schedule, Post,
// Stop and Reset - from fences and from inside callbacks, the firing
// timer's own included - over a control lane and nshards shard lanes.
//
// When every callback runs on the test's goroutine (ref != nil) each
// operation is mirrored into the reference and every firing, every
// Stop/Reset verdict and Pending() after every operation are checked
// against it. With several shards advanced through windows the callbacks
// of different lanes may run concurrently, so each touches only its own
// lane's state here; what is checked is then per-lane time order, the
// balance of Pending() at fences, and (by the caller) that the firing log
// does not depend on the worker count.
type queueDrive struct {
	t         *testing.T
	seed      int64
	sim       *Sim
	ref       *reference
	rng       *rand.Rand // the driver's own choices, at fences
	lanes     []*queueLane
	lookahead time.Duration
	lastAt    time.Duration // exact mode: time of the last event fired
}

// queueLane is the test's state for one lane, touched only by that lane's
// callbacks or at fences.
type queueLane struct {
	id      int // globalLane, or the shard index
	sh      *Shard
	sim     *Sim
	rng     *rand.Rand
	timers  []*queueTimer
	made    int // ids handed out
	budget  int // schedulings left, so a run ends
	firing  int // id of the event whose callback is running, or -1
	balance int // events this lane's code made pending, minus those it saw fire or stopped
	lastAt  time.Duration
	log     []string
}

type queueTimer struct {
	tm *Timer
	id int
}

func (l *queueLane) now() time.Duration {
	if l.sh != nil {
		return l.sh.Elapsed()
	}
	return l.sim.Elapsed()
}

func (l *queueLane) after(d time.Duration, fn func()) *Timer {
	if l.sh != nil {
		return l.sh.After(d, fn)
	}
	return l.sim.After(d, fn)
}

func (l *queueLane) schedule(d time.Duration, fn func()) {
	if l.sh != nil {
		l.sh.Schedule(d, fn)
	} else {
		l.sim.Schedule(d, fn)
	}
}

// delay draws a delay that lands on one of the queue's edges about half
// the time: the present, either side of a slot boundary, either side of
// the ring's horizon, far beyond it, or one of the protocol's intervals.
func (l *queueLane) delay() time.Duration {
	toSlotEnd := time.Duration(slotOf(l.now())+1)<<slotShift - 1 - l.now()
	switch l.rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return -time.Second
	case 2:
		return toSlotEnd
	case 3:
		return toSlotEnd + 1
	case 4: // the last ns of a later slot, within the horizon or beyond it
		return toSlotEnd + time.Duration(l.rng.Intn(2*ringSlots))<<slotShift
	case 5:
		return toSlotEnd + 1 + time.Duration(l.rng.Intn(2*ringSlots))<<slotShift
	case 6:
		return span - 1
	case 7:
		return span
	case 8:
		return span + 1
	case 9:
		return 10*time.Hour + time.Duration(l.rng.Int63n(int64(time.Minute)))
	case 10:
		return 20 * time.Second
	case 11:
		return 60 * time.Second
	case 12:
		return 90 * time.Second
	default:
		return time.Duration(l.rng.Int63n(int64(200 * time.Millisecond)))
	}
}

func newQueueDrive(t *testing.T, seed int64, nshards, workers int, exact bool) *queueDrive {
	w := &queueDrive{t: t, seed: seed, sim: New(seed), rng: rand.New(rand.NewSource(seed)), lookahead: 5 * time.Millisecond}
	if exact {
		w.ref = &reference{seq: map[int]uint64{}}
	}
	w.lanes = append(w.lanes, &queueLane{id: globalLane, sim: w.sim})
	if nshards > 0 {
		for _, sh := range w.sim.EnableShards(nshards, workers, w.lookahead) {
			w.lanes = append(w.lanes, &queueLane{id: sh.Index(), sh: sh, sim: w.sim})
		}
	}
	for i, l := range w.lanes {
		l.rng = rand.New(rand.NewSource(seed*100 + int64(i)))
		l.firing = -1
	}
	return w
}

// fatalf stops the test where that is allowed: without a reference the
// caller may be a worker goroutine, which can only mark the test failed.
func (w *queueDrive) fatalf(format string, args ...any) {
	w.t.Helper()
	msg := fmt.Sprintf("seed %d (-queue.seed=%d): %s", w.seed, w.seed, fmt.Sprintf(format, args...))
	if w.ref == nil {
		w.t.Error(msg)
		return
	}
	w.t.Fatal(msg)
}

// checkPending compares Pending() with the reference, or without one with
// the lanes' balances. Only valid where no other lane is running.
func (w *queueDrive) checkPending(where string) {
	w.t.Helper()
	want := 0
	if w.ref != nil {
		want = len(w.ref.pending)
	} else {
		for _, l := range w.lanes {
			want += l.balance
		}
	}
	if got := w.sim.Pending(); got != want {
		w.fatalf("%s: Pending() = %d, want %d", where, got, want)
	}
}

// newID makes an event of lane l's own pending on lane on, at l's clock
// plus d.
func (w *queueDrive) newID(l, on *queueLane, d time.Duration) int {
	id := (l.id+2)*1_000_000 + l.made
	l.made++
	l.budget--
	l.balance++
	if w.ref != nil {
		w.ref.add(on.id, l.now()+max(d, 0), id)
	}
	return id
}

// act performs one random operation as lane l's code.
func (w *queueDrive) act(l *queueLane) {
	op := l.rng.Intn(6)
	if l.budget <= 0 && op < 4 {
		return
	}
	switch op {
	case 0, 1: // a timer that may re-arm itself when it fires
		d := l.delay()
		qt := &queueTimer{id: w.newID(l, l, d)}
		qt.tm = l.after(d, func() { w.fired(l, qt.id, qt) })
		l.timers = append(l.timers, qt)
	case 2:
		d := l.delay()
		id := w.newID(l, l, d)
		l.schedule(d, func() { w.fired(l, id, nil) })
	case 3:
		if l.sh == nil {
			return
		}
		dst := w.lanes[1+l.rng.Intn(len(w.lanes)-1)]
		d := l.delay()
		if dst != l {
			d = max(d, w.lookahead)
		}
		id := w.newID(l, dst, d)
		l.sh.Post(dst.sh, d, func() { w.fired(dst, id, nil) })
	case 4:
		if len(l.timers) == 0 {
			return
		}
		qt := l.timers[l.rng.Intn(len(l.timers))]
		stopped := qt.tm.Stop()
		if stopped {
			l.balance--
			if qt.id == l.firing {
				l.firing = -1 // re-armed from its callback, then cancelled: the handle is spent
			}
		}
		if w.ref != nil && stopped != w.ref.drop(qt.id) {
			w.fatalf("Stop(%d) = %v, the reference says otherwise", qt.id, stopped)
		}
	case 5:
		if len(l.timers) == 0 {
			return
		}
		w.reset(l, l.timers[l.rng.Intn(len(l.timers))])
	}
	if w.ref != nil {
		w.checkPending("after an operation")
	}
}

// reset re-arms qt: it must succeed exactly when qt is pending or is the
// timer whose callback is running.
func (w *queueDrive) reset(l *queueLane, qt *queueTimer) {
	d := l.delay()
	pending := !qt.tm.Stopped()
	ok := qt.tm.Reset(d)
	if want := pending || qt.id == l.firing; ok != want {
		w.fatalf("Reset(%d) = %v with pending=%v firing=%d", qt.id, ok, pending, l.firing)
	}
	if ok && !pending {
		l.balance++
	}
	if w.ref != nil {
		if w.ref.drop(qt.id) != pending {
			w.fatalf("timer %d: Stopped() = %v, the reference says otherwise", qt.id, !pending)
		}
		if ok {
			w.ref.add(l.id, l.now()+max(d, 0), qt.id)
		}
	}
}

// fired is every event's callback: id fires on lane l; self is its handle
// if it has one.
func (w *queueDrive) fired(l *queueLane, id int, self *queueTimer) {
	now := l.now()
	l.log = append(l.log, fmt.Sprintf("lane=%d at=%d id=%d", l.id, now, id))
	l.balance--
	if now < l.lastAt {
		w.fatalf("lane %d fired id=%d at %v after an event at %v", l.id, id, now, l.lastAt)
	}
	l.lastAt = now
	if w.ref != nil {
		want, _ := w.ref.next()
		if want.id != id || want.at != now || want.lane != l.id {
			w.fatalf("fired id=%d on lane %d at %v; the reference's next is id=%d on lane %d at %v",
				id, l.id, now, want.id, want.lane, want.at)
		}
		w.ref.drop(id)
		w.lastAt = now
		w.checkPending("inside a callback")
	}
	l.firing = id
	if self != nil && l.budget > 0 && l.rng.Intn(2) == 0 {
		l.budget--
		w.reset(l, self)
	}
	target := l
	if l.sh == nil && len(w.lanes) > 1 {
		// A control event runs alone at a fence and may touch any lane,
		// as fault injection and cluster surgery do.
		target = w.lanes[l.rng.Intn(len(w.lanes))]
	}
	for k := l.rng.Intn(3); k > 0; k-- {
		w.act(target)
	}
	l.firing = -1
}

// step fires one event through Step and checks it was the reference's.
func (w *queueDrive) step() bool {
	want, ok := w.ref.next()
	if got := w.sim.Step(); got != ok {
		w.fatalf("Step() = %v with %d pending in the reference", got, len(w.ref.pending))
	}
	if ok && (w.lastAt != want.at || w.sim.Elapsed() != want.at) {
		w.fatalf("Step fired at %v and left the clock at %v, want %v", w.lastAt, w.sim.Elapsed(), want.at)
	}
	w.checkPending("after Step")
	return ok
}

// runFor advances through RunFor and checks what must have fired did.
func (w *queueDrive) runFor(d time.Duration) {
	deadline := w.sim.Elapsed() + d
	w.sim.RunFor(d)
	if w.sim.Elapsed() != deadline {
		w.fatalf("RunFor(%v) left the clock at %v, want %v", d, w.sim.Elapsed(), deadline)
	}
	if w.ref != nil {
		if e, ok := w.ref.next(); ok && e.at <= deadline {
			w.fatalf("RunFor(%v) to %v left id=%d at %v pending", d, deadline, e.id, e.at)
		}
	}
	w.checkPending("after RunFor")
}

// drain runs the queues empty and checks the clock stops at the last
// event fired.
func (w *queueDrive) drain(stepped bool) {
	for _, l := range w.lanes {
		l.budget = 0
	}
	exec0 := w.sim.Executed()
	if stepped {
		for w.step() {
		}
	} else {
		w.sim.Run()
	}
	if w.ref != nil && w.sim.Executed() > exec0 && w.sim.Elapsed() != w.lastAt {
		w.fatalf("drained with the clock at %v, last event fired at %v", w.sim.Elapsed(), w.lastAt)
	}
	if w.sim.Pending() != 0 {
		w.fatalf("Pending() = %d after draining", w.sim.Pending())
	}
	w.checkPending("after draining")
}

// run drives two epochs of fence operations and advances, with the queues
// drained and an hour run across the empty wheel in between, and returns
// the firing log lane by lane. stepped advances through Step only.
func (w *queueDrive) run(stepped bool) string {
	for epoch := 0; epoch < 2; epoch++ {
		for _, l := range w.lanes {
			l.budget = 150
		}
		for round := 0; round < 60; round++ {
			for k := w.rng.Intn(6); k > 0; k-- {
				w.act(w.lanes[w.rng.Intn(len(w.lanes))])
			}
			w.checkPending("at a fence")
			switch {
			case stepped || w.ref != nil && w.rng.Intn(2) == 0:
				for k := w.rng.Intn(40); k > 0; k-- {
					w.step()
				}
			default:
				w.runFor(max(w.lanes[0].delay(), 0))
			}
		}
		w.drain(stepped)
		last := w.sim.Elapsed()
		w.runFor(time.Hour)
		if w.sim.Executed() == 0 || w.sim.Elapsed() != last+time.Hour {
			w.fatalf("epoch %d: an hour across the empty wheel: executed %d, clock %v", epoch, w.sim.Executed(), w.sim.Elapsed())
		}
	}
	if w.t.Failed() {
		w.t.FailNow()
	}
	var out []string
	for _, l := range w.lanes {
		out = append(out, l.log...)
	}
	return strings.Join(out, "\n")
}

// TestQueueMatchesReference checks the queue - ring, heap and the seam
// between them - against the (at, lane, seq) reference, event by event:
// without shards and with one (Step and RunFor mixed, so runTo's windows
// are covered), and with three shards through Step, where cross-shard
// posts insert directly.
func TestQueueMatchesReference(t *testing.T) {
	for _, seed := range queueSeeds() {
		for _, c := range []struct {
			shards  int
			stepped bool
		}{{0, false}, {1, false}, {3, true}} {
			w := newQueueDrive(t, seed, c.shards, 1, true)
			if log := w.run(c.stepped); strings.Count(log, "\n") < 200 {
				t.Fatalf("seed %d, %d shards: only %d events fired", seed, c.shards, strings.Count(log, "\n"))
			}
		}
	}
}

// TestQueueShardedAcrossWorkers runs the same mix over four shards
// through windows, outboxes and barriers, and requires the firing log to
// be identical on one worker and on four.
func TestQueueShardedAcrossWorkers(t *testing.T) {
	for _, seed := range queueSeeds() {
		base := newQueueDrive(t, seed, 4, 1, false).run(false)
		if strings.Count(base, "\n") < 200 {
			t.Fatalf("seed %d: only %d events fired", seed, strings.Count(base, "\n"))
		}
		if got := newQueueDrive(t, seed, 4, 4, false).run(false); got != base {
			t.Fatalf("seed %d: firing log at workers=4 differs from workers=1", seed)
		}
	}
}

// TestFarEventMeetsItsBucket pins the seam from the heap's side: an event
// beyond the horizon waits on the heap, the ring turns until its slot is
// inside the span, and events then bucketed into that very slot - some
// earlier, some later, one at the same instant - still fire around it in
// (at, seq) order. It also pins where events live: slot zero and the far
// event on the heap with no ring allocated, the near ones in buckets.
func TestFarEventMeetsItsBucket(t *testing.T) {
	s := New(1)
	var got []string
	mark := func(name string) func() { return func() { got = append(got, name) } }

	far := span + 200*time.Second
	farTm := s.After(far, mark("far"))
	s.After(0, mark("now"))
	if s.lane.ring != nil || farTm.ev.index < 0 {
		t.Fatalf("a far event and one in the current slot must be on the heap with no ring: ring=%v index=%d", s.lane.ring != nil, farTm.ev.index)
	}
	s.After(250*time.Second, mark("turn")) // firing it turns the ring to where far is within the span
	s.RunFor(260 * time.Second)
	if farTm.ev.index < 0 {
		t.Fatal("the far event left the heap before its slot was loaded")
	}

	at := func(d time.Duration) time.Duration { return d - s.Elapsed() }
	slotStart := time.Duration(slotOf(far)) << slotShift
	before := s.After(at(slotStart), mark("slot-start"))
	s.After(at(far+1), mark("after"))
	s.After(at(far), mark("same-instant"))
	s.After(at(far-1), mark("before"))
	if before.ev.index != inBucket || s.lane.inRing != 4 {
		t.Fatalf("events in the far event's slot must be bucketed: index=%d inRing=%d", before.ev.index, s.lane.inRing)
	}
	s.Run()
	if want := "now turn slot-start before far same-instant after"; strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if s.Elapsed() != far+1 {
		t.Fatalf("Run left the clock at %v, want the last event's %v", s.Elapsed(), far+1)
	}
}

// TestRingHorizonEdges pins the delays either side of the ring's horizon
// and of a slot boundary, from a clock on a slot boundary and from one in
// mid-slot: which structure takes each (b: a bucket, h: the heap), and
// that each fires at exactly its time, in order, whichever held it.
func TestRingHorizonEdges(t *testing.T) {
	for _, c := range []struct {
		start time.Duration
		where string
	}{
		// On a boundary the horizon's last ns is the last ns of the last
		// bucketed slot; from mid-slot it is already one slot too far.
		{6000 << slotShift, "hbbhhh"},
		{6000<<slotShift + 12345*time.Microsecond, "hbhhhh"},
	} {
		s := New(1)
		s.After(c.start, func() {}) // a pop, so loaded is the clock's slot
		s.Run()
		toSlotEnd := time.Duration(slotOf(c.start)+1)<<slotShift - 1 - c.start
		delays := []time.Duration{span + 1, toSlotEnd + 1, span - 1, 0, span, toSlotEnd}
		var fired []time.Duration
		where := ""
		for _, d := range delays {
			tm := s.After(d, func() { fired = append(fired, s.Elapsed()-c.start) })
			if tm.ev.index == inBucket {
				where += "b"
			} else {
				where += "h"
			}
		}
		if where != c.where {
			t.Fatalf("from %v: placement = %s for delays %v, want %s", c.start, where, delays, c.where)
		}
		s.Run()
		want := []time.Duration{0, toSlotEnd, toSlotEnd + 1, span - 1, span, span + 1}
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("from %v: fired at %v, want %v", c.start, fired, want)
		}
	}
}

// TestWheelRecoversAfterIdleHour pins that time running far past an empty
// ring strands nothing: the first timer armed afterwards is beyond the
// stale horizon and takes the heap, and once it has fired at the new
// present, re-arming it buckets it again.
func TestWheelRecoversAfterIdleHour(t *testing.T) {
	s := New(1)
	s.RunFor(time.Hour)
	where := ""
	var tm *Timer
	tm = s.After(time.Minute, func() {
		tm.Reset(time.Minute)
		if tm.ev.index == inBucket {
			where += "b"
		} else {
			where += "h"
		}
	})
	if tm.ev.index == inBucket {
		t.Fatal("a timer an hour past the ring's horizon was bucketed")
	}
	s.RunFor(3 * time.Minute)
	if where != "bbb" {
		t.Fatalf("re-armed after an idle hour: placements %q, want bbb", where)
	}
}

// TestPeriodicTimersFullTurnZeroAlloc is the queue's own allocation pin:
// periodic timers on the protocol's intervals, re-armed from their own
// callbacks, run across more than a full turn of the ring - buckets
// filled, loaded and refilled - without allocating.
func TestPeriodicTimersFullTurnZeroAlloc(t *testing.T) {
	s := New(1)
	r := rand.New(rand.NewSource(1))
	for _, period := range []time.Duration{20 * time.Second, 60 * time.Second, 90 * time.Second} {
		for k := 0; k < 200; k++ {
			var tm *Timer
			tm = s.After(time.Duration(r.Int63n(int64(period))), func() { tm.Reset(period) })
		}
	}
	const turn = span + time.Minute
	s.RunFor(2 * turn) // the schedule repeats every 180 s: every bucket has seen its fullest
	exec0 := s.Executed()
	if allocs := testing.AllocsPerRun(3, func() { s.RunFor(turn) }); allocs != 0 {
		t.Fatalf("periodic timers across a full turn of the ring: %v allocs/run, want 0", allocs)
	}
	if s.lane.inRing < 500 || s.Executed()-exec0 < 4*600 {
		t.Fatalf("the pin did not exercise the ring: inRing = %d, %d events", s.lane.inRing, s.Executed()-exec0)
	}
}
