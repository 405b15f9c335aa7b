// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual clock, a pending-event queue, and cancellable timers.
//
// A simulation is a control lane plus zero or more shard lanes
// (EnableShards), all driven by one loop (shard.go). Each lane fires its
// events in ascending virtual-time order, events scheduled on a lane for
// the same instant fire in the order they were scheduled, and across
// lanes the logical order is the total order (time, lane, sequence) with
// the control lane first. Control events run alone at fences; between
// fences the shard lanes advance independently inside windows bounded by
// the minimum cross-shard event delay, exchanging cross-shard events at
// window barriers. That order is a pure function of the seed and the
// shard count - the number of worker goroutines changes wall-clock speed
// only, never the trace - which is what the test suite and the experiment
// harness rely on.
//
// There is no separate serial engine: a Sim without shards runs every
// event at a fence on the caller's goroutine, and with one shard nothing
// ever crosses a barrier, so a window runs straight through to the next
// control event or the deadline.
//
// The engine is built for sustained high event rates (a 16,000-node
// overlay arms hundreds of thousands of periodic timers): events live on
// a free list and are recycled after they fire or are stopped, Stop
// unlinks its event from the queue eagerly (the queue never accumulates
// cancelled entries), Reset re-arms a pending or currently-firing timer
// without allocating, and Schedule provides a handle-free path for
// fire-and-forget events whose callback closures are themselves reused.
// Steady-state workloads built on Reset and Schedule run without
// per-event allocations.
//
// Each lane's queue is a timing wheel in front of a heap (see "The
// pending queue" below): nearly every event of a simulated overlay is a
// timer drawn from a few fixed intervals of a minute or so, and for those
// scheduling, cancelling and re-arming are O(1) list operations; only the
// events of the few milliseconds being executed are ever sorted.
package eventsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Epoch is the virtual time at which every simulation starts. The concrete
// value is arbitrary; using a fixed, round timestamp makes logs readable.
var Epoch = time.Date(2004, 10, 4, 0, 0, 0, 0, time.UTC) // OSDI 2004

// globalLane is the lane id of the simulation's control lane. It sorts
// before every shard id, so control events win ties at equal timestamps.
const globalLane = -1

// lane is one event queue with its own clock, schedule-order counter, and
// recycling pool: the control lane, or one per shard. A lane's events
// always fire in (at, seq) order, and the cross-lane total order is
// (at, lane id, seq).
type lane struct {
	id  int // globalLane for the control lane, shard index otherwise
	sim *Sim

	now time.Duration // offset from Epoch
	seq uint64

	// The pending queue (see the comment above slotShift): the heap, the
	// slot up to which events go straight to it, and the ring of buckets
	// holding the ringSlots-1 slots after that one. The ring is allocated
	// on the lane's first bucketed event, so a lane that never holds a
	// near-future timer (an idle control lane) costs nothing.
	queue  eventQueue
	loaded int64
	ring   *ring
	inRing int // events linked into buckets

	// pending counts this lane's scheduled-but-unfired events, plus, on a
	// shard, the entries waiting in its outboxes. Like executed it is a
	// plain counter: only the goroutine that currently owns the lane
	// touches it, and Sim.Pending reads it at fences.
	pending int64

	// free is the event recycling pool. Events are pushed when they fire
	// or are stopped and popped by the next After/Schedule; reuse is LIFO
	// so identically seeded runs recycle identically.
	free []*event

	// executed counts events that have fired on this lane.
	executed uint64
}

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	lane // the control lane
	rng  *rand.Rand

	// The shard lanes and how windows over them run (see shard.go); all
	// zero until EnableShards.
	shards    []*Shard
	workers   int
	lookahead time.Duration

	// inWindow is true while shard callbacks may be executing. It is
	// written only by the run-loop goroutine outside the parallel region
	// (the worker spawn/join edges order it), and steers Post between
	// direct heap insertion (fences) and outbox buffering (windows).
	inWindow bool

	busy []int // scratch: indices of shards with work in the window

	// windows counts the windows run, forked those that ran on more than
	// one goroutine. Only the run-loop goroutine writes them, between
	// windows; they are for tests and are not registered in telemetry.
	windows, forked uint64
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed))}
	s.lane.id = globalLane
	s.lane.sim = s
	return s
}

// Elapsed returns the control lane's virtual time since the simulation
// epoch: exact at fences, between run calls and while stepping. Inside a
// window the shards run ahead of it; shard callbacks read Shard.Elapsed,
// their own clock.
func (s *Sim) Elapsed() time.Duration { return s.lane.now }

// Rand returns the simulation's deterministic random source. It must only
// be used at fences (setup, or control-lane events), never from shard
// callbacks.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have fired so far, across all lanes.
func (s *Sim) Executed() uint64 {
	n := s.lane.executed
	for _, x := range s.shards {
		n += x.executed
	}
	return n
}

// Pending reports how many events are scheduled but have not fired,
// across every lane and in-flight cross-shard outbox entry. Stopped timers
// leave the queue immediately, so the count is exact. Like Executed it
// must be read at a fence or between run calls: the lanes' counts are
// plain fields their own goroutines write inside windows.
func (s *Sim) Pending() int {
	n := s.lane.pending
	for _, x := range s.shards {
		n += x.lane.pending
	}
	return int(n)
}

// event states. A pending event sits in the queue (heap or bucket); a
// fired event is the one whose callback is currently executing (observable
// only from within that callback); a free event sits on the recycling pool.
const (
	statePending = iota
	stateFired
	stateFree
)

// Timer is a handle to a scheduled callback. The handle pins the specific
// scheduling it was returned for: once the event fires or is stopped (and
// its storage is recycled for an unrelated event), Stop and Reset on the
// stale handle report false and touch nothing.
//
// A Timer is owned by the lane it was scheduled on: it must only be used
// from that shard's callbacks or at fences, which is the natural pattern -
// a node's timers live on the node's shard.
type Timer struct {
	l   *lane
	ev  *event
	gen uint32
}

// live reports whether the handle still refers to its original scheduling.
func (t *Timer) live() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer. It reports whether the timer was still pending;
// it returns false if the callback already ran or the timer was already
// stopped. The event is removed from the queue and recycled immediately.
// Unlike time.Timer, Stop may be called from within any event callback
// without risk of deadlock.
func (t *Timer) Stop() bool {
	if !t.live() || t.ev.state != statePending {
		return false
	}
	t.l.pending--
	t.l.unlink(t.ev)
	t.l.recycle(t.ev)
	return true
}

// Reset re-arms the timer to fire d from now with its original callback,
// reporting whether it succeeded. It succeeds while the timer is pending
// (the event is unlinked and queued again, without allocating) and from
// within the timer's own callback (the firing event is re-queued, which is
// how periodic timers reuse one event forever). After Stop, or once the
// callback has completed, Reset reports false and the caller must
// schedule anew with After.
func (t *Timer) Reset(d time.Duration) bool {
	if !t.live() {
		return false
	}
	l := t.l
	ev := t.ev
	if d < 0 {
		d = 0
	}
	switch ev.state {
	case statePending:
		l.unlink(ev)
	case stateFired:
		ev.state = statePending
		l.pending++
	default:
		return false
	}
	ev.at = l.base() + d
	ev.seq = l.seq
	l.seq++
	l.link(ev)
	return true
}

// Stopped reports whether the timer is no longer pending (stopped, fired,
// or recycled).
func (t *Timer) Stopped() bool {
	return !t.live() || t.ev.state != statePending
}

type event struct {
	at    time.Duration
	seq   uint64 // tiebreak: schedule order within the lane
	fn    func()
	gen   uint32 // incremented on recycle; stale Timer handles mismatch
	state uint8
	index int // heap index, inBucket, or -1 when not queued

	// next and prev link a bucketed event into its bucket's list.
	next, prev *event
}

// inBucket is the event.index of an event linked into a ring bucket.
const inBucket = -2

// base returns the reference instant for relative scheduling on this
// lane. On the control lane, and for a shard executing inside a window,
// it is the lane's own clock. For a shard lane touched at a fence (setup
// code, or a control-lane event restarting a node) the shard's clock may
// lag the simulation - its last event could be long past - so the control
// lane's clock applies instead. The choice depends only on logical state,
// never on worker count, so it cannot perturb determinism.
func (l *lane) base() time.Duration {
	if l.id == globalLane {
		return l.now
	}
	s := l.sim
	if s.inWindow {
		return l.now
	}
	if g := s.lane.now; g > l.now {
		return g
	}
	return l.now
}

// alloc takes an event from the pool (or allocates one), initializes it
// to fire d after the lane's scheduling base, and queues it.
func (l *lane) alloc(d time.Duration, fn func()) *event {
	if d < 0 {
		d = 0
	}
	return l.allocAt(l.base()+d, fn)
}

// allocAt is alloc at an absolute offset from Epoch. Times in the past
// are clamped to the lane's present.
func (l *lane) allocAt(at time.Duration, fn func()) *event {
	if fn == nil {
		panic("eventsim: schedule with nil callback")
	}
	if at < l.now {
		at = l.now
	}
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = l.seq
	l.seq++
	ev.fn = fn
	ev.state = statePending
	l.pending++
	l.link(ev)
	return ev
}

// recycle returns a no-longer-pending event to the pool. Bumping the
// generation invalidates every outstanding Timer handle to it.
func (l *lane) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.state = stateFree
	ev.index = -1
	l.free = append(l.free, ev)
}

// execOne pops and fires the lane's next event, advancing the lane clock.
// The caller has just read headAt, which settled the queue.
func (l *lane) execOne() {
	l.pending--
	ev := l.popEvent()
	if ev.at < l.now {
		panic(fmt.Sprintf("eventsim: time went backwards: %v < %v", ev.at, l.now))
	}
	l.now = ev.at
	ev.state = stateFired
	l.executed++
	ev.fn()
	// Unless the callback re-armed its own event via Reset, the event is
	// spent: recycle it for the next schedule.
	if ev.state == stateFired {
		l.recycle(ev)
	}
}

// After schedules fn to run d from now and returns a cancellable handle.
// A negative d is treated as zero: the event fires at the current instant,
// after any events already scheduled for that instant. The event goes on
// the control lane, which runs only at fences; node callbacks schedule
// through their Shard instead.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	ev := s.lane.alloc(d, fn)
	return &Timer{l: &s.lane, ev: ev, gen: ev.gen}
}

// Schedule queues fn to run d from now without returning a handle. It is
// the allocation-free path for fire-and-forget events (message deliveries,
// one-shot follow-ups): the event comes from the pool and returns to it
// right after firing, and no Timer is created. When fn is itself a reused
// closure, a steady stream of Schedule calls allocates nothing.
func (s *Sim) Schedule(d time.Duration, fn func()) {
	s.lane.alloc(d, fn)
}

// RunFor is RunUntil(Elapsed() + d), the sum clamped at the largest
// representable offset so a far d drains like Run.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.lane.now + min(d, maxDuration-s.lane.now)) }

// The pending queue: a timing wheel in front of a 4-ary min-heap.
//
// Virtual time is cut into slots of 2^slotShift ns, and every lane keeps
// a watermark, loaded. An event whose slot is at or before loaded, or at
// least ringSlots slots after it, goes on the heap, which orders by
// (time, schedule sequence). Every other event - a slot in (loaded,
// loaded+ringSlots) - is linked into the ring bucket of its slot through
// its own next/prev pointers: scheduling, Stop and Reset of such an event
// are O(1), allocate nothing, and compare nothing, and the order inside a
// bucket does not matter. Within that span a slot maps to exactly one
// bucket, and a bitmap of occupied buckets finds the next one.
//
// Before the head of the queue is read, settle makes the heap's top the
// lane's earliest event: unless the top already lies in a slot before the
// first occupied bucket, that whole bucket is pushed on the heap and
// loaded advances to its slot. Every bucketed event is therefore in a
// strictly later slot than loaded, so strictly later than any event the
// heap was given because of loaded, and the pop order is exactly (at,
// seq) - the same total order a single heap yields, independent of the
// layout of either structure, so removals in any order cannot perturb
// determinism. A pop also advances loaded to the popped event's slot:
// the popped event was the earliest, so no bucket is skipped, and an
// empty ring that virtual time has run past does not leave later
// schedules stranded on the heap.
//
// The heap thus holds the slot being executed plus the rare event beyond
// the ring's span, and a pop sifts through a handful of events instead of
// all that are pending. The two constants are sized to the protocol's
// timers. A slot (16.8 ms) is short enough that the events sharing one
// stay a handful at paper scale. The span (8,192 slots, 137 s) has to
// exceed the longest periodic interval, the 90 s CheckTimeout, or that
// timer class would live on the heap; the ring costs 64 KB of heads and a
// 1 KB bitmap per lane that uses it.
const (
	slotShift = 24
	ringSlots = 8192
)

// ring is a lane's buckets: the head of each slot's list, and one bit per
// bucket that is not empty.
type ring struct {
	heads    [ringSlots]*event
	occupied [ringSlots / 64]uint64
}

func slotOf(at time.Duration) int64 { return int64(at >> slotShift) }

// after returns the first occupied bucket at or, cyclically, after bucket
// from. The ring must not be empty.
func (r *ring) after(from int) int {
	w := from >> 6
	if b := r.occupied[w] >> (from & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	// The last turn looks at the first word again, for its low bits.
	for {
		w = (w + 1) & (len(r.occupied) - 1)
		if b := r.occupied[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
}

// link queues a pending event: in its bucket if its slot is within the
// ring's span, on the heap otherwise.
func (l *lane) link(ev *event) {
	slot := slotOf(ev.at)
	if d := slot - l.loaded; d <= 0 || d >= ringSlots {
		l.pushEvent(ev)
		return
	}
	r := l.ring
	if r == nil {
		r = new(ring)
		l.ring = r
	}
	b := slot & (ringSlots - 1)
	head := r.heads[b]
	if head == nil {
		r.occupied[b>>6] |= 1 << (b & 63)
	} else {
		head.prev = ev
	}
	ev.next = head
	r.heads[b] = ev
	ev.index = inBucket
	l.inRing++
}

// unlink takes a pending event out of the queue (a stopped or re-armed
// timer).
func (l *lane) unlink(ev *event) {
	if ev.index != inBucket {
		l.removeEvent(ev.index)
		return
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b := slotOf(ev.at) & (ringSlots - 1)
		l.ring.heads[b] = ev.next
		if ev.next == nil {
			l.ring.occupied[b>>6] &^= 1 << (b & 63)
		}
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	l.inRing--
}

// settle makes the heap's top the lane's earliest pending event, moving
// the first occupied bucket onto the heap unless the top is in an earlier
// slot than that bucket.
func (l *lane) settle() {
	top := int64(math.MaxInt64)
	if len(l.queue) > 0 {
		top = slotOf(l.queue[0].at)
		if top <= l.loaded {
			return
		}
	}
	if l.inRing == 0 {
		return
	}
	r := l.ring
	from := int(l.loaded+1) & (ringSlots - 1)
	b := r.after(from)
	slot := l.loaded + 1 + int64((b-from)&(ringSlots-1))
	if top < slot {
		return
	}
	ev := r.heads[b]
	r.heads[b] = nil
	r.occupied[b>>6] &^= 1 << (b & 63)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		l.pushEvent(ev)
		l.inRing--
		ev = next
	}
	l.loaded = slot
}

// eventQueue is the heap: hand-rolled and 4-ary, chosen over
// container/heap to avoid interface dispatch on the hottest loop in the
// simulator and to halve the sift depth.
type eventQueue []*event

// before reports strict (at, seq) order between two events.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (l *lane) pushEvent(ev *event) {
	l.queue = append(l.queue, ev)
	l.siftUp(ev, len(l.queue)-1)
}

// popEvent takes the top off a settled, non-empty heap.
func (l *lane) popEvent() *event {
	q := l.queue
	top := q[0]
	last := len(q) - 1
	moved := q[last]
	q[last] = nil
	q = q[:last]
	l.queue = q
	if last > 0 {
		l.siftDown(moved, 0)
	}
	top.index = -1
	if slot := slotOf(top.at); slot > l.loaded {
		l.loaded = slot
	}
	return top
}

// removeEvent deletes the event at heap index i.
func (l *lane) removeEvent(i int) {
	q := l.queue
	last := len(q) - 1
	removed := q[i]
	moved := q[last]
	q[last] = nil
	q = q[:last]
	l.queue = q
	if i < last {
		l.fixFrom(moved, i)
	}
	removed.index = -1
}

// fixFrom places ev at index i, sifting whichever direction order needs.
func (l *lane) fixFrom(ev *event, i int) {
	if i > 0 && before(ev, l.queue[(i-1)/4]) {
		l.siftUp(ev, i)
		return
	}
	l.siftDown(ev, i)
}

// siftUp places ev at index i, moving it toward the root while it sorts
// earlier than its parent.
func (l *lane) siftUp(ev *event, i int) {
	q := l.queue
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// siftDown places ev at index i, moving it toward the leaves while a
// child sorts earlier.
func (l *lane) siftDown(ev *event, i int) {
	q := l.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(q[c], q[small]) {
				small = c
			}
		}
		if !before(q[small], ev) {
			break
		}
		q[i] = q[small]
		q[i].index = i
		i = small
	}
	q[i] = ev
	ev.index = i
}
