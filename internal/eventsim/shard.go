package eventsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const maxDuration = time.Duration(math.MaxInt64)

// The event loop: conservative parallel discrete-event simulation.
//
// EnableShards partitions future node events across per-shard lanes. The
// run loop alternates two regimes:
//
//   - Fences. Whenever the earliest pending event belongs to the control
//     lane, every shard has quiesced past it and the control event runs
//     alone on the run-loop goroutine. Control events (fault injection,
//     cluster surgery, experiment probes) may therefore touch any state.
//
//   - Windows. Otherwise the loop opens a window [t, t+L) - clipped at
//     the next control event and the run deadline - where L is the
//     lookahead: the minimum virtual delay of any cross-shard event. Each
//     shard executes its own events inside the window with no locks; the
//     lookahead bound guarantees nothing another shard does inside the
//     window can schedule work into this window, so shards are
//     independent within it. Cross-shard events are buffered in per-shard
//     outboxes and merged into destination lanes at the window barrier.
//     With a single shard there is no other shard to wait for, so the
//     window is clipped by the control lane and the deadline alone.
//     A window forks - its busy shards shared among worker goroutines -
//     only when they have at least minForkEvents events queued. A
//     smaller window runs its shards in index order on the run-loop
//     goroutine, which costs less than the fork and join would
//     (forkrule.go has the readings). At 1,000 nodes a window holds
//     about 14 events and runs serially; at 16,000 it holds about 200
//     and forks.
//
// Determinism holds by construction, not by scheduling luck: every event
// carries a (time, lane, sequence) key, window contents depend only on
// those keys, and outboxes merge in fixed (destination, source, FIFO)
// order. Worker count, and whether a window forks at all, decide which
// goroutine runs a shard, never what it runs or in which order: traces
// are byte-identical from workers=1 to workers=N.

// Shard is one partition of the simulation's events. Nodes are assigned
// to shards at setup; each node schedules its timers on its own shard and
// posts cross-node events through Post, which routes same-shard events
// directly and buffers cross-shard events for the next barrier.
type Shard struct {
	lane
	outbox [][]xevent // per-destination-shard buffers, this window
}

// xevent is a cross-shard event waiting in an outbox for the barrier.
type xevent struct {
	at time.Duration
	fn func()
}

// EnableShards gives the simulation n shard lanes executed by up to
// workers goroutines per window (one, whatever workers is, for a window
// with fewer than minForkEvents events queued), and returns the shards
// for node assignment. lookahead must be a lower bound on the virtual
// delay of every cross-shard event (for a simulated network that keeps
// each AS on one shard: send overhead + the cheapest inter-AS link's
// latency + deliver overhead); the barrier merge panics if a cross-shard
// event ever undercuts it. One shard has no cross-shard events, so its
// lookahead is never consulted and may be anything.
//
// The shard count is part of the logical event order: runs with equal
// shard counts and seeds are byte-identical at any worker count, runs
// with different shard counts are not comparable. Call once, before any
// node events are scheduled.
func (s *Sim) EnableShards(n, workers int, lookahead time.Duration) []*Shard {
	if len(s.shards) > 0 {
		panic("eventsim: EnableShards called twice")
	}
	if n < 1 {
		panic("eventsim: EnableShards needs at least one shard")
	}
	if n > 1 && lookahead <= 0 {
		panic("eventsim: EnableShards needs a positive lookahead")
	}
	s.shards = make([]*Shard, n)
	s.workers = max(workers, 1)
	s.lookahead = lookahead
	s.busy = make([]int, 0, n)
	for i := range s.shards {
		x := &Shard{outbox: make([][]xevent, n)}
		x.lane.id = i
		x.lane.sim = s
		x.lane.now = s.lane.now
		s.shards[i] = x
	}
	return s.shards
}

// Shards returns the shard lanes (none before EnableShards).
func (s *Sim) Shards() []*Shard { return s.shards }

// NumShards returns the shard count.
func (s *Sim) NumShards() int { return len(s.shards) }

// Workers returns how many goroutines execute a window.
func (s *Sim) Workers() int { return s.workers }

// Lookahead returns the EnableShards bound on cross-shard event delay.
func (s *Sim) Lookahead() time.Duration { return s.lookahead }

// Index returns the shard's position in the EnableShards result.
func (x *Shard) Index() int { return x.lane.id }

// Elapsed returns the shard's local virtual clock: the current event's
// time inside a window, the control lane's clock at fences.
func (x *Shard) Elapsed() time.Duration { return x.base() }

// After schedules fn on this shard d from the shard's local clock and
// returns a cancellable handle. It must be called from this shard's own
// callbacks or from a fence.
func (x *Shard) After(d time.Duration, fn func()) *Timer {
	ev := x.lane.alloc(d, fn)
	return &Timer{l: &x.lane, ev: ev, gen: ev.gen}
}

// Schedule is the handle-free After (see Sim.Schedule).
func (x *Shard) Schedule(d time.Duration, fn func()) {
	x.lane.alloc(d, fn)
}

// Post schedules fn on shard dst, d from this shard's local clock. Same
// shard (or at a fence) it inserts directly; across shards inside a
// window it buffers in the outbox for the barrier merge. Cross-shard
// posts must respect the lookahead: d at least the EnableShards bound.
func (x *Shard) Post(dst *Shard, d time.Duration, fn func()) {
	if fn == nil {
		panic("eventsim: post with nil callback")
	}
	if d < 0 {
		d = 0
	}
	at := x.base() + d
	s := x.lane.sim
	if dst == x || !s.inWindow {
		dst.lane.allocAt(at, fn)
		return
	}
	x.outbox[dst.lane.id] = append(x.outbox[dst.lane.id], xevent{at: at, fn: fn})
	x.lane.pending++
}

// headAt returns the lane's earliest pending time, or maxDuration. It
// leaves the queue settled: the event at that time is the heap's top.
func (l *lane) headAt() time.Duration {
	l.settle()
	if len(l.queue) == 0 {
		return maxDuration
	}
	return l.queue[0].at
}

// Step fires the single logically-next event across all lanes, on the
// caller's goroutine, and reports false when every queue is empty. Ties
// at equal times resolve control lane first, then shards by index, so
// stepping drivers (group-creation loops) behave identically at any
// worker count. Cross-shard posts insert
// directly here (no barrier), so with several shards a same-instant
// interleaving can differ from a windowed run of the same schedule - but
// any driver that makes the same Step/RunFor call sequence gets the same
// trace at every worker count, which is the contract the harnesses pin.
// With at most one shard nothing crosses, and Step and RunUntil fire the
// same events in the same order.
func (s *Sim) Step() bool {
	best, at := &s.lane, s.lane.headAt()
	for _, x := range s.shards {
		if t := x.lane.headAt(); t < at {
			best, at = &x.lane, t
		}
	}
	if at == maxDuration {
		return false
	}
	// Keep the control clock abreast so Sim.Elapsed and fence-relative
	// scheduling are exact while stepping, inside the callback too.
	if s.lane.now < at {
		s.lane.now = at
	}
	best.execOne()
	return true
}

// Run fires events until the queues drain, leaving the clock at the last
// event fired.
func (s *Sim) Run() { s.run(maxDuration) }

// RunUntil fires events with timestamps at or before deadline, an offset
// from the epoch, then advances the clock to deadline. Events scheduled
// after deadline remain pending, so simulations can be resumed with
// further RunUntil or Run calls.
func (s *Sim) RunUntil(deadline time.Duration) {
	s.run(deadline)
	if s.lane.now < deadline {
		s.lane.now = deadline
	}
}

// run is the fence/window loop (see the comment at the top of this
// file): it fires every event at or before limit.
func (s *Sim) run(limit time.Duration) {
	// Window ends are exclusive and maxDuration is headAt's "empty"
	// answer, so the last representable instant is out of reach.
	limit = min(limit, maxDuration-1)
	for {
		gt := s.lane.headAt()
		st := maxDuration
		for _, x := range s.shards {
			st = min(st, x.lane.headAt())
		}
		t := min(gt, st)
		if t > limit {
			break
		}
		if gt <= st {
			// Fence: drain every control event at this instant before
			// opening a window (control lane wins ties).
			s.lane.now = t
			for s.lane.headAt() == t {
				s.lane.execOne()
			}
			continue
		}
		end := min(gt, limit+1) // events at the deadline itself still fire
		if len(s.shards) > 1 && s.lookahead < end-t {
			end = t + s.lookahead
		}
		s.runWindow(t, end)
	}
}

// runWindow executes every shard event in [start, end), then merges the
// outboxes. The busy shards run in parallel when more than one has work
// and, together, at least minForkEvents events queued; otherwise in
// index order on this goroutine.
func (s *Sim) runWindow(start, end time.Duration) {
	s.busy = s.busy[:0]
	for i, x := range s.shards {
		if x.lane.now < start {
			x.lane.now = start
		}
		if x.lane.headAt() < end {
			s.busy = append(s.busy, i)
		}
	}
	// Assigned once, so the workers' closure captures it by value and a
	// window that spawns none allocates nothing.
	busy := s.busy

	s.inWindow = true
	s.windows++
	if w := min(s.workers, len(busy)); w <= 1 || s.queued(busy) < minForkEvents {
		for _, i := range busy {
			s.shards[i].runTo(end)
		}
	} else {
		s.forked++
		// w-1 fresh goroutines and this one, whose stack has long grown
		// to what a shard's deepest callback needs, share the shards.
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 1; k < w; k++ {
			go func() {
				defer wg.Done()
				s.runShare(busy, &next, end)
			}()
		}
		s.runShare(busy, &next, end)
		wg.Wait()
	}
	s.inWindow = false

	// The control clock follows the last event fired, so a run that ends
	// on this window (Run draining) reads the time it got to and not the
	// time the window opened.
	for _, i := range busy {
		s.lane.now = max(s.lane.now, s.shards[i].lane.now)
	}

	// Barrier: merge cross-shard events in fixed (destination, source,
	// FIFO) order. Destination-lane sequence numbers are assigned here,
	// so arrival order - and with it the whole downstream trace - is a
	// pure function of shard count, not of worker interleaving.
	for di, dst := range s.shards {
		for _, src := range s.shards {
			box := src.outbox[di]
			if len(box) == 0 {
				continue
			}
			src.lane.pending -= int64(len(box))
			for i := range box {
				xe := &box[i]
				if xe.at < end {
					panic(fmt.Sprintf(
						"eventsim: lookahead violated: cross-shard event at %v inside window ending %v (shard %d -> %d)",
						xe.at, end, src.lane.id, di))
				}
				dst.lane.allocAt(xe.at, xe.fn)
				xe.fn = nil
			}
			src.outbox[di] = box[:0]
		}
	}
}

// queued is the fork rule's measure of a window's work: the busy shards'
// heap lengths. headAt has just settled each of them, so a heap holds
// the events of its shard's earliest slot, which is about the window's
// own share: a window (13.9 ms on the default topology) is shorter than
// a slot (16.8 ms).
func (s *Sim) queued(busy []int) int {
	n := 0
	for _, i := range busy {
		n += len(s.shards[i].lane.queue)
	}
	return n
}

// runShare is one goroutine's part of a window: it claims busy shards
// through next until none is left, and runs each to end.
func (s *Sim) runShare(busy []int, next *atomic.Int32, end time.Duration) {
	for {
		j := int(next.Add(1)) - 1
		if j >= len(busy) {
			return
		}
		s.shards[busy[j]].runTo(end)
	}
}

// runTo drains the shard's events strictly before end (a window's
// goroutine body; touches only this shard's lane plus its outboxes).
func (x *Shard) runTo(end time.Duration) {
	for x.lane.headAt() < end {
		x.lane.execOne()
	}
}
