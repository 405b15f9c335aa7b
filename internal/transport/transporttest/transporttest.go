// Package transporttest is a hand-cranked transport for protocol tests.
// A Net holds nodes on one virtual clock that moves only when the test
// runs it. Sends wait in a list until the test delivers them, one at a
// time and in any order. Timers wait in a list too: running the clock
// fires the due ones in time order, and a test may fire any pending one
// early instead.
package transporttest

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"fuse/internal/transport"
)

// Net is a set of Envs on one clock, with the sends and timers they have
// left pending.
type Net struct {
	now    time.Duration
	nodes  map[transport.Addr]*Env
	sends  []Send
	timers []*Timer // pending, in firing order: by instant, then by scheduling
	firing *Timer   // the timer whose callback is running

	// OnSend, when set, runs after each send is queued: a test's way to
	// act in the middle of a protocol step.
	OnSend func(Send)
}

// Send is one message sent and not yet delivered.
type Send struct {
	From, To transport.Addr
	Msg      transport.Message
	At       time.Duration // the clock when it was sent
}

// NewNet returns an empty Net whose clock reads zero.
func NewNet() *Net { return &Net{nodes: make(map[transport.Addr]*Env)} }

// NewEnv adds a node at addr whose random source is seeded with seed.
func (n *Net) NewEnv(addr transport.Addr, seed int64) *Env {
	e := &Env{net: n, addr: addr, rng: rand.New(rand.NewSource(seed))}
	n.nodes[addr] = e
	return e
}

// Sends returns a copy of the pending sends, oldest first.
func (n *Net) Sends() []Send { return slices.Clone(n.sends) }

// Deliver removes pending send i and hands it to its destination's
// Handler. A send to an address with no Env, or to an Env with no
// Handler, is lost.
func (n *Net) Deliver(i int) {
	s := n.sends[i]
	n.sends = slices.Delete(n.sends, i, i+1)
	if e := n.nodes[s.To]; e != nil && e.Handler != nil {
		e.Handler(s.From, s.Msg)
	}
	transport.ReleaseMessage(s.Msg)
}

// Timers returns the pending timers in the order the clock would fire
// them.
func (n *Net) Timers() []*Timer { return slices.Clone(n.timers) }

// RunTo fires every timer due at or before t, including those scheduled
// meanwhile, in order of instant and then of scheduling (a Reset counts as
// a new scheduling), with the clock at each timer's own instant. The
// clock ends at t, or where it was if that is later.
func (n *Net) RunTo(t time.Duration) {
	for len(n.timers) > 0 && n.timers[0].at <= t {
		n.now = n.timers[0].at
		n.timers[0].Fire()
	}
	n.now = max(n.now, t)
}

// Advance runs the clock d forward: RunTo(now + d).
func (n *Net) Advance(d time.Duration) { n.RunTo(n.now + d) }

func (n *Net) schedule(t *Timer, d time.Duration) {
	t.at = n.now + max(d, 0)
	// The newest scheduling goes after every timer due at its instant.
	i := sort.Search(len(n.timers), func(i int) bool { return n.timers[i].at > t.at })
	n.timers = slices.Insert(n.timers, i, t)
}

// unschedule takes t off the pending list, reporting whether it was on it.
func (n *Net) unschedule(t *Timer) bool {
	i := slices.Index(n.timers, t)
	if i >= 0 {
		n.timers = slices.Delete(n.timers, i, i+1)
	}
	return i >= 0
}

// Env is one node's transport.Env on a Net. Like the live transport's, it
// is not a transport.Dialer.
type Env struct {
	net  *Net
	addr transport.Addr
	rng  *rand.Rand

	// Handler receives the messages delivered to this node.
	Handler transport.Handler
}

func (e *Env) Addr() transport.Addr   { return e.addr }
func (e *Env) Elapsed() time.Duration { return e.net.now }
func (e *Env) Rand() *rand.Rand       { return e.rng }

func (e *Env) Send(to transport.Addr, msg transport.Message) {
	s := Send{From: e.addr, To: to, Msg: msg, At: e.net.now}
	e.net.sends = append(e.net.sends, s)
	if e.net.OnSend != nil {
		e.net.OnSend(s)
	}
}

func (e *Env) After(d time.Duration, fn func()) transport.Timer {
	t := &Timer{net: e.net, fn: fn}
	e.net.schedule(t, d)
	return t
}

// Timer is a pending callback on a Net. It resets as the simulator's
// timers do: Reset moves a pending timer in place and re-arms a firing
// one from inside its own callback.
type Timer struct {
	net *Net
	fn  func()
	at  time.Duration
}

// At is the instant the timer is, or was last, due.
func (t *Timer) At() time.Duration { return t.at }

// Pending reports whether the timer is waiting to fire.
func (t *Timer) Pending() bool { return slices.Contains(t.net.timers, t) }

// Fire runs a pending timer's callback now, ahead of its instant if need
// be; the clock does not move.
func (t *Timer) Fire() {
	if !t.net.unschedule(t) {
		panic("transporttest: Fire on a timer that is not pending")
	}
	t.net.firing = t
	t.fn()
	t.net.firing = nil
}

func (t *Timer) Stop() bool { return t.net.unschedule(t) }

func (t *Timer) Reset(d time.Duration) bool {
	if !t.Stop() && t.net.firing != t {
		return false
	}
	t.net.schedule(t, d)
	return true
}
