// Package transport defines the environment abstraction that lets the
// overlay and FUSE protocol code run unchanged over different messaging
// layers, mirroring the paper's property that "the live system and the
// simulator use an identical code base except for the base messaging
// layer".
//
// A protocol stack is written as a single-threaded event handler: it
// receives messages and timer callbacks through an Env, and sends messages
// and sets timers through the same Env. Each Env guarantees that all
// callbacks for its node are serialized (no two run concurrently), so
// protocol code needs no locking. The simulated transport
// (transport/simnet) runs callbacks on a deterministic virtual clock; the
// live transport (transport/tcpnet) runs them on a per-node mailbox
// goroutine over real TCP connections.
//
// An Env has no logging side channel. A protocol layer, or a transport,
// makes itself observable only through the telemetry registry and event
// trace, which an Env may expose as a telemetry.LaneProvider.
//
// Messages form a closed, typed union: every wire message implements
// Message by embedding Body (conventionally through an unexported alias,
// so the marker field stays off the wire), and registers itself with
// Register so this package's codec can frame it with a stable type tag.
// The codec (AppendFrame, ReadFrame, and the connection header) is the
// one wire format: byte-oriented transports call it and own only their
// sockets. Passing concrete message records as pointers through the
// Message interface means a send boxes nothing; the ping-cycle records
// are additionally pool-backed (Pooled), making the steady-state
// send->deliver->handle cycle allocation-free on the simulated transport.
package transport

import (
	"encoding/gob"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"
)

// Addr identifies a node endpoint. For the simulated transport it is an
// arbitrary unique name; for the TCP transport it is a dialable
// "host:port" string. Protocol code treats it as opaque.
type Addr string

func (a Addr) String() string { return string(a) }

// Message is the closed union of wire messages. Concrete message types
// join it by embedding Body; the unexported marker method keeps arbitrary
// values (strings, ints, ad-hoc structs) out of the transports, so every
// message that crosses a Send is a registered, codec-framable record.
//
// Ownership: the sender relinquishes the message when it calls Env.Send,
// and a receiver may use it only for the duration of the handler call.
// Retaining a message (or data reachable from it, such as a payload
// slice) past either point requires copying, because pooled records are
// recycled as soon as their final delivery completes.
type Message interface {
	transportMessage()
}

// Body is embedded by every concrete message type to implement Message.
// Embed it through an unexported type alias (`type body = transport.Body`)
// so the marker rides as an unexported field that gob-based codecs skip.
// The marker uses a pointer receiver deliberately: only *msgFoo joins the
// union, so sending a message by value (a forgotten &) is a compile
// error instead of a silently undeliverable frame.
type Body struct{}

func (*Body) transportMessage() {}

// Pooled is optionally implemented by message records drawn from a
// sync.Pool. The transport that completes a message's final delivery (or
// drops it) calls Release exactly once; Release must zero the record -
// including payload slice references, so no group-ID bytes leak across
// deliveries - before returning it to its pool. A pooled message must be
// sent to exactly one destination and never forwarded as-is.
type Pooled interface {
	Message
	Release()
}

// ReleaseMessage recycles msg if it is a pooled record and is a no-op
// otherwise. Transports call it after the handler returns (or on any drop
// path); protocol code never does.
func ReleaseMessage(msg Message) {
	if p, ok := msg.(Pooled); ok {
		p.Release()
	}
}

// Handler receives every message delivered to a node. Implementations run
// serialized with the node's timer callbacks.
type Handler func(from Addr, msg Message)

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Resetter is optionally implemented by Timers that can be re-armed in
// place with their original callback. Periodic protocol timers (overlay
// pings, FUSE check deadlines) use it through ResetTimer so the simulated
// transport can reuse one pooled event per timer instead of allocating a
// fresh one every period.
type Resetter interface {
	// Reset re-arms the timer to fire d from now, reporting whether it
	// succeeded. Implementations must support being called both while the
	// timer is pending and from within the timer's own callback.
	Reset(d time.Duration) bool
}

// ResetTimer re-arms t for d when its implementation supports in-place
// reset, reporting whether it did. On false the caller schedules a fresh
// timer with Env.After; protocol code is thereby written once and runs
// allocation-free on transports that implement Resetter.
func ResetTimer(t Timer, d time.Duration) bool {
	if r, ok := t.(Resetter); ok {
		return r.Reset(d)
	}
	return false
}

// Route is a destination a sender keeps and sends to many times: the
// address, plus what a Dialer resolved it to at the route's first send
// that found a node there. The caller holds it by value (the overlay
// keeps one in each link slot, so a periodic send touches no other
// record) and sends through it with SendRoute, which a Dialer fills in
// place. Dst, Latency and Loss belong to the Dialer that filled them;
// they stay zero on every other Env.
type Route struct {
	Addr Addr
	// Dst is the endpoint Addr resolved to (simnet: the destination
	// node), nil until then. Latency and Loss are the one-way latency and
	// per-transmission loss of the path to it.
	Dst     any
	Latency time.Duration
	Loss    float64
}

// Dialer is optionally implemented by Envs that resolve a destination
// once into send state the caller's Route keeps (the simulated
// transport's node and topology path). Like Resetter it is an
// optimization protocol code reaches through helpers, NewRoute and
// SendRoute, and never depends on.
type Dialer interface {
	// Dial returns an unresolved Route to to, noting it for an Env that
	// resolves several of a sender's routes together. It never fails:
	// an address nobody listens on yet resolves, or drops, at each send,
	// as Env.Send would.
	Dial(to Addr) Route

	// SendRoute is Env.Send to r.Addr, with the same delivery and
	// ownership rules. The first send that finds a node at r.Addr
	// resolves r in place, and later sends use what it found.
	SendRoute(r *Route, msg Message)
}

// NewRoute returns a Route to to, dialed through env when env is a
// Dialer.
func NewRoute(env Env, to Addr) Route {
	if d, ok := env.(Dialer); ok {
		return d.Dial(to)
	}
	return Route{Addr: to}
}

// SendRoute sends msg over r: through env's SendRoute when env is a
// Dialer, else as env.Send(r.Addr, msg). Protocol code is written once,
// allocates nothing per route on any Env, and skips the per-send lookup
// on transports that implement Dialer.
func SendRoute(env Env, r *Route, msg Message) {
	if d, ok := env.(Dialer); ok {
		d.SendRoute(r, msg)
		return
	}
	env.Send(r.Addr, msg)
}

// Env is the execution environment handed to a protocol stack: an address,
// a clock, timers, sends and a random source, and nothing else (what a
// node observes about itself goes to telemetry). All methods must be
// called from within the node's callbacks (or before the node starts
// processing messages); they are not safe for use from foreign goroutines
// except where an implementation documents otherwise.
type Env interface {
	// Addr returns this node's own address.
	Addr() Addr

	// Elapsed is the node's clock: the time since a fixed epoch, which
	// is the simulation's start in simulation (virtual time) and the
	// Env's creation live (read from the monotonic clock). It never goes
	// backwards and is never negative, so a zero offset is never in the
	// future. Protocol code keeps every instant as such an offset.
	Elapsed() time.Duration

	// After schedules fn to run on this node's event loop after d.
	After(d time.Duration, fn func()) Timer

	// Send transmits msg to the node at addr. Delivery is asynchronous
	// and unreliable in the same way a TCP connection to a failed or
	// unreachable peer is: the message may never arrive, and the sender
	// is not told. Protocols detect loss with their own acknowledgment
	// timeouts, exactly as the paper's implementation does. The sender
	// relinquishes ownership of msg (see Message).
	Send(to Addr, msg Message)

	// Rand returns this node's random source. In simulation it is
	// deterministic per node.
	Rand() *rand.Rand
}

// --- message registry ---

// The registry maps stable wire tags to message factories (decode side,
// ReadFrame) and concrete types back to tags (encode side, AppendFrame).
// Tags are assigned by the protocol packages' init functions, so both
// endpoints of a run built from the same binary agree on them, and on
// the field order of the records that write their own bodies (Wire);
// the codec (codec.go) gob-encodes every other record.

type registryEntry struct {
	name string
	new  func() Message
}

var (
	registryMu     sync.RWMutex
	registryByName = make(map[string]registryEntry)
	registryByType = make(map[reflect.Type]registryEntry)
)

// Register records a concrete message type under a stable wire tag. The
// factory must return a fresh (or pooled, zeroed) record of one pointer
// type; byte-oriented transports decode into it. Registration also makes
// the type gob-encodable inside the interface-typed fields of records
// with gob bodies (svtree's event data may hold anything). Protocol packages
// register their messages in init; duplicate tags or types panic.
func Register(name string, newFn func() Message) {
	if name == "" || newFn == nil {
		panic("transport: Register needs a tag and a factory")
	}
	rec := newFn()
	t := reflect.TypeOf(rec)
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registryByName[name]; dup {
		panic("transport: duplicate message tag " + name)
	}
	if e, dup := registryByType[t]; dup {
		panic("transport: type " + t.String() + " already registered as " + e.name)
	}
	e := registryEntry{name: name, new: newFn}
	registryByName[name] = e
	registryByType[t] = e
	gob.Register(rec)
	ReleaseMessage(rec)
}

// messageName returns the wire tag msg was registered under.
func messageName(msg Message) (string, bool) {
	registryMu.RLock()
	e, ok := registryByType[reflect.TypeOf(msg)]
	registryMu.RUnlock()
	return e.name, ok
}

// lookupTag returns the registry entry for a tag read off the wire,
// without copying it into a string of its own.
func lookupTag(tag []byte) (registryEntry, bool) {
	registryMu.RLock()
	e, ok := registryByName[string(tag)]
	registryMu.RUnlock()
	return e, ok
}

// NewMessage returns a fresh record for the given wire tag.
func NewMessage(name string) (Message, bool) {
	registryMu.RLock()
	e, ok := registryByName[name]
	registryMu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.new(), true
}

// RegisteredMessages lists every registered wire tag in sorted order; the
// codec round-trip tests enumerate the union with it.
func RegisteredMessages() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registryByName))
	for name := range registryByName {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}
