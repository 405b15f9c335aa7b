// Package tcpnet is the live messaging layer: it runs the same protocol
// stacks as the simulator over real TCP connections.
//
// Like the paper's implementation, it caches TCP connections between node
// pairs (so the first message between a pair pays connection establishment
// and later messages do not - the two RPC curves of Figure 6), delivers
// all messages over reliable byte streams, and treats a broken connection
// as an unreachable peer: queued messages are dropped and the protocol's
// own acknowledgment timeouts detect the failure.
//
// Each node runs a single mailbox goroutine that serializes message
// handling and timer callbacks, giving protocol code the same
// single-threaded execution model as the simulated transport. Timers
// keep the transport.Timer reset contract, so the periodic
// protocol timers written against it (overlay pings, FUSE check
// deadlines) run identically here and in simulation.
//
// On the wire, each connection carries a one-time sender-address header
// followed by framed messages from the transport.Message union, in the
// wire format package transport owns (transport.WriteHeader and
// AppendFrame out, ReadHeader and ReadFrame in); this package keeps the
// sockets, queues and counters. Malformed or truncated frames fail
// cleanly and tear the connection down, which the protocols above
// observe as an unreachable peer.
//
// Drops are counted, not logged: a full send queue, a failed connection,
// an unencodable message and a broken inbound stream each have a counter
// in the registry SetTelemetry attaches.
package tcpnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

// Node is one live endpoint. It implements transport.Env.
type Node struct {
	addr    transport.Addr
	ln      net.Listener
	mailbox chan func()
	done    chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	conns   map[transport.Addr]*outConn
	closed  bool
	handler transport.Handler

	rng *rand.Rand

	sent      atomic.Uint64
	delivered atomic.Uint64
	dials     atomic.Uint64

	// Drops by reason, and inbound connections torn down mid-stream.
	droppedQueueFull   atomic.Uint64
	droppedConnFailed  atomic.Uint64
	droppedUnencodable atomic.Uint64
	readErrors         atomic.Uint64

	idleTimeout atomic.Int64  // ns; <= 0 disables the reaper
	idleSet     chan struct{} // poked by SetIdleTimeout so the reaper re-reads it now
	openOut     atomic.Int64  // outbound TCP connections currently open
	openIn      atomic.Int64  // inbound TCP connections currently open
	evictions   atomic.Uint64

	// tele is the process-wide telemetry registry (lane 0 — live nodes
	// have no shards). Atomic because the reaper and writer goroutines
	// are already running when SetTelemetry is called.
	tele atomic.Pointer[telemetry.Registry]

	start time.Time // Elapsed's epoch
}

// SetTelemetry attaches a registry: the node's protocol stack resolves
// lane 0 through TelemetryLane, and the connection-cache state the PR 9
// fd-leak fix manages (open sockets, cached entries, idle evictions,
// dials) is exported as snapshot-time collectors. One registry per
// process: a second node attached to the same registry replaces the
// collector closures.
func (n *Node) SetTelemetry(reg *telemetry.Registry) {
	n.tele.Store(reg)
	if reg == nil {
		return
	}
	reg.GaugeFunc("tcpnet_open_conns",
		"outbound TCP connections currently open", func() int64 { return int64(n.OpenConns()) })
	reg.GaugeFunc("tcpnet_inbound_conns",
		"inbound TCP connections currently open", n.openIn.Load)
	reg.GaugeFunc("tcpnet_cached_conns",
		"entries in the outbound connection cache", func() int64 { return int64(n.CachedConns()) })
	reg.CounterFunc("tcpnet_idle_evictions_total",
		"cached connections closed by the idle reaper", func() int64 { return int64(n.evictions.Load()) })
	reg.CounterFunc("tcpnet_dials_total",
		"outbound TCP connection attempts", func() int64 { return int64(n.Dials()) })
	reg.CounterFunc("tcpnet_dropped_queue_full_total",
		"messages dropped because the peer's send queue was full", func() int64 { return int64(n.droppedQueueFull.Load()) })
	reg.CounterFunc("tcpnet_dropped_conn_failed_total",
		"messages dropped by a failed dial, header, write or flush", func() int64 { return int64(n.droppedConnFailed.Load()) })
	reg.CounterFunc("tcpnet_dropped_unencodable_total",
		"messages dropped because they could not be encoded", func() int64 { return int64(n.droppedUnencodable.Load()) })
	reg.CounterFunc("tcpnet_read_errors_total",
		"inbound connections torn down by a read or decode error", func() int64 { return int64(n.readErrors.Load()) })
	reg.CounterFunc("tcpnet_messages_sent_total",
		"messages accepted for sending", func() int64 { return int64(n.Sent()) })
	reg.CounterFunc("tcpnet_messages_delivered_total",
		"messages handed to the handler", func() int64 { return int64(n.Delivered()) })
}

// TelemetryLane implements telemetry.LaneProvider; live nodes write
// lane 0 (there is one stripe per process, and writes are atomic).
func (n *Node) TelemetryLane() *telemetry.Lane {
	reg := n.tele.Load()
	if reg == nil {
		return nil
	}
	return reg.Lane(0)
}

// outConn is a cached outbound connection with a writer goroutine. Sends
// enqueue onto ch; the writer dials lazily and drops everything on error.
type outConn struct {
	to      transport.Addr
	ch      chan transport.Message
	node    *Node
	lastUse time.Time // guarded by node.mu; refreshed by every Send
}

const outQueueDepth = 256

// defaultIdleTimeout is how long a cached connection may sit unused
// before the reaper tears it down. The paper's implementation caches
// connections so repeat RPCs skip establishment (Figure 6); without a
// reaper the cache only grows, and a node that has ever pinged the
// whole overlay holds one fd per peer forever.
const defaultIdleTimeout = 2 * time.Minute

// Listen binds a TCP listener (use "127.0.0.1:0" for tests) and starts the
// node's mailbox and accept loops. The returned node's Addr is the actual
// bound address, which other nodes dial.
func Listen(bind string, seed int64) (*Node, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", bind, err)
	}
	n := &Node{
		addr:    transport.Addr(ln.Addr().String()),
		ln:      ln,
		mailbox: make(chan func(), 1024),
		done:    make(chan struct{}),
		idleSet: make(chan struct{}, 1),
		conns:   make(map[transport.Addr]*outConn),
		rng:     rand.New(rand.NewSource(seed)),
		start:   time.Now(),
	}
	n.idleTimeout.Store(int64(defaultIdleTimeout))
	n.wg.Add(3)
	go n.mailboxLoop()
	go n.acceptLoop()
	go n.reapLoop()
	return n, nil
}

// SetHandler installs the message handler. It takes effect on the mailbox
// goroutine, so it is safe to call at any time.
func (n *Node) SetHandler(h transport.Handler) {
	n.post(func() {
		n.mu.Lock()
		n.handler = h
		n.mu.Unlock()
	})
}

// Close shuts the node down: the listener closes, cached connections
// close, timers stop delivering, and the mailbox drains.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := n.conns
	n.conns = map[transport.Addr]*outConn{}
	n.mu.Unlock()

	close(n.done)
	n.ln.Close()
	for _, c := range conns {
		close(c.ch)
	}
	n.wg.Wait()
}

// Sent reports messages accepted for sending.
func (n *Node) Sent() uint64 { return n.sent.Load() }

// Delivered reports messages handed to the handler.
func (n *Node) Delivered() uint64 { return n.delivered.Load() }

// Dials reports outbound TCP connection attempts; the gap between Sent and
// Dials demonstrates connection caching.
func (n *Node) Dials() uint64 { return n.dials.Load() }

// OpenConns reports outbound TCP connections currently open (dialed and
// not yet closed). After the idle timeout with no traffic it converges
// to zero: the reaper evicts cached connections and their writers close
// the sockets.
func (n *Node) OpenConns() int { return int(n.openOut.Load()) }

// CachedConns reports entries in the outbound connection cache,
// including ones whose writer has not dialed yet.
func (n *Node) CachedConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// SetIdleTimeout sets how long a cached outbound connection may sit
// unused before the reaper closes it. Zero or negative disables
// reaping. Takes effect at once: the reaper is woken from whatever
// sleep the previous timeout gave it.
func (n *Node) SetIdleTimeout(d time.Duration) {
	n.idleTimeout.Store(int64(d))
	select {
	case n.idleSet <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// --- transport.Env ---

// Addr returns the node's dialable address.
func (n *Node) Addr() transport.Addr { return n.addr }

// Elapsed returns the monotonic time since the node was created.
func (n *Node) Elapsed() time.Duration { return time.Since(n.start) }

// Rand returns the node's random source. It must only be used from the
// mailbox goroutine, matching the Env contract.
func (n *Node) Rand() *rand.Rand { return n.rng }

// liveTimer implements transport.Timer over time.AfterFunc. Each arm
// (the initial After and every Reset) carries its own generation; a fire
// posted to the mailbox by an earlier arm fails the generation check and
// is discarded, so resetting a timer whose old expiry is already in
// flight cannot deliver a stale callback. mu guards t and gen (an
// AfterFunc can fire before the assignment of its own handle completes,
// so the handle must be published under the lock); stopped and firing
// stay atomic so the fire path's fast checks take no lock.
type liveTimer struct {
	n       *Node
	fn      func()
	mu      sync.Mutex
	t       *time.Timer
	gen     uint64
	stopped atomic.Bool
	firing  atomic.Bool // true while fn executes
}

func (lt *liveTimer) arm(d time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.gen++
	gen := lt.gen
	lt.t = time.AfterFunc(d, func() {
		lt.n.post(func() {
			lt.mu.Lock()
			stale := lt.gen != gen
			lt.mu.Unlock()
			if stale || lt.stopped.Load() {
				return
			}
			lt.stopped.Store(true)
			lt.firing.Store(true)
			lt.fn()
			lt.firing.Store(false)
		})
	})
}

func (lt *liveTimer) Stop() bool {
	if lt.stopped.Swap(true) {
		return false
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.t.Stop()
}

// Reset re-arms the timer to fire d from now with its original callback,
// matching the simulated transport's timers: it succeeds
// while the timer is pending and from within the timer's own callback,
// and reports false once the timer was stopped or its callback has
// completed. Like every Env method it must only be called from the
// node's mailbox (a callback or message handler), which serializes it
// with the generation check in the fire path.
func (lt *liveTimer) Reset(d time.Duration) bool {
	if lt.stopped.Load() && !lt.firing.Load() {
		return false
	}
	lt.mu.Lock()
	lt.t.Stop()
	lt.mu.Unlock()
	lt.stopped.Store(false)
	lt.arm(d) // new generation invalidates any in-flight posted fire
	return true
}

// After schedules fn on the mailbox goroutine after d.
func (n *Node) After(d time.Duration, fn func()) transport.Timer {
	lt := &liveTimer{n: n, fn: fn}
	lt.arm(d)
	return lt
}

// Send transmits msg to the node listening at addr to. The send is
// asynchronous; on any connection error the message (and any others queued
// behind it) is silently dropped, modelling an unreachable peer.
func (n *Node) Send(to transport.Addr, msg transport.Message) {
	n.sent.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		transport.ReleaseMessage(msg)
		return
	}
	c, ok := n.conns[to]
	if !ok {
		c = &outConn{to: to, ch: make(chan transport.Message, outQueueDepth), node: n}
		n.conns[to] = c
		n.wg.Add(1)
		go c.writeLoop()
	}
	c.lastUse = time.Now()
	// Enqueue under the lock so Close cannot close the channel between
	// the cache lookup and the send.
	select {
	case c.ch <- msg:
	default:
		// Queue full: the peer is not draining; drop like a saturated
		// TCP connection that the sender times out on.
		n.droppedQueueFull.Add(1)
		transport.ReleaseMessage(msg)
	}
}

var _ transport.Env = (*Node)(nil)

// --- internals ---

// post enqueues fn onto the mailbox, reporting false when the node shut
// down first and fn will never run (callers owning resources bound to fn
// must release them on false).
func (n *Node) post(fn func()) bool {
	select {
	case n.mailbox <- fn:
		return true
	case <-n.done:
		return false
	}
}

func (n *Node) mailboxLoop() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.mailbox:
			fn()
		case <-n.done:
			// Drain whatever is queued, then exit.
			for {
				select {
				case fn := <-n.mailbox:
					fn()
				default:
					return
				}
			}
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	n.openIn.Add(1)
	defer n.openIn.Add(-1)
	defer conn.Close()
	ended := make(chan struct{})
	defer close(ended)
	n.wg.Add(1)
	go func() { // tear the connection down on shutdown to unblock reads
		defer n.wg.Done()
		select {
		case <-n.done:
			conn.Close()
		case <-ended: // the peer hung up first (e.g. its idle reaper): nothing left to watch
		}
	}()
	r := bufio.NewReader(conn)
	from, err := transport.ReadHeader(r)
	if err != nil {
		n.countReadError(err)
		return
	}
	for {
		msg, err := transport.ReadFrame(r)
		if err != nil {
			n.countReadError(err)
			return
		}
		if !n.post(func() {
			n.mu.Lock()
			h := n.handler
			n.mu.Unlock()
			if h != nil {
				n.delivered.Add(1)
				h(from, msg)
			}
			transport.ReleaseMessage(msg)
		}) {
			transport.ReleaseMessage(msg) // shutdown won the race: drop path
		}
	}
}

// countReadError counts an inbound connection torn down by err, unless
// err is an orderly end: the peer hanging up between frames (io.EOF) or
// this node closing the connection at shutdown.
func (n *Node) countReadError(err error) {
	if err != io.EOF && !errors.Is(err, net.ErrClosed) {
		n.readErrors.Add(1)
	}
}

func (c *outConn) writeLoop() {
	n := c.node
	defer n.wg.Done()
	var conn net.Conn
	var w *bufio.Writer
	var frame bytes.Buffer
	defer func() {
		if conn != nil {
			conn.Close()
			n.openOut.Add(-1)
		}
	}()
	for msg := range c.ch {
		if conn == nil {
			n.dials.Add(1)
			d := net.Dialer{Timeout: 5 * time.Second}
			var err error
			conn, err = d.Dial("tcp", string(c.to))
			if err != nil {
				transport.ReleaseMessage(msg)
				c.abandon()
				return
			}
			n.openOut.Add(1)
			w = bufio.NewWriter(conn)
			if err := transport.WriteHeader(w, n.addr); err != nil {
				transport.ReleaseMessage(msg)
				c.abandon()
				return
			}
		}
		frame.Reset()
		err := transport.AppendFrame(&frame, msg)
		transport.ReleaseMessage(msg) // serialized (or unencodable): sender side is done with it
		if err != nil {
			// Encoding failure is a per-message bug (unregistered type),
			// not a connection failure: drop the message, keep the pipe.
			n.droppedUnencodable.Add(1)
			continue
		}
		if _, err := w.Write(frame.Bytes()); err != nil {
			c.abandon()
			return
		}
		if err := w.Flush(); err != nil {
			c.abandon()
			return
		}
	}
}

// abandon is the writer's exit on a failed connection. It removes the
// connection from the cache so the next Send redials, then releases
// whatever is still queued: the messages are lost, as on a broken TCP
// connection, but pooled records must still be recycled
// (release-exactly-once covers drop paths too). Draining after the cache
// removal is race-free because Send only enqueues while holding the lock
// under which the conn is still cached. Every message drained, plus the
// one the writer held when the connection failed, counts as dropped.
func (c *outConn) abandon() {
	n := c.node
	n.mu.Lock()
	if n.conns[c.to] == c {
		delete(n.conns, c.to)
	}
	n.mu.Unlock()
	dropped := uint64(1)
drain:
	for {
		select {
		case msg, ok := <-c.ch:
			if !ok {
				break drain // closed by Close or the reaper, and now empty
			}
			transport.ReleaseMessage(msg)
			dropped++
		default:
			break drain
		}
	}
	n.droppedConnFailed.Add(dropped)
}

// reapLoop periodically evicts idle connections. Channel-close ownership:
// a conn's channel is closed exactly once, by whoever removes it from
// the cache while holding mu - Close for all conns at shutdown, the
// reaper for idle ones. abandon removes without closing (its writeLoop
// is exiting and drains the queue itself). Since Send only enqueues
// under mu while the conn is still cached, removal-then-close can never
// race a send onto a closed channel.
func (n *Node) reapLoop() {
	defer n.wg.Done()
	for {
		wait := time.Duration(n.idleTimeout.Load()) / 4
		if wait <= 0 {
			wait = time.Second // reaping disabled: idle poll for re-enable
		}
		select {
		case <-n.done:
			return
		case <-n.idleSet:
			continue // sleep again, by the new timeout
		case <-time.After(wait):
		}
		n.reapIdle(time.Now())
	}
}

// reapIdle evicts every cached connection unused for the idle timeout:
// removed from the cache and its channel closed under mu, which makes
// the writer drain whatever is queued, close the TCP connection, and
// exit. The next Send to that peer redials - exactly the cold-RPC cost
// the cache exists to amortize, paid again only after genuine idleness.
func (n *Node) reapIdle(now time.Time) {
	timeout := time.Duration(n.idleTimeout.Load())
	if timeout <= 0 {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	for to, c := range n.conns {
		if now.Sub(c.lastUse) >= timeout {
			delete(n.conns, to)
			close(c.ch)
			n.evictions.Add(1)
		}
	}
	n.mu.Unlock()
}
