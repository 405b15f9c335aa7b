package tcpnet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuse/internal/telemetry"
	"fuse/internal/transport"
)

type body = transport.Body

type testMsg struct {
	body
	Seq  int
	Body string
}

type bigMsg struct {
	body
	Data []byte
}

func init() {
	transport.Register("tcpnet.test.msg", func() transport.Message { return new(testMsg) })
	transport.Register("tcpnet.test.big", func() transport.Message { return new(bigMsg) })
}

func newNode(t *testing.T, seed int64) *Node {
	t.Helper()
	n, err := Listen("127.0.0.1:0", seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// collect installs a handler that appends messages to a slice guarded by a
// mutex and signals arrivals on a channel.
func collect(n *Node) (func() []testMsg, <-chan struct{}) {
	var mu sync.Mutex
	var got []testMsg
	ch := make(chan struct{}, 1024)
	n.SetHandler(func(from transport.Addr, msg transport.Message) {
		if m, ok := msg.(*testMsg); ok {
			mu.Lock()
			got = append(got, *m)
			mu.Unlock()
			ch <- struct{}{}
		}
	})
	return func() []testMsg {
		mu.Lock()
		defer mu.Unlock()
		return append([]testMsg(nil), got...)
	}, ch
}

func waitN(t *testing.T, ch <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	got, arrived := collect(b)
	a.Send(b.Addr(), &testMsg{Seq: 1, Body: "hello"})
	waitN(t, arrived, 1)
	msgs := got()
	if len(msgs) != 1 || msgs[0].Body != "hello" {
		t.Fatalf("got %v", msgs)
	}
}

func TestOrderingPreservedPerPair(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	got, arrived := collect(b)
	const n = 100
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), &testMsg{Seq: i})
	}
	waitN(t, arrived, n)
	for i, m := range got() {
		if m.Seq != i {
			t.Fatalf("out of order at %d: %v", i, m.Seq)
		}
	}
}

func TestConnectionCaching(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	_, arrived := collect(b)
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), &testMsg{Seq: i})
	}
	waitN(t, arrived, 10)
	if dials := a.Dials(); dials != 1 {
		t.Fatalf("dials = %d, want 1 (connection cached)", dials)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	gotA, arrA := collect(a)
	gotB, arrB := collect(b)
	a.Send(b.Addr(), &testMsg{Body: "to-b"})
	b.Send(a.Addr(), &testMsg{Body: "to-a"})
	waitN(t, arrA, 1)
	waitN(t, arrB, 1)
	if gotA()[0].Body != "to-a" || gotB()[0].Body != "to-b" {
		t.Fatalf("got %v / %v", gotA(), gotB())
	}
}

func TestFromAddressIsSendersListenAddr(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	var mu sync.Mutex
	var from transport.Addr
	arrived := make(chan struct{}, 1)
	b.SetHandler(func(f transport.Addr, msg transport.Message) {
		mu.Lock()
		from = f
		mu.Unlock()
		arrived <- struct{}{}
	})
	a.Send(b.Addr(), &testMsg{})
	waitN(t, arrived, 1)
	mu.Lock()
	defer mu.Unlock()
	if from != a.Addr() {
		t.Fatalf("from = %q, want %q", from, a.Addr())
	}
}

func TestLargeMessage(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	arrived := make(chan int, 1)
	b.SetHandler(func(_ transport.Addr, msg transport.Message) {
		if m, ok := msg.(*bigMsg); ok {
			arrived <- len(m.Data)
		}
	})
	const size = 4 << 20
	a.Send(b.Addr(), &bigMsg{Data: make([]byte, size)})
	select {
	case n := <-arrived:
		if n != size {
			t.Fatalf("size = %d, want %d", n, size)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large message not delivered")
	}
}

func TestSendToDeadPeerDoesNotBlock(t *testing.T) {
	a := newNode(t, 1)
	dead := newNode(t, 2)
	deadAddr := dead.Addr()
	dead.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			a.Send(deadAddr, &testMsg{Seq: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on dead peer")
	}
}

func TestRedialAfterPeerRestart(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	_, arrived := collect(b)
	a.Send(b.Addr(), &testMsg{Seq: 0})
	waitN(t, arrived, 1)

	addr := b.Addr()
	b.Close()
	// This send hits the broken cached connection and is lost.
	a.Send(addr, &testMsg{Seq: 1})

	// Restart a listener on the same address.
	b2, err := Listen(string(addr), 3)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	t.Cleanup(b2.Close)
	got2, arrived2 := collect(b2)

	// The abandoned connection is detected asynchronously; retry sends
	// until one gets through on a fresh dial.
	deadline := time.After(5 * time.Second)
	for {
		a.Send(addr, &testMsg{Seq: 2})
		select {
		case <-arrived2:
			if msgs := got2(); msgs[0].Seq != 2 {
				t.Fatalf("got %v", msgs)
			}
			if a.Dials() < 2 {
				t.Fatalf("dials = %d, want >= 2 (redial after break)", a.Dials())
			}
			return
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("never delivered after peer restart")
		}
	}
}

func TestAfterFiresOnMailbox(t *testing.T) {
	a := newNode(t, 1)
	fired := make(chan struct{})
	a.After(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire")
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	a := newNode(t, 1)
	fired := make(chan struct{}, 1)
	tm := a.After(50*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop reported already-fired for pending timer")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(200 * time.Millisecond):
	}
}

// TestTimerResetSemantics pins the transport.Timer reset contract shared
// with the simulated transport: Reset succeeds while pending and from
// within the timer's own callback (making a periodic timer), and reports
// false once the timer was stopped or its callback completed.
func TestTimerResetSemantics(t *testing.T) {
	a := newNode(t, 1)

	// Pending: Reset moves the deadline and the timer still fires once.
	fired := make(chan struct{}, 4)
	tm := a.After(time.Hour, func() { fired <- struct{}{} })
	if !tm.Reset(20 * time.Millisecond) {
		t.Fatal("Reset on pending timer reported false")
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("reset timer did not fire")
	}

	// Completed (no reset from within the callback): Reset reports false.
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset after completed fire reported true")
	}

	// Stopped: Reset reports false and nothing fires.
	tm2 := a.After(time.Hour, func() { fired <- struct{}{} })
	tm2.Stop()
	if tm2.Reset(time.Millisecond) {
		t.Fatal("Reset after Stop reported true")
	}

	// From within the own callback: Reset re-arms, the classic periodic
	// pattern. The timer handle is published to the callback under a
	// mutex: protocol code re-arms from the same mailbox that armed, but
	// this test arms from the test goroutine.
	ticks := make(chan struct{}, 8)
	var mu sync.Mutex
	var tm3 transport.Timer
	count := 0
	mu.Lock()
	tm3 = a.After(10*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		count++
		ticks <- struct{}{}
		if count < 3 {
			if !tm3.Reset(10 * time.Millisecond) {
				t.Error("Reset from own callback reported false")
			}
		}
	})
	mu.Unlock()
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(5 * time.Second):
			t.Fatalf("periodic tick %d never fired", i+1)
		}
	}
	select {
	case <-ticks:
		t.Fatal("timer fired after its final, un-reset callback")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestHandlerCallbacksSerialized(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	var inHandler, maxConcurrent int
	var mu sync.Mutex
	done := make(chan struct{}, 256)
	b.SetHandler(func(transport.Addr, transport.Message) {
		mu.Lock()
		inHandler++
		if inHandler > maxConcurrent {
			maxConcurrent = inHandler
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inHandler--
		mu.Unlock()
		done <- struct{}{}
	})
	// Two nodes sending concurrently; handler must still be serialized.
	c := newNode(t, 3)
	for i := 0; i < 20; i++ {
		a.Send(b.Addr(), &testMsg{Seq: i})
		c.Send(b.Addr(), &testMsg{Seq: i})
	}
	waitN(t, done, 40)
	mu.Lock()
	defer mu.Unlock()
	if maxConcurrent != 1 {
		t.Fatalf("max concurrent handlers = %d, want 1", maxConcurrent)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a := newNode(t, 1)
	a.Close()
	a.Close() // must not panic or deadlock
}

func TestSendAfterCloseIsSafe(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	a.Close()
	a.Send(b.Addr(), &testMsg{}) // must not panic
}

func TestManyNodesMesh(t *testing.T) {
	const n = 8
	nodes := make([]*Node, n)
	var wg sync.WaitGroup
	var total sync.WaitGroup
	for i := range nodes {
		nodes[i] = newNode(t, int64(i))
	}
	total.Add(n * (n - 1))
	for i := range nodes {
		nodes[i].SetHandler(func(transport.Addr, transport.Message) { total.Done() })
	}
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range nodes {
				if j != i {
					nodes[i].Send(nodes[j].Addr(), &testMsg{Seq: i, Body: fmt.Sprint(j)})
				}
			}
		}()
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { total.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("mesh exchange did not complete")
	}
}

// releasableMsg counts Release calls, so tests can verify the transport
// honors the Pooled release-exactly-once contract on its drop paths.
type releasableMsg struct {
	body
	Seq      int
	released *atomic.Int32
}

func (m *releasableMsg) Release() {
	if m.released != nil {
		m.released.Add(1)
	}
}

func init() {
	transport.Register("tcpnet.test.releasable", func() transport.Message { return new(releasableMsg) })
}

// TestDropPathsReleasePooledMessages pins that pooled records are
// recycled on tcpnet's drop paths, not just after successful serialization:
// a dial failure must release both the in-hand message and everything
// still queued behind it, and sends after Close release immediately.
func TestDropPathsReleasePooledMessages(t *testing.T) {
	a := newNode(t, 1)
	// A listener that is closed immediately: connecting to it fails.
	dead := newNode(t, 2)
	deadAddr := dead.Addr()
	dead.Close()

	var released atomic.Int32
	const msgs = 16
	for i := 0; i < msgs; i++ {
		a.Send(deadAddr, &releasableMsg{Seq: i, released: &released})
	}
	deadline := time.Now().Add(5 * time.Second)
	for released.Load() != msgs {
		if time.Now().After(deadline) {
			t.Fatalf("released %d of %d messages after dial failure", released.Load(), msgs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	a.Close()
	a.Send(deadAddr, &releasableMsg{released: &released})
	if got := released.Load(); got != msgs+1 {
		t.Fatalf("send-after-close released %d, want %d", got, msgs+1)
	}
}

// TestIdleConnsAreReaped is the fd-leak regression test: a node that
// sent to N peers and then went idle must converge back to zero open
// outbound connections (and zero cache entries) once the idle timeout
// passes, and the peers' inbound sides observe the close too.
func TestIdleConnsAreReaped(t *testing.T) {
	const peers = 8
	sender := newNode(t, 1)
	sender.SetIdleTimeout(80 * time.Millisecond)
	reg := telemetry.New(time.Now(), 1)
	sender.SetTelemetry(reg)

	var acks [peers]<-chan struct{}
	for i := 0; i < peers; i++ {
		p := newNode(t, int64(2+i))
		_, acks[i] = collect(p)
		sender.Send(p.Addr(), &testMsg{Seq: i, Body: "warm"})
	}
	for i := 0; i < peers; i++ {
		waitN(t, acks[i], 1)
	}
	if got := sender.CachedConns(); got != peers {
		t.Fatalf("CachedConns = %d after sending to %d peers", got, peers)
	}
	if got := sender.OpenConns(); got != peers {
		t.Fatalf("OpenConns = %d after sending to %d peers", got, peers)
	}

	deadline := time.Now().Add(5 * time.Second)
	for sender.OpenConns() != 0 || sender.CachedConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle conns never reaped: open=%d cached=%d",
				sender.OpenConns(), sender.CachedConns())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The telemetry collectors track the same state: the gauges read
	// zero after the reap and each eviction was counted.
	if v, ok := reg.Value("tcpnet_open_conns"); !ok || v != 0 {
		t.Fatalf("tcpnet_open_conns gauge = %d, %v; want 0", v, ok)
	}
	if v, ok := reg.Value("tcpnet_cached_conns"); !ok || v != 0 {
		t.Fatalf("tcpnet_cached_conns gauge = %d, %v; want 0", v, ok)
	}
	if v, _ := reg.Value("tcpnet_idle_evictions_total"); v != peers {
		t.Fatalf("tcpnet_idle_evictions_total = %d, want %d", v, peers)
	}
}

// TestInboundConnGoroutinesConverge: a listener must not keep anything
// per inbound connection once that connection has ended. With the idle
// reaper cycling connections, a long-lived node otherwise leaks one
// goroutine per redial it receives, or one fd, and its inbound gauge
// drifts from zero.
func TestInboundConnGoroutinesConverge(t *testing.T) {
	const cycles = 12
	a := newNode(t, 1)
	b := newNode(t, 2)
	a.SetIdleTimeout(20 * time.Millisecond)
	inbound := counted(t, b)
	_, ch := collect(b)

	// One redial cycle: a dials b and delivers, a's reaper hangs up, and
	// b's read loop for that connection ends.
	cycle := func(seq int) {
		a.Send(b.Addr(), &testMsg{Seq: seq, Body: "cycle"})
		waitN(t, ch, 1)
		deadline := time.Now().Add(5 * time.Second)
		for a.OpenConns() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: conn never reaped: open=%d", seq, a.OpenConns())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// settle reads the goroutine count once it has stopped moving: b's
	// side of a connection ends a moment after a's does.
	settle := func() int {
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
			now := runtime.NumGoroutine()
			if now == got {
				break
			}
			got = now
		}
		return got
	}
	// fds counts the process's open file descriptors, or -1 where
	// /proc/self/fd does not exist.
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	cycle(0) // warm up: every long-lived goroutine of both nodes is running
	before := settle()
	fdsBefore := fds()
	for i := 1; i <= cycles; i++ {
		cycle(i)
	}
	if after := settle(); after > before {
		t.Fatalf("goroutines grew from %d to %d over %d redial cycles (%.1f per cycle)",
			before, after, cycles, float64(after-before)/cycles)
	}
	if after := fds(); after > fdsBefore {
		t.Fatalf("open fds grew from %d to %d over %d redial cycles", fdsBefore, after, cycles)
	}
	if v := inbound("tcpnet_inbound_conns"); v != 0 {
		t.Fatalf("tcpnet_inbound_conns = %d after every connection ended, want 0", v)
	}
}

// TestReapedConnRedials verifies the reaper only costs the next sender a
// reconnect: after eviction, a fresh Send dials again and delivers.
func TestReapedConnRedials(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	a.SetIdleTimeout(50 * time.Millisecond)
	got, ch := collect(b)

	a.Send(b.Addr(), &testMsg{Seq: 1, Body: "first"})
	waitN(t, ch, 1)

	deadline := time.Now().Add(5 * time.Second)
	for a.OpenConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conn never reaped: open=%d", a.OpenConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
	dialsBefore := a.Dials()

	a.Send(b.Addr(), &testMsg{Seq: 2, Body: "second"})
	waitN(t, ch, 1)
	msgs := got()
	if len(msgs) != 2 || msgs[1].Seq != 2 {
		t.Fatalf("redial delivery failed: got %+v", msgs)
	}
	if a.Dials() != dialsBefore+1 {
		t.Fatalf("expected exactly one redial, Dials went %d -> %d", dialsBefore, a.Dials())
	}
}

// TestActiveConnSurvivesReaper: steady traffic refreshes lastUse, so the
// reaper must not tear down a connection that is in active use.
func TestActiveConnSurvivesReaper(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	a.SetIdleTimeout(60 * time.Millisecond)
	_, ch := collect(b)

	const rounds = 10
	for i := 0; i < rounds; i++ {
		a.Send(b.Addr(), &testMsg{Seq: i})
		waitN(t, ch, 1)
		time.Sleep(20 * time.Millisecond) // well inside the idle timeout
	}
	if got := a.Dials(); got != 1 {
		t.Fatalf("active conn was reaped mid-traffic: %d dials for %d sends", got, rounds)
	}
}

// TestSetIdleTimeoutZeroDisablesReaper: with reaping disabled an idle
// conn stays cached (the pre-fix behavior, now opt-in).
func TestSetIdleTimeoutZeroDisablesReaper(t *testing.T) {
	a := newNode(t, 1)
	b := newNode(t, 2)
	a.SetIdleTimeout(0)
	_, ch := collect(b)
	a.Send(b.Addr(), &testMsg{Seq: 1})
	waitN(t, ch, 1)
	time.Sleep(150 * time.Millisecond)
	if got := a.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d with reaping disabled, want 1", got)
	}
}

// unregisteredMsg joins the Message union but is never registered, so
// the codec cannot frame it.
type unregisteredMsg struct {
	body
	released *atomic.Int32
}

func (m *unregisteredMsg) Release() { m.released.Add(1) }

// counted attaches a fresh registry to n and returns a reader for one of
// its metrics.
func counted(t *testing.T, n *Node) func(name string) int64 {
	t.Helper()
	reg := telemetry.New(time.Now(), 1)
	n.SetTelemetry(reg)
	return func(name string) int64 {
		v, ok := reg.Value(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
}

// waitMetric polls until metric reads want, failing after a few seconds.
func waitMetric(t *testing.T, value func(string) int64, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for value(name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, value(name), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDropsAreCounted pins tcpnet's drop counters: an unencodable
// message, a broken inbound stream and a failed connection each count,
// and every pooled record on a drop path is released exactly once.
func TestDropsAreCounted(t *testing.T) {
	t.Run("unencodable", func(t *testing.T) {
		a := newNode(t, 1)
		b := newNode(t, 2)
		value := counted(t, a)
		got, arrived := collect(b)
		var released atomic.Int32
		a.Send(b.Addr(), &unregisteredMsg{released: &released})
		a.Send(b.Addr(), &testMsg{Seq: 7})
		waitN(t, arrived, 1) // the pipe survived the bad message
		if msgs := got(); len(msgs) != 1 || msgs[0].Seq != 7 {
			t.Fatalf("got %+v", msgs)
		}
		if v := value("tcpnet_dropped_unencodable_total"); v != 1 {
			t.Fatalf("tcpnet_dropped_unencodable_total = %d, want 1", v)
		}
		if r := released.Load(); r != 1 {
			t.Fatalf("unencodable message released %d times, want 1", r)
		}
		if d := a.Dials(); d != 1 {
			t.Fatalf("dials = %d, want 1 (same connection)", d)
		}
	})

	t.Run("read errors", func(t *testing.T) {
		b := newNode(t, 1)
		value := counted(t, b)
		// Garbage in place of the header, then garbage after a valid one.
		var header bytes.Buffer
		w := bufio.NewWriter(&header)
		if err := transport.WriteHeader(w, "peer"); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		garbage := bytes.Repeat([]byte{0xff}, 16)
		for _, payload := range [][]byte{garbage, append(header.Bytes(), garbage...)} {
			conn, err := net.Dial("tcp", string(b.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(payload); err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
		}
		waitMetric(t, value, "tcpnet_read_errors_total", 2)
	})

	t.Run("conn failed", func(t *testing.T) {
		a := newNode(t, 1)
		value := counted(t, a)
		dead := newNode(t, 2)
		deadAddr := dead.Addr()
		dead.Close()
		var released atomic.Int32
		const msgs = 16
		for i := 0; i < msgs; i++ {
			a.Send(deadAddr, &releasableMsg{Seq: i, released: &released})
		}
		waitMetric(t, value, "tcpnet_dropped_conn_failed_total", msgs)
		if r := released.Load(); r != msgs {
			t.Fatalf("released %d of %d messages", r, msgs)
		}
	})
}
