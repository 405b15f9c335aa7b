package main

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuse/internal/stats"
	"fuse/internal/transport"
	"fuse/internal/transport/tcpnet"

	// The wire records under test register themselves in these packages'
	// init functions.
	_ "fuse/internal/core"
	_ "fuse/internal/overlay"
)

// The codec is unexported, so the live wire path is measured through two
// tcpnet.Nodes: real protocol records, made by transport.NewMessage and
// filled by reflection, sent A→B one at a time (latency, allocations),
// through a byte-counting relay (wire bytes) and in bursts (the
// flush-per-message cost).

// wireTags maps each metric suffix to the registry tag it measures.
var wireTags = []struct{ suffix, tag string }{
	{"ping", "overlay.ping"},
	{"pingAck", "overlay.pingAck"},
	{"hardNotification", "core.hardNotification"},
	{"installChecking", "core.installChecking"},
	{"groupCreateRequest", "core.groupCreateRequest"},
}

// newWireMessage returns a record for tag with every exported field set
// to a value of realistic size: node names and addresses as a deployment
// has them, a 20-byte piggyback payload, three-member lists.
func newWireMessage(tag string) (transport.Message, error) {
	msg, ok := transport.NewMessage(tag)
	if !ok {
		return nil, fmt.Errorf("no message registered as %q", tag)
	}
	fillValue(reflect.ValueOf(msg).Elem(), "")
	return msg, nil
}

func fillValue(v reflect.Value, field string) {
	if !v.CanSet() {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), v.Type().Field(i).Name)
		}
	case reflect.String:
		switch field {
		case "Name":
			v.SetString("n0042.fuse.example.org")
		case "Addr":
			v.SetString("127.0.0.1:40042")
		default:
			v.SetString("n0007.fuse.example.org")
		}
	case reflect.Uint64, reflect.Uint32, reflect.Uint:
		v.SetUint(1 << 20)
	case reflect.Int, reflect.Int64, reflect.Int32:
		v.SetInt(3)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		n := 3
		if v.Type().Elem().Kind() == reflect.Uint8 {
			n = 20 // the piggyback hash
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillValue(s.Index(i), field)
		}
		v.Set(s)
	case reflect.Uint8:
		v.SetUint(0xab)
	}
}

// relay forwards TCP connections to target and counts the bytes that flow
// from the dialling side to the target — for tcpnet, whose connections
// carry traffic one way, exactly the sender's frames.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() transport.Addr { return transport.Addr(rl.ln.Addr().String()) }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		in, err := rl.ln.Accept()
		if err != nil {
			return // closed
		}
		out, err := net.Dial("tcp", rl.target)
		if err != nil {
			in.Close()
			continue
		}
		rl.mu.Lock()
		rl.conns = append(rl.conns, in, out)
		rl.mu.Unlock()
		rl.wg.Add(2)
		go func() { // sender → target, counted
			defer rl.wg.Done()
			io.Copy(countingWriter{out, &rl.bytes}, in)
			out.Close()
		}()
		go func() { // target → sender, not counted
			defer rl.wg.Done()
			io.Copy(in, out)
			in.Close()
		}()
	}
}

// close stops the relay and waits for its goroutines.
func (rl *relay) close() {
	rl.ln.Close()
	rl.mu.Lock()
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func microTCPNet(r *run) {
	a, err := tcpnet.Listen("127.0.0.1:0", r.seed)
	if err != nil {
		r.check(false, "micro tcpnet: %v", err)
		return
	}
	defer a.Close()
	b, err := tcpnet.Listen("127.0.0.1:0", r.seed+1)
	if err != nil {
		r.check(false, "micro tcpnet: %v", err)
		return
	}
	defer b.Close()
	rl, err := newRelay(string(b.Addr()))
	if err != nil {
		r.check(false, "micro tcpnet relay: %v", err)
		return
	}
	defer rl.close()

	got := make(chan struct{}, micro.burst)
	b.SetHandler(func(transport.Addr, transport.Message) { got <- struct{}{} })
	// await waits for n deliveries at b; false after five seconds.
	await := func(n int) bool {
		timeout := time.NewTimer(5 * time.Second)
		defer timeout.Stop()
		for ; n > 0; n-- {
			select {
			case <-got:
			case <-timeout.C:
				return false
			}
		}
		return true
	}
	// batch makes n filled records of one type ahead of the timed part.
	batch := func(tag string, n int) []transport.Message {
		msgs := make([]transport.Message, n)
		for i := range msgs {
			if msgs[i], err = newWireMessage(tag); err != nil {
				r.check(false, "micro tcpnet: %v", err)
				return nil
			}
		}
		return msgs
	}
	ok := true
	sendEach := func(to transport.Addr, msgs []transport.Message, lat *stats.Sample) {
		for _, m := range msgs {
			t := time.Now()
			a.Send(to, m)
			ok = await(1) && ok
			if lat != nil {
				lat.Add(usOf(time.Since(t)))
			}
		}
	}

	for _, wt := range wireTags {
		// Direct, one at a time: latency and allocations per message.
		// The first message pays the dial; it is sent before timing.
		sendEach(b.Addr(), batch(wt.tag, 1), nil)
		msgs := batch(wt.tag, micro.tcpMsgs)
		lat := stats.NewSample(len(msgs))
		m0 := mallocs()
		sendEach(b.Addr(), msgs, lat)
		r.layer["tcpnet.allocs_per_msg_"+wt.suffix] = float64(mallocs()-m0) / float64(len(msgs))
		r.layer["tcpnet.oneway_us_"+wt.suffix] = lat.Median()

		// Through the relay: bytes on the wire per message, after the
		// connection's one-time header has gone through.
		sendEach(rl.addr(), batch(wt.tag, 1), nil)
		msgs = batch(wt.tag, micro.tcpMsgs/4)
		b0 := rl.bytes.Load()
		sendEach(rl.addr(), msgs, nil)
		r.layer["tcpnet.wire_bytes_"+wt.suffix] = float64(rl.bytes.Load()-b0) / float64(len(msgs))
	}

	// Bursts: micro.burst pings outstanding at once.
	const bursts = 20
	pings := batch("overlay.ping", bursts*micro.burst)
	t := time.Now()
	for i := 0; i < bursts; i++ {
		for _, m := range pings[i*micro.burst : (i+1)*micro.burst] {
			a.Send(b.Addr(), m)
		}
		ok = await(micro.burst) && ok
	}
	r.layer["tcpnet.pipelined_msgs_per_s"] = float64(len(pings)) / time.Since(t).Seconds()

	// First message to a peer never dialled before.
	dial := stats.NewSample(8)
	for i := 0; i < 8; i++ {
		peer, err := tcpnet.Listen("127.0.0.1:0", r.seed)
		if err != nil {
			r.check(false, "micro tcpnet: %v", err)
			return
		}
		peer.SetHandler(func(transport.Addr, transport.Message) { got <- struct{}{} })
		sendEach(peer.Addr(), batch("overlay.ping", 1), dial)
		peer.Close()
	}
	r.layer["tcpnet.dial_us"] = dial.Median()

	// Arming and stopping a timer.
	const timers = 2000
	m0 := mallocs()
	for i := 0; i < timers; i++ {
		a.After(time.Hour, func() {}).Stop()
	}
	r.layer["tcpnet.after_allocs"] = float64(mallocs()-m0) / timers

	leaked, reapedOK := redialLeak(r, b, func() bool { return await(1) })
	r.layer["tcpnet.goroutines_leaked_per_redial"] = leaked
	ok = ok && reapedOK

	r.check(ok, "micro tcpnet: a message was not delivered, or a connection not reaped, in time")
}

// redialLeak counts the goroutines left behind, on either side, per
// idle-reap and redial of one connection to b. The sender is a node of
// its own with a short idle timeout. The reaper picks a new timeout up
// only after its current sleep, which starts inside Listen, so a sender
// whose reaper got ahead of SetIdleTimeout is replaced by a fresh one.
func redialLeak(r *run, b *tcpnet.Node, delivered func() bool) (perRedial float64, ok bool) {
	const redials = 5
	for attempt := 0; attempt < 5; attempt++ {
		c, err := tcpnet.Listen("127.0.0.1:0", r.seed+2)
		if err != nil {
			return 0, false
		}
		c.SetIdleTimeout(10 * time.Millisecond)
		cycle := func() bool { // send one ping, then wait for the reaper to close the connection
			msg, err := newWireMessage("overlay.ping")
			if err != nil {
				return false
			}
			c.Send(b.Addr(), msg)
			if !delivered() {
				return false
			}
			for deadline := time.Now().Add(500 * time.Millisecond); c.OpenConns() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return false
				}
			}
			return true
		}
		if !cycle() {
			c.Close()
			continue
		}
		before := runtime.NumGoroutine()
		ok = true
		for i := 0; i < redials; i++ {
			ok = cycle() && ok
		}
		time.Sleep(20 * time.Millisecond) // let the writers and readers of closed connections exit
		perRedial = float64(runtime.NumGoroutine()-before) / redials
		c.Close()
		return perRedial, ok
	}
	return 0, false
}
