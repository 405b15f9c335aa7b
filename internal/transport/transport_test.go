package transport

import (
	"sync"
	"testing"
	"time"
)

// --- Addr helpers ---

func TestAddrHelpers(t *testing.T) {
	a := Addr("host:9000")
	if a.String() != "host:9000" {
		t.Fatalf("String = %q", a.String())
	}
}

// --- message registry ---

type regMsg struct {
	Body
	N int
}

type regMsgB struct {
	Body
	S string
}

func TestRegisterRoundTrip(t *testing.T) {
	Register("transport.test.reg", func() Message { return new(regMsg) })

	name, ok := MessageName(&regMsg{})
	if !ok || name != "transport.test.reg" {
		t.Fatalf("MessageName = %q, %v", name, ok)
	}
	rec, ok := NewMessage("transport.test.reg")
	if !ok {
		t.Fatal("NewMessage failed for registered tag")
	}
	if _, isPtr := rec.(*regMsg); !isPtr {
		t.Fatalf("factory returned %T, want *regMsg", rec)
	}

	if _, ok := NewMessage("transport.test.unknown"); ok {
		t.Fatal("NewMessage invented a record for an unknown tag")
	}
	if _, ok := MessageName(&regMsgB{}); ok {
		t.Fatal("MessageName resolved an unregistered type")
	}
}

func TestRegisteredMessagesSortedAndComplete(t *testing.T) {
	Register("transport.test.zzz", func() Message { return new(regMsgB) })
	names := RegisteredMessages()
	found := map[string]bool{}
	for i, n := range names {
		found[n] = true
		if i > 0 && names[i-1] >= n {
			t.Fatalf("listing not strictly sorted at %q >= %q", names[i-1], n)
		}
	}
	if !found["transport.test.reg"] || !found["transport.test.zzz"] {
		t.Fatalf("listing missing registered tags: %v", names)
	}
}

func TestRegisterRejectsDuplicatesAndBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate tag", func() {
		Register("transport.test.reg", func() Message { return new(regMsgB) })
	})
	mustPanic("duplicate type", func() {
		Register("transport.test.reg2", func() Message { return new(regMsg) })
	})
	mustPanic("empty tag", func() {
		Register("", func() Message { return new(regMsg) })
	})
	mustPanic("nil factory", func() {
		Register("transport.test.nil", nil)
	})
}

// --- pooled release ---

type pooledMsg struct {
	Body
	IDs []uint64
}

var pmPool = sync.Pool{New: func() any { return new(pooledMsg) }}

func (m *pooledMsg) Release() {
	*m = pooledMsg{}
	pmPool.Put(m)
}

func TestReleaseMessageRecyclesPooledOnly(t *testing.T) {
	m := pmPool.Get().(*pooledMsg)
	m.IDs = []uint64{1, 2, 3}
	ReleaseMessage(m)
	if m.IDs != nil {
		t.Fatal("Release did not clear the record's slice reference")
	}
	// Non-pooled messages pass through untouched.
	plain := &regMsg{N: 7}
	ReleaseMessage(plain)
	if plain.N != 7 {
		t.Fatal("ReleaseMessage mutated a non-pooled record")
	}
}

// TestRegisterReleasesPooledProbeRecord pins that Register returns the
// factory's probe record to its pool: a pool-backed factory must not leak
// one record per registration, and the probe must come back zeroed.
func TestRegisterReleasesPooledProbeRecord(t *testing.T) {
	var made []*pooledMsg
	Register("transport.test.pooled", func() Message {
		m := pmPool.Get().(*pooledMsg)
		made = append(made, m)
		return m
	})
	if len(made) != 1 {
		t.Fatalf("Register invoked the factory %d times, want 1", len(made))
	}
	if made[0].IDs != nil {
		t.Fatal("probe record not zeroed after registration")
	}
}

// --- Timer / Resetter contract ---

// fakeResettable implements both Timer and Resetter; fakeTimer only Timer.
type fakeResettable struct {
	stopped bool
	resets  []time.Duration
	ok      bool
}

func (f *fakeResettable) Stop() bool { f.stopped = true; return true }
func (f *fakeResettable) Reset(d time.Duration) bool {
	f.resets = append(f.resets, d)
	return f.ok
}

type fakeTimer struct{ stopped bool }

func (f *fakeTimer) Stop() bool { f.stopped = true; return true }

// TestResetTimerContract pins the behaviour both transports' timers are
// written against: ResetTimer forwards to Reset when the implementation
// supports in-place re-arming (reporting its verdict verbatim), and
// reports false - telling the caller to schedule a fresh timer - when it
// does not. It must never Stop the timer itself; the protocol layer owns
// that decision.
func TestResetTimerContract(t *testing.T) {
	r := &fakeResettable{ok: true}
	if !ResetTimer(r, 5*time.Second) {
		t.Fatal("ResetTimer = false for a willing Resetter")
	}
	r.ok = false
	if ResetTimer(r, time.Second) {
		t.Fatal("ResetTimer = true when Reset declined")
	}
	if len(r.resets) != 2 || r.resets[0] != 5*time.Second || r.resets[1] != time.Second {
		t.Fatalf("Reset calls = %v", r.resets)
	}
	if r.stopped {
		t.Fatal("ResetTimer stopped the timer")
	}

	plain := &fakeTimer{}
	if ResetTimer(plain, time.Second) {
		t.Fatal("ResetTimer = true for a non-Resetter timer")
	}
	if plain.stopped {
		t.Fatal("ResetTimer stopped a non-Resetter timer")
	}
}

// fakeEnv records sends; fakeDialer also hands out its own Peers.
type fakeEnv struct {
	Env  // unused methods panic on the nil embedded interface
	sent []Addr
}

func (e *fakeEnv) Send(to Addr, _ Message) { e.sent = append(e.sent, to) }

type fakeDialer struct {
	fakeEnv
	dialed []Addr
}

type fakePeer struct {
	d  *fakeDialer
	to Addr
}

func (p fakePeer) Send(msg Message)     { p.d.Send("via-peer:"+p.to, msg) }
func (d *fakeDialer) Dial(to Addr) Peer { d.dialed = append(d.dialed, to); return fakePeer{d, to} }

// TestDialContract pins the optional-interface idiom Dial shares with
// ResetTimer: an Env that is a Dialer resolves the destination itself,
// once, and any other Env gets a Peer whose Send is Env.Send to the
// dialed address.
func TestDialContract(t *testing.T) {
	plain := &fakeEnv{}
	p := Dial(plain, "b")
	p.Send(&regMsg{})
	p.Send(&regMsg{})
	if len(plain.sent) != 2 || plain.sent[0] != "b" || plain.sent[1] != "b" {
		t.Fatalf("fallback Peer sent to %v, want [b b]", plain.sent)
	}

	d := &fakeDialer{}
	p = Dial(d, "c")
	p.Send(&regMsg{})
	p.Send(&regMsg{})
	if len(d.dialed) != 1 || d.dialed[0] != "c" {
		t.Fatalf("Dial calls = %v, want one for c", d.dialed)
	}
	if len(d.sent) != 2 || d.sent[0] != "via-peer:c" {
		t.Fatalf("Dialer's Peer bypassed: sends = %v", d.sent)
	}
}
