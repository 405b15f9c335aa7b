package livetopo_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
	"unicode"

	"fuse/internal/livetopo"
	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

var update = flag.Bool("update", false, "rewrite testdata/sends.golden from this run")

// sendLog runs one topology's services on a hand-cranked Net, where a
// message arrives the instant the one before it has been handled, and
// logs every send and every notice with its virtual instant.
type sendLog struct {
	net    *transporttest.Net
	envs   []*transporttest.Env
	svcs   []*livetopo.Service
	refs   []overlay.NodeRef
	dead   []bool
	groups map[livetopo.GroupID]string
	lines  []string
}

// logEnv is one node's Env: it logs each send, and a crashed node sends
// nothing and runs no timer callback.
type logEnv struct {
	*transporttest.Env
	log *sendLog
	i   int
}

func (e logEnv) Send(to transport.Addr, msg transport.Message) {
	if e.log.dead[e.i] {
		transport.ReleaseMessage(msg)
		return
	}
	kind := []rune(strings.TrimPrefix(fmt.Sprintf("%T", msg), "*livetopo.msg"))
	kind[0] = unicode.ToLower(kind[0])
	e.log.printf("%s -> %s %s", e.Addr(), to, string(kind))
	e.Env.Send(to, msg)
}

func (e logEnv) After(d time.Duration, fn func()) transport.Timer {
	return e.Env.After(d, func() {
		if !e.log.dead[e.i] {
			fn()
		}
	})
}

// newSendLog makes n nodes n0..n(n-1); n0 is the central server.
func newSendLog(kind livetopo.Kind, n int) *sendLog {
	l := &sendLog{net: transporttest.NewNet(), dead: make([]bool, n), groups: make(map[livetopo.GroupID]string)}
	server := overlay.NodeRef{Name: "n0", Addr: "n0"}
	for i := range n {
		ref := overlay.NodeRef{Name: fmt.Sprintf("n%d", i), Addr: transport.Addr(fmt.Sprintf("n%d", i))}
		env := l.net.NewEnv(ref.Addr, int64(i+1))
		svc := livetopo.New(logEnv{env, l, i}, livetopo.Config{Kind: kind, Server: server}, ref)
		env.Handler = func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) }
		l.envs = append(l.envs, env)
		l.svcs = append(l.svcs, svc)
		l.refs = append(l.refs, ref)
	}
	return l
}

func (l *sendLog) printf(format string, args ...any) {
	at := l.envs[0].Elapsed()
	l.lines = append(l.lines, fmt.Sprintf("%9.3fs ", at.Seconds())+fmt.Sprintf(format, args...))
}

// runFor delivers every pending send, oldest first, and fires every
// timer due within d, in time order.
func (l *sendLog) runFor(d time.Duration) {
	until := l.envs[0].Elapsed() + d
	for {
		if len(l.net.Sends()) > 0 {
			l.net.Deliver(0)
			continue
		}
		ts := l.net.Timers()
		if len(ts) == 0 || ts[0].At() > until {
			break
		}
		l.net.RunTo(ts[0].At())
	}
	l.net.RunTo(until)
}

// create has root make a group named name over itself and members,
// runs until the root hears the outcome, and registers a handler that
// logs a notice at each of them.
func (l *sendLog) create(name string, root int, members ...int) livetopo.GroupID {
	l.lines = append(l.lines, "# create "+name)
	refs := []overlay.NodeRef{l.refs[root]}
	for _, m := range members {
		refs = append(refs, l.refs[m])
	}
	var (
		id   livetopo.GroupID
		done bool
	)
	l.svcs[root].CreateGroup(refs, func(g livetopo.GroupID, err error) {
		id, done = g, true
		l.printf("created %s at n%d: %v", name, root, err)
	})
	for !done {
		l.runFor(time.Second)
	}
	l.groups[id] = name
	for _, i := range append([]int{root}, members...) {
		l.svcs[i].RegisterFailureHandler(func(n livetopo.Notice) { l.printf("notice at n%d: %s", i, l.groups[n.ID]) }, id)
	}
	return id
}

func (l *sendLog) crash(i int) {
	l.lines = append(l.lines, fmt.Sprintf("# crash n%d", i))
	l.dead[i] = true
	l.envs[i].Handler = nil
}

func (l *sendLog) signal(id livetopo.GroupID, i int) {
	l.lines = append(l.lines, fmt.Sprintf("# signal %s at n%d", l.groups[id], i))
	l.svcs[i].SignalFailure(id)
}

// TestSendsPinned runs one script through every topology and compares
// each send (instant, sender, receiver, message kind) and each notice
// with testdata/sends.golden: a create over four nodes, a signal, a
// member crash found by a ping timeout, a creation that times out on a
// dead member, a group rooted at the central server and one that lists
// it as a member. A refactor of the fan-out must leave every line.
func TestSendsPinned(t *testing.T) {
	const golden = "testdata/sends.golden"
	var b strings.Builder
	for _, k := range kinds() {
		l := newSendLog(k, 6)
		a := l.create("A", 1, 2, 3, 4)
		l.runFor(3 * time.Minute)
		bg := l.create("B", 2, 3, 5)
		l.runFor(30 * time.Second)
		l.signal(bg, 5)
		l.runFor(time.Minute)
		l.crash(4)
		l.runFor(5 * time.Minute)
		l.create("C", 1, 2, 4)
		l.runFor(3 * time.Minute)
		d := l.create("D", 0, 1, 2)
		l.runFor(2 * time.Minute)
		l.signal(d, 1)
		l.runFor(time.Minute)
		e := l.create("E", 3, 0, 5)
		l.runFor(2 * time.Minute)
		l.signal(e, 5)
		l.runFor(3 * time.Minute)
		l.signal(a, 1) // long gone everywhere: sends nothing
		l.runFor(time.Minute)
		b.WriteString("== " + k.String() + " ==\n" + strings.Join(l.lines, "\n") + "\n")
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test ./internal/livetopo -run TestSendsPinned -update records it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}
