package fuse_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fuse"
	"fuse/internal/telemetry"
)

// startLive boots n live TCP nodes on loopback with compressed timeouts,
// joined into one overlay.
func startLive(t *testing.T, n int) []*fuse.Node {
	t.Helper()
	nodes := make([]*fuse.Node, n)
	for i := 0; i < n; i++ {
		cfg := fuse.NodeConfig{
			Name:      nodeName(i),
			Bind:      "127.0.0.1:0",
			TimeScale: 0.02, // 60s ping period -> 1.2s, etc.
		}
		if i > 0 {
			cfg.Bootstrap = nodes[0].Ref()
		}
		nd, err := fuse.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
		time.Sleep(50 * time.Millisecond) // let joins interleave
	}
	time.Sleep(500 * time.Millisecond)
	return nodes
}

func nodeName(i int) string {
	return string(rune('a'+i)) + ".live.example.org"
}

func TestLiveCreateAndSignal(t *testing.T) {
	nodes := startLive(t, 4)
	members := []fuse.Peer{nodes[0].Ref(), nodes[1].Ref(), nodes[2].Ref()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := nodes[0].CreateGroup(ctx, members)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	notified := map[string]int{}
	done := make(chan struct{}, 3)
	for _, nd := range nodes[:3] {
		name := nd.Ref().Name
		nd.RegisterFailureHandler(func(fuse.Notice) {
			mu.Lock()
			notified[name]++
			mu.Unlock()
			done <- struct{}{}
		}, id)
	}

	nodes[1].SignalFailure(id)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 3 nodes notified", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for name, c := range notified {
		if c != 1 {
			t.Fatalf("%s notified %d times", name, c)
		}
	}
}

// TestLiveGroupsListedInOrder: a node lists its groups by root name, then
// counter - the same way on every call - not in map order.
func TestLiveGroupsListedInOrder(t *testing.T) {
	nodes := startLive(t, 2)
	both := []fuse.Peer{nodes[0].Ref(), nodes[1].Ref()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 12; i++ {
		if _, err := nodes[i%2].CreateGroup(ctx, both); err != nil {
			t.Fatal(err)
		}
	}
	first := nodes[1].LiveGroups()
	if len(first) != 12 {
		t.Fatalf("node holds %d groups, want 12: %v", len(first), first)
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Root.Name > b.Root.Name || a.Root.Name == b.Root.Name && a.Num >= b.Num {
			t.Fatalf("groups out of order at %d: %v before %v", i, a, b)
		}
	}
	for call := 0; call < 5; call++ {
		if again := nodes[1].LiveGroups(); !slices.Equal(again, first) {
			t.Fatalf("call %d lists %v, the first listed %v", call, again, first)
		}
	}
}

func TestLiveCrashTriggersNotification(t *testing.T) {
	nodes := startLive(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := nodes[0].CreateGroup(ctx, []fuse.Peer{nodes[0].Ref(), nodes[2].Ref(), nodes[3].Ref()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 2)
	for _, nd := range []*fuse.Node{nodes[0], nodes[3]} {
		name := nd.Ref().Name
		nd.RegisterFailureHandler(func(fuse.Notice) { done <- name }, id)
	}
	nodes[2].Close() // hard stop: no goodbye
	// Detection needs a ping round plus repair timeouts, all scaled by
	// 0.02: (60+20)*0.02 = 1.6s ping cycle, repair timeouts 1.2/2.4s.
	deadline := time.After(30 * time.Second)
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case name := <-done:
			got[name] = true
		case <-deadline:
			t.Fatalf("notified: %v", got)
		}
	}
}

func TestLiveRegisterUnknownFiresImmediately(t *testing.T) {
	nodes := startLive(t, 2)
	fired := make(chan struct{}, 1)
	bogus := fuse.GroupID{Root: nodes[0].Ref(), Num: 777}
	nodes[1].RegisterFailureHandler(func(fuse.Notice) { fired <- struct{}{} }, bogus)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("handler for unknown group did not fire")
	}
}

func TestLiveCreateGroupContextCancel(t *testing.T) {
	nodes := startLive(t, 2)
	// A member that does not exist: creation will wait for its timeout,
	// but the context fires first.
	ghost := fuse.Peer{Name: "ghost.example.org", Addr: "127.0.0.1:1"}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := nodes[0].CreateGroup(ctx, []fuse.Peer{nodes[0].Ref(), nodes[1].Ref(), ghost})
	if err == nil {
		t.Fatal("expected error")
	}
	if err != context.DeadlineExceeded {
		t.Logf("err = %v (create timeout also acceptable)", err)
	}
}

// TestLiveTraceOnNodeClock: a live node's trace events are offsets on
// its own clock, so the registry epoch plus an event's At is the wall
// instant it was recorded at.
func TestLiveTraceOnNodeClock(t *testing.T) {
	before := time.Now()
	nd, err := fuse.Start(fuse.NodeConfig{Name: nodeName(0), Bind: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.Telemetry().EnableTrace(telemetry.TraceProto)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := nd.CreateGroup(ctx, []fuse.Peer{nd.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	nd.RegisterFailureHandler(func(fuse.Notice) { done <- struct{}{} }, id)
	nd.SignalFailure(id)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("singleton group not notified")
	}
	nd.LiveGroups() // a round trip through the event loop: every event is recorded
	after := time.Now()

	evs := nd.Telemetry().Events()
	if len(evs) == 0 || evs[0].Kind != "trigger" || evs[len(evs)-1].Kind != "notify" {
		t.Fatalf("events %+v, want the trigger first and the notify last", evs)
	}
	epoch := nd.Telemetry().Epoch()
	for i, ev := range evs {
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("event %d at %v, before its predecessor at %v", i, ev.At, evs[i-1].At)
		}
		if at := epoch.Add(ev.At); at.Before(before) || at.After(after) {
			t.Fatalf("%s event stamped %v, outside [%v, %v]", ev.Kind, at, before, after)
		}
	}
}

func TestSimFacade(t *testing.T) {
	s := fuse.NewSim(24, 42)
	id, err := s.CreateGroup(0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, i := range []int{0, 5, 10} {
		i := i
		s.RegisterFailureHandler(i, func(fuse.Notice) { counts[i]++ }, id)
	}
	s.Crash(10)
	s.RunFor(6 * time.Minute)
	for _, i := range []int{0, 5} {
		if counts[i] != 1 {
			t.Fatalf("node %d notified %d times", i, counts[i])
		}
	}
	if s.HasState(0, id) {
		t.Fatal("state not torn down")
	}
}

func TestSimPartitionBothSidesNotified(t *testing.T) {
	s := fuse.NewSim(16, 7)
	id, err := s.CreateGroup(0, 4, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, i := range []int{0, 4, 8, 12} {
		i := i
		s.RegisterFailureHandler(i, func(fuse.Notice) { counts[i]++ }, id)
	}
	var a, b []int
	for i := 0; i < 16; i++ {
		if i < 8 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	s.Partition(a, b)
	s.RunFor(8 * time.Minute)
	for _, i := range []int{0, 4, 8, 12} {
		if counts[i] != 1 {
			t.Fatalf("node %d notified %d times", i, counts[i])
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() uint64 {
		s := fuse.NewSim(20, 99)
		id, err := s.CreateGroup(1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.SignalFailure(2, id)
		s.RunFor(10 * time.Minute)
		return s.MessagesSent()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different message counts: %d vs %d", a, b)
	}
}

// TestSimWorkersFacade exercises the sharded parallel scheduler through
// the public facade: the crash drill of TestSimFacade at workers=4
// (handlers record into per-node slots - under the sharded scheduler
// they run on shard worker goroutines), plus the determinism pin that
// worker counts 1 and 4 produce identical message totals.
func TestSimWorkersFacade(t *testing.T) {
	run := func(workers int) uint64 {
		s := fuse.NewSimWorkers(24, 42, workers)
		id, err := s.CreateGroup(0, 5, 10)
		if err != nil {
			t.Fatal(err)
		}
		var counts [24]int
		for _, i := range []int{0, 5, 10} {
			i := i
			s.RegisterFailureHandler(i, func(fuse.Notice) { counts[i]++ }, id)
		}
		s.Crash(10)
		s.RunFor(6 * time.Minute)
		for _, i := range []int{0, 5} {
			if counts[i] != 1 {
				t.Fatalf("workers=%d: node %d notified %d times", workers, i, counts[i])
			}
		}
		if s.HasState(0, id) {
			t.Fatalf("workers=%d: state not torn down", workers)
		}
		return s.MessagesSent()
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("workers=1 sent %d messages, workers=4 sent %d: scheduler leaked nondeterminism", a, b)
	}
}

func TestPeerAt(t *testing.T) {
	p := fuse.PeerAt("x.example.org", "10.0.0.1:7946")
	if p.Name != "x.example.org" || string(p.Addr) != "10.0.0.1:7946" {
		t.Fatalf("PeerAt = %+v", p)
	}
	if p.IsZero() {
		t.Fatal("constructed peer reported zero")
	}
}

func TestStartRequiresName(t *testing.T) {
	if _, err := fuse.Start(fuse.NodeConfig{Bind: "127.0.0.1:0"}); err == nil {
		t.Fatal("expected error for missing name")
	}
}

// TestStartRejectsBadTimeScale: a negative, NaN or infinite time scale is
// refused before anything binds, naming the field; 0 is the paper's timing.
func TestStartRejectsBadTimeScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		nd, err := fuse.Start(fuse.NodeConfig{Name: "x", Bind: "127.0.0.1:0", TimeScale: scale})
		if err == nil {
			nd.Close()
			t.Errorf("TimeScale %v accepted", scale)
			continue
		}
		if !strings.Contains(err.Error(), "TimeScale") {
			t.Errorf("TimeScale %v: error %q does not name the field", scale, err)
		}
	}
	nd, err := fuse.Start(fuse.NodeConfig{Name: "x", Bind: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("TimeScale 0: %v", err)
	}
	nd.Close()
}

func TestStartBadBindFails(t *testing.T) {
	if _, err := fuse.Start(fuse.NodeConfig{Name: "x", Bind: "256.0.0.1:99999"}); err == nil {
		t.Fatal("expected error for bad bind address")
	}
}

func TestSimBlockPairAndHeal(t *testing.T) {
	s := fuse.NewSim(12, 3)
	id, err := s.CreateGroup(0, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.BlockPair(4, 8) // unmonitored application path: no effect on FUSE
	s.RunFor(5 * time.Minute)
	if !s.HasState(0, id) {
		t.Fatal("intransitive block caused a false positive")
	}
	s.Heal()
	s.RunFor(time.Minute)
	if !s.HasState(4, id) {
		t.Fatal("group lost after heal")
	}
}
