package svtree_test

import (
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/stats"
	"fuse/internal/svtree"
	"fuse/internal/transport"
)

// rig attaches an svtree service to every node of a simulated cluster.
type rig struct {
	c    *cluster.Cluster
	svcs []*svtree.Service
}

func newRig(t testing.TB, n int, seed int64) *rig {
	t.Helper()
	c := cluster.New(cluster.Options{N: n, Seed: seed})
	r := &rig{c: c}
	for _, nd := range c.Nodes {
		svc := svtree.New(nd.Env, nd.Overlay, nd.Fuse)
		r.svcs = append(r.svcs, svc)
		r.installHandler(nd, svc)
	}
	return r
}

func (r *rig) installHandler(nd *cluster.Node, svc *svtree.Service) {
	r.c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) {
		if nd.Overlay.Handle(from, msg) {
			return
		}
		if nd.Fuse.Handle(from, msg) {
			return
		}
		svc.Handle(from, msg)
	})
}

func (r *rig) run(d time.Duration) { r.c.Sim.RunFor(d) }

func TestSubscribeAndPublish(t *testing.T) {
	r := newRig(t, 32, 1)
	const topic = "news.weather.example"
	got := map[int][]any{}
	subs := []int{3, 9, 17, 25}
	for _, i := range subs {
		i := i
		r.svcs[i].Subscribe(topic, func(data any) { got[i] = append(got[i], data) })
	}
	r.run(2 * time.Minute) // attach walks + group creations
	for _, i := range subs {
		if !r.svcs[i].Attached(topic) {
			t.Fatalf("subscriber %d not attached", i)
		}
	}
	r.svcs[0].Publish(topic, "storm")
	r.run(time.Minute)
	for _, i := range subs {
		if len(got[i]) != 1 || got[i][0] != "storm" {
			t.Fatalf("subscriber %d got %v", i, got[i])
		}
	}
}

func TestPublisherNeedNotSubscribe(t *testing.T) {
	r := newRig(t, 16, 2)
	const topic = "alerts.example"
	var got []any
	r.svcs[5].Subscribe(topic, func(d any) { got = append(got, d) })
	r.run(time.Minute)
	r.svcs[11].Publish(topic, 42)
	r.run(30 * time.Second)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestNoDuplicateDelivery(t *testing.T) {
	r := newRig(t, 24, 3)
	const topic = "dup.example"
	counts := map[int]int{}
	for _, i := range []int{2, 8, 14, 20} {
		i := i
		r.svcs[i].Subscribe(topic, func(any) { counts[i]++ })
	}
	r.run(2 * time.Minute)
	for k := 0; k < 5; k++ {
		r.svcs[2].Publish(topic, k)
		r.run(30 * time.Second)
	}
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("subscriber %d got %d events, want 5", i, c)
		}
	}
}

func TestUnsubscribeStopsDeliveryAndRepairsTree(t *testing.T) {
	r := newRig(t, 32, 4)
	const topic = "leave.example"
	counts := map[int]int{}
	subs := []int{1, 7, 13, 19, 25}
	for _, i := range subs {
		i := i
		r.svcs[i].Subscribe(topic, func(any) { counts[i]++ })
	}
	r.run(2 * time.Minute)
	// A mid-tree subscriber leaves; its children must re-attach.
	r.svcs[7].Unsubscribe(topic)
	r.run(3 * time.Minute)
	r.svcs[1].Publish(topic, "after-leave")
	r.run(time.Minute)
	if counts[7] != 0 {
		t.Fatalf("left subscriber still got %d events", counts[7])
	}
	for _, i := range []int{1, 13, 19, 25} {
		if counts[i] != 1 {
			t.Fatalf("subscriber %d got %d events after leave, want 1", i, counts[i])
		}
	}
}

// TestSubscriberCrashRepairsTree verifies the FUSE design pattern: a
// crashed interior subscriber fires the link groups; orphans re-attach
// and delivery continues.
func TestSubscriberCrashRepairsTree(t *testing.T) {
	r := newRig(t, 48, 5)
	const topic = "crash.example"
	counts := map[int]int{}
	subs := []int{2, 10, 18, 26, 34, 42}
	for _, i := range subs {
		i := i
		r.svcs[i].Subscribe(topic, func(any) { counts[i]++ })
	}
	r.run(2 * time.Minute)
	victim := 18
	r.c.Crash(victim)
	// Failure detection (up to ~80s) + notification + reattach walks.
	r.run(10 * time.Minute)
	for _, i := range subs {
		if i == victim {
			continue
		}
		if !r.svcs[i].Attached(topic) {
			t.Fatalf("survivor %d not re-attached", i)
		}
	}
	r.svcs[2].Publish(topic, "rebuilt")
	r.run(time.Minute)
	for _, i := range subs {
		if i == victim {
			continue
		}
		if counts[i] != 1 {
			t.Fatalf("survivor %d got %d events after repair, want 1", i, counts[i])
		}
	}
}

// TestGroupSizeStatistics reproduces the shape of §4: SV trees need many
// small FUSE groups whose size barely depends on the subscriber count.
func TestGroupSizeStatistics(t *testing.T) {
	r := newRig(t, 64, 6)
	const topic = "stats.example"
	for i := 0; i < 32; i++ {
		r.svcs[i*2].Subscribe(topic, func(any) {})
		r.run(20 * time.Second)
	}
	r.run(3 * time.Minute)
	sizes := stats.NewSample(0)
	for _, svc := range r.svcs {
		for _, s := range svc.GroupSizes {
			sizes.Add(float64(s))
		}
	}
	if sizes.N() < 20 {
		t.Fatalf("only %d groups created", sizes.N())
	}
	// Paper: mean 2.9, max 13 on a much larger overlay. The invariant to
	// hold is "small groups": mean well under 10, max well under the
	// subscriber count.
	if m := sizes.Mean(); m < 2 || m > 6 {
		t.Fatalf("mean group size = %.2f, want small (2-6)", m)
	}
	if sizes.Max() > 16 {
		t.Fatalf("max group size = %.0f", sizes.Max())
	}
}

func TestVolunteerStateGarbageCollected(t *testing.T) {
	r := newRig(t, 32, 7)
	const topic = "gc.example"
	r.svcs[3].Subscribe(topic, func(any) {})
	r.run(2 * time.Minute)
	// Tear everything down.
	r.svcs[3].Unsubscribe(topic)
	r.run(5 * time.Minute)
	// After quiescence no node should hold FUSE state for any group.
	for i, nd := range r.c.Nodes {
		if got := nd.Fuse.LiveGroups(); len(got) != 0 {
			t.Fatalf("node %d holds %v after teardown", i, got)
		}
	}
}
