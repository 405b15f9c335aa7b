package core

import (
	"testing"
	"time"

	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/transporttest"
)

// addNode adds a node to net running the overlay and FUSE layers, its
// handler dispatching to both.
func addNode(net *transporttest.Net, name string, seed int64) *Fuse {
	env := net.NewEnv(transport.Addr("addr-"+name), seed)
	ov := overlay.New(env, overlay.DefaultConfig(), name)
	f := New(env, ov, 1)
	env.Handler = func(from transport.Addr, msg transport.Message) {
		if !ov.Handle(from, msg) {
			f.Handle(from, msg)
		}
	}
	return f
}

// deliverAll delivers the pending sends, oldest first, until none is left.
func deliverAll(net *transporttest.Net) {
	for len(net.Sends()) > 0 {
		net.Deliver(0)
	}
}

// TestCrossedSignalsNotifyEachOnce: the root and the one member of a group
// signal its failure at the same instant, so their hard notifications
// cross. Each order of delivery gets a run of its own, with the pending
// timer due last fired first between the two deliveries. In every run
// each node's handler fires once, and neither node keeps any state for
// the group.
func TestCrossedSignalsNotifyEachOnce(t *testing.T) {
	for _, order := range [][]string{{"a", "b"}, {"b", "a"}} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			net := transporttest.NewNet()
			a, b := addNode(net, "a", 1), addNode(net, "b", 2)
			overlay.AssembleStatic([]*overlay.Node{a.ov, b.ov})
			var id GroupID
			a.CreateGroup([]overlay.NodeRef{a.self, b.self}, func(g GroupID, err error) {
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				id = g
			})
			deliverAll(net)
			if id.IsZero() || !b.HasState(id) {
				t.Fatal("the group was not created at both nodes")
			}
			heard := map[string]int{}
			for _, f := range []*Fuse{a, b} {
				f.RegisterFailureHandler(func(Notice) { heard[f.self.Name]++ }, id)
			}

			a.SignalFailure(id)
			b.SignalFailure(id)
			deliverHard := func(from string) {
				t.Helper()
				for i, s := range net.Sends() {
					if _, ok := s.Msg.(*msgHardNotification); ok && s.From == ref(from).Addr {
						net.Deliver(i)
						return
					}
				}
				t.Fatalf("no hard notification from %s pending", from)
			}
			deliverHard(order[0])
			ts := net.Timers()
			if len(ts) < 2 || ts[len(ts)-1].At() == ts[0].At() {
				t.Fatalf("%d timers pending, none due later than another", len(ts))
			}
			ts[len(ts)-1].Fire()
			deliverHard(order[1])

			// Then ten minutes of the pair's own traffic, every send
			// delivered the instant it leaves.
			for i := 0; i < 600; i++ {
				deliverAll(net)
				net.Advance(time.Second)
			}
			for _, f := range []*Fuse{a, b} {
				if heard[f.self.Name] != 1 || f.HasState(id) || len(f.LiveGroups()) != 0 {
					t.Errorf("%s: handler fired %d times (want 1), state kept: %v", f.self.Name, heard[f.self.Name], f.LiveGroups())
				}
			}
		})
	}
}
