package swim_test

import (
	"fmt"
	"testing"
	"time"

	"fuse/internal/eventsim"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/swim"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

type rig struct {
	sim      *eventsim.Sim
	net      *simnet.Net
	services []*swim.Service
	refs     []overlay.NodeRef
}

func newRig(t testing.TB, n int, seed int64) *rig {
	t.Helper()
	sim := eventsim.New(seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(seed))
	net := simnet.New(sim, topo, simnet.Options{})
	pts := topo.AttachPoints(n, sim.Rand())
	r := &rig{sim: sim, net: net}
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("swim-%03d", i))
		ref := overlay.NodeRef{Name: fmt.Sprintf("w%03d", i), Addr: addr}
		env := net.AddNode(addr, pts[i])
		svc := swim.New(env, swim.DefaultConfig(), ref)
		func(svc *swim.Service) {
			net.SetHandler(addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
		}(svc)
		r.services = append(r.services, svc)
		r.refs = append(r.refs, ref)
	}
	for _, svc := range r.services {
		svc.Bootstrap(r.refs)
	}
	return r
}

func TestAllAliveAtSteadyState(t *testing.T) {
	r := newRig(t, 12, 1)
	r.sim.RunFor(time.Minute)
	for i, svc := range r.services {
		if got := len(svc.Alive()); got != 11 {
			t.Fatalf("node %d sees %d alive, want 11", i, got)
		}
	}
}

func TestCrashDetectedEverywhere(t *testing.T) {
	r := newRig(t, 12, 2)
	r.sim.RunFor(30 * time.Second)
	r.net.Crash("swim-005")
	// SWIM detects within O(n) protocol periods plus suspect timeout and
	// gossip dissemination.
	r.sim.RunFor(2 * time.Minute)
	for i, svc := range r.services {
		if i == 5 {
			continue
		}
		st, ok := svc.Status("w005")
		if !ok || st != swim.Dead {
			t.Fatalf("node %d sees w005 as %v (known=%v), want dead", i, st, ok)
		}
	}
}

func TestSurvivorsStayAlive(t *testing.T) {
	r := newRig(t, 12, 3)
	r.net.Crash("swim-005")
	r.sim.RunFor(3 * time.Minute)
	for i, svc := range r.services {
		if i == 5 {
			continue
		}
		for j := 0; j < 12; j++ {
			if j == 5 || j == i {
				continue
			}
			st, _ := svc.Status(fmt.Sprintf("w%03d", j))
			if st != swim.Alive {
				t.Fatalf("node %d wrongly sees w%03d as %v", i, j, st)
			}
		}
	}
}

// TestIndirectProbeMasksIntransitiveFailure shows the membership-list
// behaviour the paper contrasts FUSE with (§2): when A cannot reach B but
// proxies can, SWIM keeps B alive in everyone's view - the service cannot
// express "failed with respect to A only".
func TestIndirectProbeMasksIntransitiveFailure(t *testing.T) {
	r := newRig(t, 10, 4)
	r.sim.RunFor(30 * time.Second)
	// Cut w001 <-> w002 only, in both directions.
	r.net.BlockBoth("swim-001", "swim-002")
	r.sim.RunFor(5 * time.Minute)
	st1, _ := r.services[1].Status("w002")
	st2, _ := r.services[2].Status("w001")
	if st1 != swim.Alive || st2 != swim.Alive {
		t.Fatalf("intransitive pair marked %v/%v; indirect probes should mask it", st1, st2)
	}
}

// TestRefutationClearsFalseSuspicion wires a transient asymmetric outage:
// the suspect must clear itself via an incarnation bump instead of being
// declared dead.
func TestRefutationClearsFalseSuspicion(t *testing.T) {
	r := newRig(t, 8, 5)
	r.sim.RunFor(30 * time.Second)
	// Fully isolate w003 briefly - shorter than the suspect timeout's
	// gossip horizon - then heal.
	for i := 0; i < 8; i++ {
		if i != 3 {
			r.net.BlockBoth(transport.Addr(fmt.Sprintf("swim-%03d", i)), "swim-003")
		}
	}
	r.sim.RunFor(2 * time.Second)
	r.net.ClearRules()
	r.sim.RunFor(2 * time.Minute)
	for i, svc := range r.services {
		if i == 3 {
			continue
		}
		st, _ := svc.Status("w003")
		if st != swim.Alive {
			t.Fatalf("node %d left w003 as %v after heal", i, st)
		}
	}
}

func TestSteadyStateLoadIsConstantPerNode(t *testing.T) {
	measure := func(n int) float64 {
		r := newRig(t, n, 6)
		r.sim.RunFor(30 * time.Second)
		before := r.net.Sent()
		r.sim.RunFor(5 * time.Minute)
		return float64(r.net.Sent()-before) / float64(n)
	}
	small := measure(8)
	large := measure(24)
	// SWIM's per-node load is O(1) in group size: one probe (+ack) per
	// period regardless of n. Allow 50% slack for indirect probes.
	if large > small*1.5 {
		t.Fatalf("per-node load grew with membership: %.1f -> %.1f", small, large)
	}
}

func TestStopHaltsProbing(t *testing.T) {
	r := newRig(t, 6, 7)
	r.sim.RunFor(10 * time.Second)
	for _, svc := range r.services {
		svc.Stop()
	}
	before := r.net.Sent()
	r.sim.RunFor(time.Minute)
	if after := r.net.Sent(); after != before {
		t.Fatalf("traffic after Stop: %d -> %d", before, after)
	}
}
