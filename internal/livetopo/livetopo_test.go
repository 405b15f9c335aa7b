package livetopo_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/eventsim"
	"fuse/internal/livetopo"
	"fuse/internal/netmodel"
	"fuse/internal/overlay"
	"fuse/internal/scenario"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// rig is a small simulated deployment of livetopo services (no overlay).
type rig struct {
	sim      *eventsim.Sim
	net      *simnet.Net
	services []*livetopo.Service
	refs     []overlay.NodeRef
}

func newRig(t testing.TB, n int, seed int64, kind livetopo.Kind) *rig {
	t.Helper()
	sim := eventsim.New(seed)
	topo := netmodel.Generate(netmodel.DefaultConfig(seed))
	net := simnet.New(sim, topo, simnet.Options{})
	pts := topo.AttachPoints(n, sim.Rand())
	r := &rig{sim: sim, net: net}
	// Node 0 always acts as the central server when that topology is in
	// use.
	cfg := livetopo.Config{Kind: kind, Server: overlay.NodeRef{Name: "s000", Addr: "svc-000"}}
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("svc-%03d", i))
		ref := overlay.NodeRef{Name: fmt.Sprintf("s%03d", i), Addr: addr}
		env := net.AddNode(addr, pts[i])
		svc := livetopo.New(env, cfg, ref)
		func(svc *livetopo.Service) {
			net.SetHandler(addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
		}(svc)
		r.services = append(r.services, svc)
		r.refs = append(r.refs, ref)
	}
	return r
}

// create drives a group creation from root over members and returns the
// outcome.
func (r *rig) create(root int, members ...int) (livetopo.GroupID, error) {
	var (
		id   livetopo.GroupID
		err  error
		done bool
	)
	refs := []overlay.NodeRef{r.refs[root]}
	for _, m := range members {
		refs = append(refs, r.refs[m])
	}
	r.services[root].CreateGroup(refs, func(i livetopo.GroupID, e error) { id, err, done = i, e, true })
	for !done && r.sim.Step() {
	}
	if !done {
		panic("create never completed")
	}
	return id, err
}

func (r *rig) register(id livetopo.GroupID, idxs ...int) map[int]*int {
	counts := make(map[int]*int)
	for _, i := range idxs {
		c := new(int)
		counts[i] = c
		r.services[i].RegisterFailureHandler(func(livetopo.Notice) { *c++ }, id)
	}
	return counts
}

func kinds() []livetopo.Kind {
	return []livetopo.Kind{livetopo.DirectTree, livetopo.AllToAll, livetopo.CentralServer}
}

func TestCreateAndStaySilent(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, 8, 1, k)
			id, err := r.create(1, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			counts := r.register(id, 1, 2, 3)
			r.sim.RunFor(10 * time.Minute)
			for i, c := range counts {
				if *c != 0 {
					t.Fatalf("%s: false positive at node %d", k, i)
				}
			}
		})
	}
}

func TestCreateFailsWithDeadMember(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, 8, 2, k)
			r.net.Crash("svc-005")
			_, err := r.create(1, 2, 5)
			if !errors.Is(err, livetopo.ErrCreateTimeout) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestSignalFailureNotifiesAll(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, 8, 3, k)
			id, err := r.create(1, 2, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			counts := r.register(id, 1, 2, 3, 4)
			r.services[3].SignalFailure(id)
			r.sim.RunFor(time.Minute)
			for i, c := range counts {
				if *c != 1 {
					t.Fatalf("%s: node %d notified %d times", k, i, *c)
				}
			}
		})
	}
}

func TestMemberCrashNotifiesAll(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, 8, 4, k)
			id, err := r.create(1, 2, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			counts := r.register(id, 1, 2, 4)
			r.net.Crash("svc-003")
			// Detection (interval + timeout) plus propagation; all-to-all
			// converges within two intervals by construction.
			r.sim.RunFor(5 * time.Minute)
			for i, c := range counts {
				if *c != 1 {
					t.Fatalf("%s: node %d notified %d times", k, i, *c)
				}
			}
		})
	}
}

func TestRootCrashNotifiesMembers(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			r := newRig(t, 8, 5, k)
			id, err := r.create(1, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			counts := r.register(id, 2, 3)
			r.net.Crash("svc-001")
			r.sim.RunFor(5 * time.Minute)
			for i, c := range counts {
				if *c != 1 {
					t.Fatalf("%s: node %d notified %d times", k, i, *c)
				}
			}
		})
	}
}

func TestCentralServerCrashNotifiesEverything(t *testing.T) {
	r := newRig(t, 8, 6, livetopo.CentralServer)
	id1, err := r.create(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.create(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	c1 := r.register(id1, 1, 2, 3)
	c2 := r.register(id2, 4, 5)
	r.net.Crash("svc-000") // the server
	r.sim.RunFor(5 * time.Minute)
	for i, c := range c1 {
		if *c != 1 {
			t.Fatalf("group1 node %d notified %d times", i, *c)
		}
	}
	for i, c := range c2 {
		if *c != 1 {
			t.Fatalf("group2 node %d notified %d times", i, *c)
		}
	}
}

func TestRegisterUnknownFiresImmediately(t *testing.T) {
	r := newRig(t, 4, 7, livetopo.DirectTree)
	fired := 0
	r.services[2].RegisterFailureHandler(func(livetopo.Notice) { fired++ },
		livetopo.GroupID{Root: r.refs[0], Num: 9})
	r.sim.RunFor(time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

// TestEngineAuditsEveryKind installs each topology as every node's
// cluster.Groups on an unassembled cluster and runs one engine script: a
// signalled group and a group that loses a member must fail with every
// live member notified exactly once, and an untouched group must survive
// with its state intact everywhere.
func TestEngineAuditsEveryKind(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.String(), func(t *testing.T) {
			c := cluster.New(cluster.Options{N: 12, Seed: 10, SkipAssemble: true})
			cfg := livetopo.Config{Kind: k, Server: c.Nodes[0].Ref()}
			for _, nd := range c.Nodes {
				svc := livetopo.New(nd.Env, cfg, nd.Ref())
				nd.Groups = svc
				c.Net.SetHandler(nd.Addr, func(from transport.Addr, msg transport.Message) { svc.Handle(from, msg) })
			}
			rep, err := scenario.Run(c, scenario.Script{
				Name: "livetopo " + k.String(),
				Groups: []scenario.GroupSpec{
					{Root: 1, Members: []int{2, 3}},
					{Root: 4, Members: []int{5, 6}},
					{Root: 7, Members: []int{8, 9}},
				},
				Events: []scenario.Event{
					{At: time.Minute, Do: scenario.Signal{Node: 2, Group: 0}},
					{At: time.Minute, Do: scenario.Crash{Node: 6}},
				},
				Duration:      scenario.Duration(10 * time.Minute),
				ExpectFail:    []int{0, 1},
				ExpectSurvive: []int{2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.Failed != 2 || rep.Survived != 1 || rep.Notices != 5 {
				t.Fatalf("want 2 failed, 1 survived, 5 notices, no violation:\n%s", rep.Stats())
			}
		})
	}
}

// TestMessageLoadScalesWithTopology verifies the §5.1 scalability
// ordering: all-to-all costs ~n^2 per group per interval, the star ~2n,
// and the central server ~2 per member.
func TestMessageLoadScalesWithTopology(t *testing.T) {
	load := func(kind livetopo.Kind) uint64 {
		r := newRig(t, 12, 8, kind)
		if _, err := r.create(1, 2, 3, 4, 5, 6, 7, 8); err != nil {
			t.Fatal(err)
		}
		r.sim.RunFor(time.Minute) // drain creation
		before := r.net.Sent()
		r.sim.RunFor(30 * time.Minute)
		return r.net.Sent() - before
	}
	star := load(livetopo.DirectTree)
	full := load(livetopo.AllToAll)
	central := load(livetopo.CentralServer)
	if !(full > star) {
		t.Fatalf("all-to-all (%d) should out-message the star (%d)", full, star)
	}
	// Star pings 2(n-1) pairs-directions; all-to-all n(n-1). For n=9
	// members the ratio is ~4.5x.
	if ratio := float64(full) / float64(star); ratio < 2 {
		t.Fatalf("all-to-all/star ratio = %.1f, want >= 2", ratio)
	}
	if central > full {
		t.Fatalf("central server (%d) should not exceed all-to-all (%d)", central, full)
	}
}

// TestAllToAllWorstCaseLatency verifies the §5.1 claim that all-to-all
// pinging bounds notification latency by twice the ping interval.
func TestAllToAllWorstCaseLatency(t *testing.T) {
	r := newRig(t, 8, 9, livetopo.AllToAll)
	id, err := r.create(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ping := overlay.DefaultConfig()
	var notifiedAt []time.Duration
	for _, i := range []int{1, 2, 4} {
		i := i
		r.services[i].RegisterFailureHandler(func(livetopo.Notice) {
			notifiedAt = append(notifiedAt, r.sim.Elapsed())
		}, id)
	}
	crashAt := r.sim.Elapsed()
	r.net.Crash("svc-003")
	r.sim.RunFor(10 * time.Minute)
	if len(notifiedAt) != 3 {
		t.Fatalf("notified %d of 3", len(notifiedAt))
	}
	bound := 2*ping.PingInterval + 2*ping.PingTimeout + time.Minute // detection + propagation slack
	for _, at := range notifiedAt {
		if at-crashAt > bound {
			t.Fatalf("notification after %v, bound %v", at-crashAt, bound)
		}
	}
}
