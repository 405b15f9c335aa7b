package cluster

import (
	"runtime"
	"testing"
	"time"

	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/transport"
)

// TestBytesPerNode pins what a simulated node holds on the heap. It
// builds a 2,000-node deployment on the default topology one layer at a
// time, as buildStack does, and reads the live heap after each layer:
// the simnet endpoint with its random source, the overlay node, and the
// FUSE layer. Then it assembles the overlay and runs 2 virtual minutes
// with no groups, creates 250 groups of 5 and runs 2 more, reading the
// whole deployment per node after each. Every reading has a bound just
// above what it is, so any growth fails.
func TestBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	const nodes, groups, size = 2000, 250, 5
	c := newNetwork(Options{N: nodes, Seed: 1})
	pts := c.Topo.AttachPoints(nodes, c.Sim.Rand())
	envs := make([]transport.Env, nodes)
	ovs := make([]*overlay.Node, nodes)
	c.Nodes = make([]*Node, 0, nodes)

	check := func(what string, before uint64, bound uint64) uint64 {
		after := liveHeap()
		per := (after - before) / nodes
		t.Logf("%s: %d B per node", what, per)
		if per > bound {
			t.Errorf("%s: %d B per node, bound %d", what, per, bound)
		}
		return after
	}
	base := liveHeap()
	at := base
	for _, layer := range []struct {
		name  string
		bound uint64
		build func(i int)
	}{
		{"simnet node and its random source", 330, func(i int) {
			envs[i] = c.Net.AddNode(AddrOf(i), pts[i])
		}},
		{"overlay node", 560, func(i int) {
			ovs[i] = overlay.New(envs[i], overlay.DefaultConfig(), NameOf(i))
		}},
		{"core", 690, func(i int) {
			ov, fu := ovs[i], core.New(envs[i], ovs[i], 1)
			c.Nodes = append(c.Nodes, &Node{Index: i, Addr: AddrOf(i), Router: pts[i], Env: envs[i], Overlay: ov, Fuse: fu, Groups: fu})
			c.Net.SetHandler(AddrOf(i), func(from transport.Addr, msg transport.Message) {
				if !ov.Handle(from, msg) {
					fu.Handle(from, msg)
				}
			})
		}},
	} {
		for i := 0; i < nodes; i++ {
			layer.build(i)
		}
		at = check(layer.name, at, layer.bound)
	}
	c.nextIndex = nodes

	c.Assemble()
	c.Sim.RunFor(2 * time.Minute)
	check("assembled, 2 minutes with no groups", base, 10700)

	made := 0
	for g := 0; g < groups; g++ {
		members := make([]int, size) // members[0] is the root
		for k := range members {
			members[k] = (g*nodes/groups + k*401) % nodes
		}
		c.Nodes[members[0]].Fuse.CreateGroup(c.Refs(members...), func(_ core.GroupID, err error) {
			if err != nil {
				t.Errorf("group %d: %v", g, err)
			}
			made++
		})
	}
	c.Sim.RunFor(2 * time.Minute)
	if made != groups {
		t.Fatalf("%d of %d groups created", made, groups)
	}
	check("with 250 groups of 5, 2 minutes more", base, 13700)
	runtime.KeepAlive(c)
}

// liveHeap is the bytes of live heap objects after two full collections
// (the second frees what sync.Pool victim caches held through the
// first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
