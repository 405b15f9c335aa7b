package cluster

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fuse/internal/core"
	"fuse/internal/overlay"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// TestBytesPerNode pins what a simulated node holds on the heap. It
// builds a 2,000-node deployment on the default topology one layer at a
// time, as buildStack does, and reads the live heap after each layer:
// the simnet endpoint with its random source, the overlay node, and the
// FUSE layer. Then it assembles the overlay and runs 2 virtual minutes
// with no groups, creates 250 groups of 5 and runs 2 more, reading the
// whole deployment per node after each. Every reading has a bound just
// above what it is, so any growth fails. It also logs and bounds what
// assembling the overlay costs per live link: the idle deployment's
// growth over the fresh stacks - routing tables, link slots with their
// routes, memoized paths - over the links the nodes' tables hold.
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
		{"simnet node and its random source", 280, func(i int) {
			envs[i] = c.Net.AddNode(AddrOf(i), pts[i])
		}},
		{"overlay node", 420, func(i int) {
			ovs[i] = overlay.New(envs[i], overlay.DefaultConfig(), NameOf(i))
		}},
		{"core", 365, func(i int) {
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
	idle := check("assembled, 2 minutes with no groups", base, 4700)
	links := 0
	for _, ov := range ovs {
		links += len(ov.Neighbors())
	}
	perLink := (idle - at) / uint64(links)
	t.Logf("assembled: %.1f live links per node, %d B per link", float64(links)/nodes, perLink)
	if perLink > 185 {
		t.Errorf("assembly costs %d B per live link, bound 185", perLink)
	}

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
	check("with 250 groups of 5, 2 minutes more", base, 8790)
	runtime.KeepAlive(c)
}

// TestChurnHeapStaysFlat pins that a long run under steady churn holds
// no more memory at its end than it did after warming up: nothing the
// stack keeps grows with the neighbours, routes or groups a node has ever
// had. It runs runChurnShape for 160 virtual minutes. The live heap at
// minute 160 may be at most 5% above minute 40's; the pair memo, which
// keeps every route ever asked for, is most of what still grows, and the
// test logs its size at both minutes. The group records the up nodes'
// FUSE layers hold, which the steady create-and-signal rate keeps level,
// may be at most 1.5x minute 40's count.
func TestChurnHeapStaysFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes the heap; memory pins run without -race")
	}
	const minutes, warm = 160, 40
	c := newChurnShape()
	var at40 uint64
	var pairs40, records40 int
	records := func() int {
		n := 0
		for i, nd := range c.Nodes {
			if !c.Crashed(i) {
				n += len(nd.Fuse.LiveGroups())
			}
		}
		return n
	}
	runChurnShape(c, minutes, func(m, made int) {
		switch m {
		case warm:
			at40 = liveHeap()
			pairs40, records40 = c.Topo.RouteStats().Pairs, records()
		case minutes:
			at160 := liveHeap()
			ratio := float64(at160) / float64(at40)
			t.Logf("live heap %.2f MB at minute %d, %.2f MB at minute %d (%.3fx); %d groups created",
				float64(at40)/(1<<20), warm, float64(at160)/(1<<20), minutes, ratio, made)
			if at160*100 > at40*105 {
				t.Errorf("live heap grew %.3fx from minute %d to %d, bound 1.05x", ratio, warm, minutes)
			}
			pairs160, records160 := c.Topo.RouteStats().Pairs, records()
			t.Logf("memoized route pairs %d at minute %d, %d at minute %d; group records %d, then %d",
				pairs40, warm, pairs160, minutes, records40, records160)
			if records160*2 > records40*3 {
				t.Errorf("group records grew from %d at minute %d to %d at minute %d, bound 1.5x",
					records40, warm, records160, minutes)
			}
		}
	})
	runtime.KeepAlive(c)
}

// newChurnShape builds runChurnShape's deployment: 400 nodes with the
// paper's messaging overheads.
func newChurnShape() *Cluster {
	opts := simnet.DefaultOptions()
	return New(Options{N: 400, Seed: 1, SimOptions: &opts})
}

// runChurnShape runs steady churn on a newChurnShape deployment for the
// given virtual minutes. Every 10 virtual seconds a random node of
// 100-399 crashes if it is up, and with probability 1/3 a down one
// restarts through a random node of 0-99, so about a third of the
// churners are up at a time and each restart is a fresh join. Every
// minute the five oldest groups are signalled and five groups are
// created, each of three nodes of 0-99 and one up node of 100-399; then
// minute(m, made) is called with the minute's number and the groups
// created so far.
func runChurnShape(c *Cluster, minutes int, minute func(m, made int)) {
	const (
		stable    = 100
		step      = 10 * time.Second
		perMinute = int(time.Minute / step)
	)
	nodes := len(c.Nodes)
	rng := rand.New(rand.NewSource(1))
	type group struct {
		root int
		id   core.GroupID
	}
	var groups []group // oldest first
	made := 0
	for s := 1; s <= minutes*perMinute; s++ {
		c.Sim.RunFor(step)
		if k := stable + rng.Intn(nodes-stable); !c.Crashed(k) {
			c.Crash(k)
		}
		var up, down []int
		for i := stable; i < nodes; i++ {
			if c.Crashed(i) {
				down = append(down, i)
			} else {
				up = append(up, i)
			}
		}
		if rng.Intn(3) == 0 && len(down) > 0 {
			k := rng.Intn(len(down))
			c.Restart(down[k], c.Nodes[rng.Intn(stable)].Ref())
			up = append(up, down[k])
		}
		if s%perMinute != 0 {
			continue
		}
		old := min(5, len(groups))
		for _, g := range groups[:old] {
			c.Nodes[g.root].Groups.SignalFailure(g.id)
		}
		groups = groups[old:]
		for k := 0; k < 5; k++ {
			members := rng.Perm(stable)[:3]
			if len(up) > 0 {
				members = append(members, up[rng.Intn(len(up))])
			}
			root := members[0]
			c.Nodes[root].Groups.CreateGroup(c.Refs(members...), func(id core.GroupID, err error) {
				if err == nil {
					groups = append(groups, group{root, id})
					made++
				}
			})
		}
		minute(s/perMinute, made)
	}
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
