package scenario

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// The schedule generator: GenerateScript draws a random well-formed
// scenario from a seeded PRNG, turning the invariant harness into a
// property-based test of the whole protocol (FuzzScheduleInvariants in
// fuzz_test.go). The paper claims its guarantees over *all* fault
// interleavings, not just the four presets a human thought of; the
// generator samples that space - crashes, restarts with and without
// stable storage, partitions, intransitive blocks, loss and loss ramps,
// detach/rejoin, Poisson churn, signals - while staying inside the
// envelope where the guarantees actually apply, so every reported
// violation is a real protocol bug and a replayable JSON counterexample
// rather than an artifact of an impossible schedule.
//
// The envelope (what keeps generated scripts sound to audit):
//
//   - Node 0 is pristine: never faulted, never a group member, and the
//     bootstrap for every restart, so a revived node can always rejoin.
//   - Groups and scripted faults draw from a stable pool [1, stableEnd);
//     churn gets a disjoint pool at the top of the index range. The two
//     never overlap, so the per-node up/down state the generator tracks
//     stays exact (churn flips are engine-internal).
//   - Stateful preconditions: only up nodes crash, stop, or detach; only
//     crashed nodes restart; Recover only where a store is declared;
//     signals only from up, attached group members; at most one
//     partition at a time, healed by name or by heal-all.
//   - A quiet tail: at the end of the schedule every loss override still
//     in force is cleared (a mild override left active keeps breaking
//     links stochastically, which would race detection against the end
//     of the run), then a settle window longer than a full detect+repair
//     +notify cycle runs before the audit. Unhealed partitions, blocks,
//     and down or detached nodes are one-shot by then - whatever they
//     were going to fell has long since detected and notified.
//
// Everything is driven by the one seed: same seed, same script, and -
// because the engine is deterministic - the same trace, byte for byte.

// The generator's bounds: deployment size, group count, scheduled events
// (before the quiet tail) and the settle window after it.
const (
	genMinNodes  = 16
	genMaxNodes  = 28
	genMaxGroups = 3
	genMaxEvents = 10
	genSettle    = 12 * time.Minute
)

// genState tracks the generator's model of the deployment so every
// emitted event is applicable when its time comes.
type genState struct {
	rng       *rand.Rand
	stableEnd int // stable pool is [1, stableEnd); churn pool [stableEnd, nodes)
	nodes     int

	crashed  map[int]bool
	detached map[int]bool
	blocks   map[[2]int]bool
	losses   map[[2]int]bool // every pair with any override in force (incl. ramps)
	sides    [][]int         // the active partition, nil when none

	churning    bool
	churnedOnce bool

	groups []GroupSpec
	stores map[int]bool // nodes with a declared store
}

// GenerateScript draws one well-formed scenario from seed. It is pure:
// the same seed always produces the identical script.
func GenerateScript(seed int64) Script {
	rng := rand.New(rand.NewSource(seed))

	nodes := genMinNodes + rng.Intn(genMaxNodes-genMinNodes+1)
	churnCount := 4 + rng.Intn(4)
	g := &genState{
		rng:       rng,
		nodes:     nodes,
		stableEnd: nodes - churnCount,
		crashed:   make(map[int]bool),
		detached:  make(map[int]bool),
		blocks:    make(map[[2]int]bool),
		losses:    make(map[[2]int]bool),
		stores:    make(map[int]bool),
	}
	g.makeGroups(1 + rng.Intn(genMaxGroups))

	var events []Event
	t := 30 * time.Second
	want := 3 + rng.Intn(genMaxEvents-2)
	for len(events) < want {
		t += time.Duration(20+rng.Intn(70)) * time.Second
		if do, ok := g.next(); ok {
			events = append(events, Event{At: t, Do: do})
		}
	}

	// The quiet tail: stop churn, end every loss override still in
	// force, then settle long enough for any detection those last faults
	// triggered to finish notifying before the audit.
	tEnd := t + time.Minute
	if g.churning {
		events = append(events, Event{At: tEnd, Do: ChurnStop{}})
	}
	for _, p := range sortedPairs(g.losses) {
		events = append(events, Event{At: tEnd, Do: ClearLoss{A: p[0], B: p[1]}})
	}

	return Script{
		Name:     fmt.Sprintf("fuzz-%d", seed),
		Nodes:    nodes,
		Seed:     seed,
		Groups:   g.groups,
		Events:   events,
		Duration: Duration(tEnd + genSettle),
	}
}

// makeGroups declares n groups over the stable pool, each 3-5 distinct
// nodes, with stores sprinkled on roughly a third of the nodes.
func (g *genState) makeGroups(n int) {
	for i := 0; i < n; i++ {
		size := 3 + g.rng.Intn(3)
		perm := g.rng.Perm(g.stableEnd - 1)
		sel := make([]int, size)
		for j := range sel {
			sel[j] = perm[j] + 1
		}
		spec := GroupSpec{Root: sel[0], Members: sel[1:]}
		for _, m := range sel {
			if g.rng.Intn(3) == 0 {
				spec.Stores = append(spec.Stores, m)
				g.stores[m] = true
			}
		}
		g.groups = append(g.groups, spec)
	}
}

// next draws one action applicable in the current state, or reports
// false when the drawn kind has no applicable operands (the caller
// redraws).
func (g *genState) next() (Action, bool) {
	switch g.rng.Intn(14) {
	case 0, 1: // crash is twice as likely: down nodes drive the protocol
		n, ok := g.pickUp()
		if ok {
			g.crashed[n] = true
		}
		return Crash{Node: n}, ok
	case 2:
		n, ok := g.pickUp()
		if ok {
			g.crashed[n] = true
		}
		return Stop{Node: n}, ok
	case 3:
		n, ok := g.pickFrom(g.crashed)
		if !ok {
			return nil, false
		}
		delete(g.crashed, n)
		return Restart{Node: n, Bootstrap: 0, Recover: g.stores[n] && g.rng.Intn(2) == 0}, true
	case 4:
		n, ok := g.pickUp()
		if ok {
			g.detached[n] = true
		}
		return Detach{Node: n}, ok
	case 5:
		n, ok := g.pickFrom(g.detached)
		delete(g.detached, n) // !ok means the set is empty: nothing to delete
		return Rejoin{Node: n}, ok
	case 6:
		p := g.pickPair()
		g.blocks[p] = true
		return BlockPair{A: p[0], B: p[1]}, true
	case 7:
		p, ok := g.pickPairFrom(g.blocks)
		delete(g.blocks, p)
		return UnblockPair{A: p[0], B: p[1]}, ok
	case 8:
		p := g.pickPair()
		g.losses[p] = true
		return SetLoss{A: p[0], B: p[1], Loss: float64(2+g.rng.Intn(8)) / 10}, true
	case 9:
		p := g.pickPair()
		g.losses[p] = true
		return LossRamp{
			A: p[0], B: p[1],
			From:  0,
			To:    float64(3+g.rng.Intn(8)) / 10,
			Steps: 3 + g.rng.Intn(4),
			Over:  Duration(time.Duration(2+g.rng.Intn(4)) * time.Minute),
		}, true
	case 10:
		if g.sides != nil {
			// Heal the active partition instead of stacking a second one
			// (two overlapping cuts would need set-subtraction to heal by
			// name; heal-all covers that composition elsewhere).
			healed := g.sides
			g.sides = nil
			return Heal{Sides: healed}, true
		}
		g.sides = g.makeSides()
		return Partition{Sides: g.sides}, true
	case 11:
		g.blocks = make(map[[2]int]bool)
		g.losses = make(map[[2]int]bool)
		g.sides = nil
		return HealAll{}, true
	case 12:
		gi := g.rng.Intn(len(g.groups))
		n, ok := g.pickGroupNode(gi)
		return Signal{Node: n, Group: gi}, ok
	default: // 13
		if g.churning {
			g.churning = false
			return ChurnStop{}, true
		}
		if g.churnedOnce {
			return nil, false
		}
		g.churning, g.churnedOnce = true, true
		return ChurnStart{
			Bootstrap: 0,
			First:     g.stableEnd,
			Count:     g.nodes - g.stableEnd,
			MeanDwell: Duration(time.Duration(2+g.rng.Intn(5)) * time.Minute),
		}, true
	}
}

// pickUp draws a stable node that is up and attached (never node 0).
func (g *genState) pickUp() (int, bool) {
	var cands []int
	for n := 1; n < g.stableEnd; n++ {
		if !g.crashed[n] && !g.detached[n] {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[g.rng.Intn(len(cands))], true
}

// pickFrom draws from a node set in deterministic order.
func (g *genState) pickFrom(set map[int]bool) (int, bool) {
	if len(set) == 0 {
		return 0, false
	}
	cands := slices.Sorted(maps.Keys(set))
	return cands[g.rng.Intn(len(cands))], true
}

// pickPair draws a distinct stable pair (never node 0: links to the
// bootstrap stay clean so restarts can always rejoin).
func (g *genState) pickPair() [2]int {
	a := 1 + g.rng.Intn(g.stableEnd-1)
	b := a
	for b == a {
		b = 1 + g.rng.Intn(g.stableEnd-1)
	}
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (g *genState) pickPairFrom(set map[[2]int]bool) ([2]int, bool) {
	pairs := sortedPairs(set)
	if len(pairs) == 0 {
		return [2]int{}, false
	}
	return pairs[g.rng.Intn(len(pairs))], true
}

// pickGroupNode draws an up, attached node of group gi to signal from.
func (g *genState) pickGroupNode(gi int) (int, bool) {
	spec := g.groups[gi]
	var cands []int
	for _, n := range append([]int{spec.Root}, spec.Members...) {
		if !g.crashed[n] && !g.detached[n] {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[g.rng.Intn(len(cands))], true
}

// makeSides splits 4-8 stable nodes (never node 0) into two disjoint
// partition sides of at least two each. The stable pool always has that
// many: at least genMinNodes - 7 churners - node 0 = 8.
func (g *genState) makeSides() [][]int {
	k := 4 + g.rng.Intn(5)
	perm := g.rng.Perm(g.stableEnd - 1)
	sel := make([]int, k)
	for i := range sel {
		sel[i] = perm[i] + 1
	}
	cut := 2 + g.rng.Intn(k-3)
	a := append([]int(nil), sel[:cut]...)
	b := append([]int(nil), sel[cut:]...)
	sort.Ints(a)
	sort.Ints(b)
	return [][]int{a, b}
}

func sortedPairs(set map[[2]int]bool) [][2]int {
	return slices.SortedFunc(maps.Keys(set), func(p, q [2]int) int { return slices.Compare(p[:], q[:]) })
}
