package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"fuse/internal/transport"
)

// The Action vocabulary. Every entry in the paper's failure model (§3)
// has a direct counterpart: fail-stop crashes (Crash/Stop), recovery
// with and without stable storage (Restart, §3.6), network partitions
// and their selective repair (Partition/Heal), intransitive
// connectivity (BlockPair, §3.4), message loss (SetLoss/LossRamp, §7.2),
// node-scoped outages (Detach/Rejoin), overlay churn (ChurnStart/Stop,
// §7.4), and application-signalled failure (Signal, fail-on-send).
//
// Each kind is defined here and nowhere else: the struct is also the
// kind's JSON form (its tagged fields follow "at" and "do" in a scenario
// file; a field without omitempty is required), validate is what Load
// checks it against, and kinds names it.

// kinds is the one registry of action kinds: it maps the "do" string of
// a scenario file to the Go type (held as its zero value) and back.
var kinds = map[string]Action{
	"block":       BlockPair{},
	"churn-start": ChurnStart{},
	"churn-stop":  ChurnStop{},
	"clear-loss":  ClearLoss{},
	"crash":       Crash{},
	"detach":      Detach{},
	"heal":        Heal{},
	"heal-all":    HealAll{},
	"loss":        SetLoss{},
	"loss-ramp":   LossRamp{},
	"partition":   Partition{},
	"rejoin":      Rejoin{},
	"restart":     Restart{},
	"signal":      Signal{},
	"stop":        Stop{},
	"unblock":     UnblockPair{},
}

// Crash fail-stops a node: no sends, receives, or timers until restart.
type Crash struct {
	Node int `json:"node"`
}

func (a Crash) apply(e *Engine)       { e.fault(nodeKey(a.Node), a.String(), a.Node); e.c.Crash(a.Node) }
func (a Crash) String() string        { return fmt.Sprintf("crash node=%d", a.Node) }
func (a Crash) validate(v *validator) { v.node("node", a.Node) }

// Stop shuts a node down cleanly (its timers are drained); to the rest
// of the deployment it is indistinguishable from a crash.
type Stop struct {
	Node int `json:"node"`
}

func (a Stop) apply(e *Engine)       { e.fault(nodeKey(a.Node), a.String(), a.Node); e.c.Stop(a.Node) }
func (a Stop) String() string        { return fmt.Sprintf("stop node=%d", a.Node) }
func (a Stop) validate(v *validator) { v.node("node", a.Node) }

// Restart revives a crashed node with a fresh protocol stack, rejoining
// the overlay through Bootstrap. With Recover set (and a store declared
// for the node in its GroupSpec), the §3.6 stable-storage path runs:
// recorded memberships are resumed via core.Recover and the engine keeps
// auditing the node's groups under its new incarnation.
type Restart struct {
	Node      int  `json:"node"`
	Bootstrap int  `json:"bootstrap"`
	Recover   bool `json:"recover,omitempty"`
}

func (a Restart) apply(e *Engine) { e.restartNode(a.Node, a.Bootstrap, a.Recover) }
func (a Restart) String() string {
	return fmt.Sprintf("restart node=%d bootstrap=%d recover=%v", a.Node, a.Bootstrap, a.Recover)
}
func (a Restart) validate(v *validator) {
	v.node("node", a.Node)
	v.node("bootstrap", a.Bootstrap)
	if a.Bootstrap == a.Node {
		v.errf("bootstrap", "a node cannot bootstrap through itself")
	}
	stores := func(g GroupSpec) bool { return slices.Contains(g.Stores, a.Node) }
	if a.Recover && !slices.ContainsFunc(v.s.Groups, stores) {
		v.errf("recover", "node %d has no store (declare it in a group's stores)", a.Node)
	}
}

// Partition blocks all traffic between the listed sides (node indices);
// traffic within a side is unaffected.
type Partition struct {
	Sides [][]int `json:"sides,omitempty"`
}

func (a Partition) apply(e *Engine) {
	var nodes []int
	for _, side := range a.Sides {
		nodes = append(nodes, side...)
	}
	e.fault(fmt.Sprintf("partition:%v", a.Sides), a.String(), nodes...)
	e.c.Net.Partition(e.addrSides(a.Sides)...)
}
func (a Partition) String() string        { return fmt.Sprintf("partition sides=%v", a.Sides) }
func (a Partition) validate(v *validator) { v.sides(a.Sides) }

// Heal removes exactly the blocks a Partition over the same sides
// installed; other blocks and loss overrides persist.
type Heal struct {
	Sides [][]int `json:"sides,omitempty"`
}

func (a Heal) apply(e *Engine) {
	e.c.Net.HealPartition(e.addrSides(a.Sides)...)
	e.clearFault(fmt.Sprintf("partition:%v", a.Sides))
}
func (a Heal) String() string        { return fmt.Sprintf("heal sides=%v", a.Sides) }
func (a Heal) validate(v *validator) { v.sides(a.Sides) }

// HealAll removes every block and loss override at once, and cancels
// the remaining steps of every loss ramp (a healed network must not be
// re-degraded by a ramp scheduled before the heal).
type HealAll struct{}

func (a HealAll) apply(e *Engine) {
	e.c.Net.ClearRules()
	for _, p := range e.ramps {
		p.stopped = true
	}
	// Every network fault ends; node-down faults (crash/stop/detach)
	// persist until their own clearing action.
	for key := range e.active {
		if strings.HasPrefix(key, "loss:") || strings.HasPrefix(key, "block:") || strings.HasPrefix(key, "partition:") {
			e.clearFault(key)
		}
	}
}
func (a HealAll) String() string      { return "heal all" }
func (a HealAll) validate(*validator) {}

// BlockPair cuts connectivity between exactly two nodes in both
// directions: the §3.4 intransitive failure (both still reach everyone
// else).
type BlockPair struct {
	A int `json:"a"`
	B int `json:"b"`
}

func (a BlockPair) apply(e *Engine) {
	e.fault(pairKey("block", a.A, a.B), a.String(), a.A, a.B)
	e.c.Net.BlockBoth(e.addr(a.A), e.addr(a.B))
}
func (a BlockPair) String() string        { return fmt.Sprintf("block pair=%d<->%d", a.A, a.B) }
func (a BlockPair) validate(v *validator) { v.pair(a.A, a.B) }

// UnblockPair restores connectivity between two nodes.
type UnblockPair struct {
	A int `json:"a"`
	B int `json:"b"`
}

func (a UnblockPair) apply(e *Engine) {
	e.c.Net.UnblockBoth(e.addr(a.A), e.addr(a.B))
	e.clearFault(pairKey("block", a.A, a.B))
}
func (a UnblockPair) String() string        { return fmt.Sprintf("unblock pair=%d<->%d", a.A, a.B) }
func (a UnblockPair) validate(v *validator) { v.pair(a.A, a.B) }

// SetLoss overrides the loss probability between two nodes (both
// directions). Only a severe override (>= 0.5, where the emulated
// TCP's retries stop masking the loss and connections actually break)
// is recorded as a fault for latency attribution; milder settings are
// background degradation and would otherwise steal the blame from the
// real cause of a group failure.
type SetLoss struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Loss float64 `json:"loss"`
}

func (a SetLoss) apply(e *Engine) {
	e.c.Net.SetLinkLoss(e.addr(a.A), e.addr(a.B), a.Loss)
	e.c.Net.SetLinkLoss(e.addr(a.B), e.addr(a.A), a.Loss)
	// Rule installation has no synchronous delivery side effects, so the
	// fault bookkeeping may follow it.
	if a.Loss >= 0.5 {
		e.fault(pairKey("loss", a.A, a.B), a.String(), a.A, a.B)
	} else {
		// Dropping below the breaking threshold ends any ongoing loss
		// fault on the pair; a later severe setting starts a new one.
		e.clearFault(pairKey("loss", a.A, a.B))
	}
}
func (a SetLoss) String() string { return fmt.Sprintf("loss pair=%d<->%d p=%.3f", a.A, a.B, a.Loss) }
func (a SetLoss) validate(v *validator) {
	v.pair(a.A, a.B)
	v.prob("loss", a.Loss)
}

// ClearLoss removes the loss override between two nodes, restoring the
// topology-derived rate; any block on the pair persists. Pending loss
// ramp steps on the same pair are cancelled.
type ClearLoss struct {
	A int `json:"a"`
	B int `json:"b"`
}

func (a ClearLoss) apply(e *Engine) {
	e.c.Net.ClearLinkLoss(e.addr(a.A), e.addr(a.B))
	e.c.Net.ClearLinkLoss(e.addr(a.B), e.addr(a.A))
	e.clearFault(pairKey("loss", a.A, a.B))
	for _, p := range e.ramps {
		if (p.a == a.A && p.b == a.B) || (p.a == a.B && p.b == a.A) {
			p.stopped = true
		}
	}
}
func (a ClearLoss) String() string        { return fmt.Sprintf("clear loss pair=%d<->%d", a.A, a.B) }
func (a ClearLoss) validate(v *validator) { v.pair(a.A, a.B) }

// LossRamp raises (or lowers) the loss on a pair from From to To in
// Steps evenly spaced increments over the Over window, starting now. A
// later ClearLoss on the pair (or HealAll) cancels the steps that have
// not fired yet.
type LossRamp struct {
	A     int      `json:"a"`
	B     int      `json:"b"`
	From  float64  `json:"from"`
	To    float64  `json:"to"`
	Steps int      `json:"steps,omitempty"`
	Over  Duration `json:"over,omitempty"`
}

// rampProc lets ClearLoss/HealAll cancel a ramp's pending steps.
type rampProc struct {
	a, b    int
	stopped bool
}

func (a LossRamp) apply(e *Engine) {
	steps := a.Steps
	if steps < 2 {
		steps = 2
	}
	p := &rampProc{a: a.A, b: a.B}
	e.ramps = append(e.ramps, p)
	for i := 0; i < steps; i++ {
		frac := float64(i) / float64(steps-1)
		step := SetLoss{A: a.A, B: a.B, Loss: a.From + (a.To-a.From)*frac}
		e.c.Sim.After(time.Duration(frac*float64(a.Over)), func() {
			if p.stopped {
				return
			}
			e.tracef("%s (ramp)", step.String())
			step.apply(e)
		})
	}
}
func (a LossRamp) String() string {
	return fmt.Sprintf("loss ramp pair=%d<->%d p=%.3f..%.3f steps=%d over=%s", a.A, a.B, a.From, a.To, a.Steps, a.Over)
}
func (a LossRamp) validate(v *validator) {
	v.pair(a.A, a.B)
	v.prob("from", a.From)
	v.prob("to", a.To)
	if a.Steps < 0 {
		v.errf("steps", "must not be negative")
	}
	if a.Over <= 0 {
		v.errf("over", "must be positive")
	}
}

// Detach unplugs a node from the network without stopping its process;
// Rejoin plugs it back in. A node-scoped outage, distinct from a crash
// (timers keep firing) and from a partition (no pair enumeration).
type Detach struct {
	Node int `json:"node"`
}

func (a Detach) apply(e *Engine) {
	e.fault(fmt.Sprintf("detach:%d", a.Node), a.String(), a.Node)
	e.c.Net.Detach(e.addr(a.Node))
}
func (a Detach) String() string        { return fmt.Sprintf("detach node=%d", a.Node) }
func (a Detach) validate(v *validator) { v.node("node", a.Node) }

// Rejoin reverses a Detach.
type Rejoin struct {
	Node int `json:"node"`
}

func (a Rejoin) apply(e *Engine) {
	e.c.Net.Rejoin(e.addr(a.Node))
	e.clearFault(fmt.Sprintf("detach:%d", a.Node))
}
func (a Rejoin) String() string        { return fmt.Sprintf("rejoin node=%d", a.Node) }
func (a Rejoin) validate(v *validator) { v.node("node", a.Node) }

// Signal triggers an application-level SignalFailure for group Group
// (index into Script.Groups) at node Node - the paper's fail-on-send.
type Signal struct {
	Node  int `json:"node"`
	Group int `json:"group"`
}

// The fault is recorded before SignalFailure runs: the signalling
// node's own handler fires synchronously inside it and must attribute
// to this signal, not to whatever fault preceded it.
func (a Signal) apply(e *Engine) {
	e.groupFault(a.Group, a.String(), a.Node)
	e.c.Nodes[a.Node].Groups.SignalFailure(e.tracks[a.Group].id)
}
func (a Signal) String() string { return fmt.Sprintf("signal group=%d node=%d", a.Group, a.Node) }
func (a Signal) validate(v *validator) {
	groups := v.s.Groups
	known := a.Group >= 0 && a.Group < len(groups)
	if !known {
		v.errf("group", "%d out of range [0, %d)", a.Group, len(groups))
	}
	v.node("node", a.Node)
	if known && a.Node != groups[a.Group].Root && !slices.Contains(groups[a.Group].Members, a.Node) {
		v.errf("node", "node %d is not in group %d", a.Node, a.Group)
	}
}

// ChurnStart begins a Poisson churn process over the Count nodes
// starting at index First: each flips between up and down after
// exponentially distributed dwell times with the given mean, restarting
// (without stable storage, as in §7.4) through Bootstrap.
type ChurnStart struct {
	Bootstrap int      `json:"bootstrap"`
	First     int      `json:"first"`
	Count     int      `json:"count"`
	MeanDwell Duration `json:"mean_dwell,omitempty"`
}

func (a ChurnStart) apply(e *Engine) {
	p := &churnProc{}
	e.churns = append(e.churns, p)
	for i := a.First; i < a.First+a.Count; i++ {
		e.churnFlip(p, i, a.Bootstrap, time.Duration(a.MeanDwell))
	}
}
func (a ChurnStart) String() string {
	return fmt.Sprintf("churn start nodes=[%d..%d) dwell=%s", a.First, a.First+a.Count, a.MeanDwell)
}
func (a ChurnStart) validate(v *validator) {
	end := a.First + a.Count
	v.node("first", a.First)
	if a.Count < 1 {
		v.errf("count", "must be at least 1")
	}
	if end > v.nodes {
		v.errf("count", "churn range [%d, %d) exceeds %d nodes", a.First, end, v.nodes)
	}
	v.node("bootstrap", a.Bootstrap)
	if a.Bootstrap >= a.First && a.Bootstrap < end {
		v.errf("bootstrap", "node %d is inside the churning range", a.Bootstrap)
	}
	if a.MeanDwell <= 0 {
		v.errf("mean_dwell", "must be positive")
	}
}

// ChurnStop halts every started churn process; nodes stay in whatever
// state the last flip left them.
type ChurnStop struct{}

func (a ChurnStop) apply(e *Engine) {
	for _, p := range e.churns {
		p.stopped = true
	}
}
func (a ChurnStop) String() string      { return "churn stop" }
func (a ChurnStop) validate(*validator) {}

type churnProc struct{ stopped bool }

// churnFlip schedules one node's next up/down transition.
func (e *Engine) churnFlip(p *churnProc, node, bootstrap int, mean time.Duration) {
	dwell := time.Duration(e.rng.ExpFloat64() * float64(mean))
	e.c.Sim.After(dwell, func() {
		if p.stopped {
			return
		}
		if e.c.Crashed(node) {
			e.restartNode(node, bootstrap, false)
			e.tracef("churn restart node=%d", node)
		} else {
			e.fault(nodeKey(node), fmt.Sprintf("churn crash node=%d", node), node)
			e.c.Crash(node)
			e.tracef("churn crash node=%d", node)
		}
		e.churnFlip(p, node, bootstrap, mean)
	})
}

// --- helpers ---

// nodeKey identifies a node-down fault (crash or stop); restartNode
// clears it.
func nodeKey(n int) string { return fmt.Sprintf("crash:%d", n) }

// pairKey identifies a link fault on an unordered node pair.
func pairKey(kind string, a, b int) string {
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%s:%d-%d", kind, a, b)
}

func (e *Engine) addr(i int) transport.Addr { return e.c.Nodes[i].Addr }

func (e *Engine) addrSides(sides [][]int) [][]transport.Addr {
	out := make([][]transport.Addr, len(sides))
	for i, side := range sides {
		out[i] = make([]transport.Addr, len(side))
		for j, n := range side {
			out[i][j] = e.addr(n)
		}
	}
	return out
}
