// Package scenario is a deterministic fault-injection engine for
// simulated FUSE deployments: it compiles a declarative schedule of
// failure events - crashes, restarts (with or without §3.6 stable
// storage), partitions and selective heals, intransitive-connectivity
// blocks, loss ramps, Poisson churn - onto the eventsim virtual clock,
// driving the simnet fault hooks and the cluster's node lifecycle, and
// checks the paper's delivery guarantees over the whole run with an
// invariant harness.
//
// A Script is data: a set of FUSE groups to create, a timeline of
// Actions, and per-group expectations (must fail / must survive). Run
// executes it and returns a Report with
//
//   - an exactly-once audit: no node incarnation hears about the same
//     group twice, and when a group fails, every member that stayed up
//     hears about it exactly once (no lost notifications),
//   - a consistency audit: a group either survives everywhere (state
//     intact, zero notices) or fails everywhere,
//   - bounded detection latency: the span from the fault that felled a
//     group to its last delivered notification, checked against the
//     script's bound, and
//   - a byte-deterministic event trace: the same seed and script
//     produce the identical trace and statistics, so every scripted
//     failure drill doubles as a reproducible regression test.
//
// The paper's failure model (§3: crashes, partitions, intransitive
// connectivity, message loss) maps onto Actions one-to-one; Presets
// packages the recurring drills (churn §7.4, partition/heal, restart
// §3.6, intransitive §3.4) as ~20-line scripts.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/eventsim"
)

// GroupSpec declares one FUSE group: a root node index, further member
// node indices, and optionally which of those nodes get stable storage
// (a core.MemStore) attached before creation.
type GroupSpec struct {
	Root    int   `json:"root"`
	Members []int `json:"members"`
	Stores  []int `json:"stores,omitempty"`
}

// Event is one scheduled Action on the script timeline. At is relative
// to the end of setup (all groups created). In a scenario file it is
// {"at", "do", ...the action's own fields} (script.go).
type Event struct {
	At time.Duration
	Do Action
}

// Action is a fault-injection step. Implementations live in actions.go.
type Action interface {
	apply(e *Engine)
	String() string
	// validate reports what is wrong with the action as an event of
	// v.sf, naming each offending field.
	validate(v *validator)
}

// Script is a complete declarative scenario.
type Script struct {
	Name   string
	Groups []GroupSpec
	Events []Event

	// Duration is the virtual time the scenario runs after setup. It
	// must leave enough room after the last event for detection and
	// repair to settle (the protocol's timeouts are minutes).
	Duration time.Duration

	// ExpectFail and ExpectSurvive list group indices that must have
	// failed (every eligible member notified) or survived (state intact
	// everywhere, zero notices) by the end of the run.
	ExpectFail    []int
	ExpectSurvive []int

	// LatencyBound, when nonzero, bounds the span from the fault that
	// felled a group to that group's last delivered notification.
	LatencyBound time.Duration
}

// Engine executes one Script over one cluster. It is single-use.
//
// All of the engine's own bookkeeping (fault records, incarnations,
// churn/ramp processes) mutates only at fences: actions run as
// control-lane events. The one structure failure handlers write from node
// context - the trace and notice stream - is one list of lines, each
// tagged with the lane that wrote it and appended under a mutex; Report
// orders it by (time, lane), so the report and trace are byte-identical
// at every worker count.
type Engine struct {
	c      *cluster.Cluster
	script Script
	rng    *rand.Rand

	t0     time.Duration   // sim elapsed when the timeline starts
	trace  strings.Builder // setup lines (written before the timeline starts)
	mu     sync.Mutex      // guards lines: shards append in parallel windows
	lines  []traceLine
	tracks []*track
	inc    []int          // per-node incarnation counter
	faults []faultRec     // every recorded fault, in schedule order (seq = index+1)
	active map[string]int // fault key -> index of the ongoing fault on that entity
	churns []*churnProc   // every started churn process; ChurnStop halts them all
	ramps  []*rampProc    // every started loss ramp; ClearLoss/HealAll cancel them

	// errs collects engine-level failures during the run (e.g. a broken
	// Recover); Report lists them as violations so a run with a failed
	// lifecycle step can never audit green.
	errs []string
}

// Run executes script s against c: creates the declared groups, compiles
// the event timeline onto the simulator, runs it, and audits the
// invariants. Engines may follow one another on one cluster: each
// creates, watches and audits only its own script's groups.
func Run(c *cluster.Cluster, s Script) (*Report, error) {
	e, err := Start(c, s)
	if err != nil {
		return nil, err
	}
	c.Sim.RunFor(s.Duration)
	return e.Report(), nil
}

// Start is the first half of Run: it creates the declared groups, attaches
// the recording handlers and schedules the timeline, and leaves advancing
// the clock to the caller - a driver that measures something between
// creation and the first fault runs the simulator itself (s.Duration is
// not consulted) and calls Report once at the end.
func Start(c *cluster.Cluster, s Script) (*Engine, error) {
	e := &Engine{c: c, script: s, rng: c.Sim.Rand(), inc: make([]int, len(c.Nodes)), active: make(map[string]int)}
	if err := e.setup(); err != nil {
		return nil, err
	}
	e.t0 = c.Sim.Elapsed()
	for _, ev := range s.Events {
		ev := ev
		c.Sim.After(ev.At, func() {
			e.tracef("%s", ev.Do.String())
			ev.Do.apply(e)
		})
	}
	return e, nil
}

// setup attaches declared stores and creates every group, recording a
// harness track (with failure handlers on the root and all members) per
// group.
func (e *Engine) setup() error {
	for gi, g := range e.script.Groups {
		for _, n := range g.Stores {
			if !e.c.HasStore(n) {
				e.c.AttachStore(n, core.NewMemStore())
			}
		}
		id, err := e.c.CreateGroup(g.Root, g.Members...)
		if err != nil {
			return fmt.Errorf("scenario %s: create group %d: %w", e.script.Name, gi, err)
		}
		tr := &track{spec: g, id: id, attached: make(map[int]int), counts: make(map[incKey]int), member: make(map[int]bool)}
		for _, n := range tr.nodes() {
			tr.member[n] = true
		}
		e.tracks = append(e.tracks, tr)
		fmt.Fprintf(&e.trace, "setup group=%d id=%s root=%d members=%v stores=%v\n",
			gi, id, g.Root, g.Members, g.Stores)
		for _, n := range tr.nodes() {
			e.attach(gi, n)
		}
	}
	return nil
}

// traceLine is one line of the run's trace. Each lane executes in time
// order and appends its own lines in that order, so sorting the list
// stably by (at, lane) gives the logical order whatever the interleaving
// of parallel windows was.
type traceLine struct {
	at   time.Duration // timeline-relative
	lane int           // 0: control lane; 1+i: event shard i
	text string
	// notice is set on a failure handler's line: the invocation itself,
	// which Report routes to its group's track.
	notice *Delivery
}

func (e *Engine) record(ln traceLine) {
	e.mu.Lock()
	e.lines = append(e.lines, ln)
	e.mu.Unlock()
}

// now returns the current timeline-relative virtual time.
func (e *Engine) now() time.Duration { return e.c.Sim.Elapsed() - e.t0 }

// tracef records a control-lane trace line at the present instant.
// Actions and engine lifecycle steps run at fences, so lane 0 is theirs.
func (e *Engine) tracef(format string, args ...any) {
	e.record(traceLine{at: e.now(), text: fmt.Sprintf(format, args...)})
}

// faultRec is one recorded fault, for per-fault latency attribution. A
// fault is an interval on one faulting entity - a down node, a lossy or
// blocked link, a partition cut - identified by key: repeated
// degradations of an entity whose fault is still ongoing (a loss ramp
// stepping past the breaking threshold again, a churn crash of an
// already-counted node) extend the existing record instead of starting a
// new one, so attribution lands on the step that actually broke the
// entity rather than the latest event before a notification. A clearing
// action (restart, heal, unblock, loss dropping below the threshold)
// ends the interval; a later fault on the same key starts a fresh record
// with its own seq.
type faultRec struct {
	seq   int // 1-based position in the fault schedule
	at    time.Duration
	key   string // faulting entity ("crash:3", "loss:2-9", ...)
	desc  string // the action that started the fault, for reports
	nodes []int  // nodes the fault touches directly
	group int    // group index when the action names one (Signal), -1 otherwise
}

// fault records the present instant as the start of a fault on entity
// key, unless a fault on that entity is already ongoing.
func (e *Engine) fault(key, desc string, nodes ...int) {
	if _, ongoing := e.active[key]; ongoing {
		return
	}
	e.active[key] = len(e.faults)
	e.faults = append(e.faults, faultRec{
		seq: len(e.faults) + 1, at: e.now(), key: key, desc: desc, nodes: nodes, group: -1,
	})
}

// clearFault ends the ongoing fault on entity key, if any. The record
// stays in the schedule as it is (a cleared fault can still be the cause
// of a notification delivered after the clear); only the dedup ends, so
// a later fault on the same entity gets its own record.
func (e *Engine) clearFault(key string) { delete(e.active, key) }

// groupFault records a one-shot fault explicitly tied to one group
// (Signal). Signals are instantaneous, so they never dedup.
func (e *Engine) groupFault(group int, desc string, nodes ...int) {
	e.faults = append(e.faults, faultRec{
		seq: len(e.faults) + 1, at: e.now(), key: fmt.Sprintf("signal:%d", group),
		desc: desc, nodes: nodes, group: group,
	})
}

// attribute picks the fault that caused a notification for group gi
// delivered at the present instant: the latest-started fault that names
// the group or touches one of its nodes; failing that, the latest-
// started fault of any kind (a delegate fault can fell a group without
// touching its members). Returns the fault's seq, or 0 when no fault has
// been recorded yet (e.g. a failed creation).
func (e *Engine) attribute(gi int) int {
	tr := e.tracks[gi]
	ours, any := 0, 0
	for i := range e.faults {
		f := &e.faults[i]
		any = f.seq
		if f.group == gi {
			ours = f.seq
			continue
		}
		for _, n := range f.nodes {
			if tr.member[n] {
				ours = f.seq
				break
			}
		}
	}
	if ours == 0 {
		return any
	}
	return ours
}

// attach registers a failure handler for group gi on node's current
// incarnation. The handler runs in the node's event context - possibly on
// its shard's worker goroutine - so it records on the node's lane, reads
// the node-local clock, and consults engine state that mutates
// exclusively at fences (the fault schedule).
func (e *Engine) attach(gi, node int) {
	tr := e.tracks[gi]
	inc := e.inc[node]
	tr.attached[node] = inc
	lane := 1 + e.c.ShardOf(node)
	env := e.c.Nodes[node].Env
	e.c.Nodes[node].Fuse.RegisterFailureHandler(func(n core.Notice) {
		at := env.Now().Sub(eventsim.Epoch) - e.t0
		fs := e.attribute(gi)
		e.record(traceLine{
			at:     at,
			lane:   lane,
			text:   fmt.Sprintf("notify group=%d node=%d inc=%d reason=%s fault=%d", gi, node, inc, n.Reason, fs),
			notice: &Delivery{Group: gi, Node: node, Inc: inc, At: at, Reason: n.Reason, Fault: fs},
		})
	}, tr.id)
}

// reattachRecovered re-registers handlers on a node that restarted with
// its store recovered: the new incarnation resumes observing every group
// it belongs to. (A restart without storage deliberately does not
// re-register - the fresh process has no knowledge of the group, exactly
// the paper's recovery model.)
func (e *Engine) reattachRecovered(node int) {
	for gi, tr := range e.tracks {
		for _, n := range tr.nodes() {
			if n == node {
				e.attach(gi, node)
				break
			}
		}
	}
}

// restartNode revives node (bumping its incarnation) with or without the
// §3.6 stable-storage recovery path. The node's down-fault ends here:
// a later crash of the same node is a new fault with its own seq.
func (e *Engine) restartNode(node, bootstrap int, recover bool) {
	e.clearFault(fmt.Sprintf("crash:%d", node))
	e.inc[node]++
	boot := e.c.Nodes[bootstrap].Ref()
	if recover {
		if !e.c.HasStore(node) {
			// The script asked for the §3.6 path but never declared a
			// store for the node; validating the wrong drill silently
			// would defeat the audit.
			e.tracef("restart node=%d recover requested but no store declared", node)
			e.errs = append(e.errs, fmt.Sprintf("node %d: Restart{Recover: true} but the node has no store (declare it in GroupSpec.Stores)", node))
			e.c.Restart(node, boot)
			return
		}
		if _, err := e.c.RestartRecovered(node, boot); err != nil {
			e.tracef("restart node=%d recover FAILED: %v", node, err)
			e.errs = append(e.errs, fmt.Sprintf("node %d: recover failed: %v", node, err))
			return
		}
		e.reattachRecovered(node)
		return
	}
	e.c.Restart(node, boot)
}
