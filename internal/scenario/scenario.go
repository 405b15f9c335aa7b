// Package scenario is a deterministic fault-injection engine for
// simulated FUSE deployments: it compiles a declarative schedule of
// failure events - crashes, restarts (with or without §3.6 stable
// storage), partitions and selective heals, intransitive-connectivity
// blocks, loss ramps, Poisson churn - onto the eventsim virtual clock,
// driving the simnet fault hooks and the cluster's node lifecycle, and
// checks the paper's delivery guarantees over the whole run with an
// invariant harness.
//
// A Script is data, and its own JSON form (script.go): the deployment it
// is written for (nodes, seed), a set of FUSE groups to create, a
// timeline of Actions, and per-group expectations (must fail / must
// survive). Whatever built it - a file, a preset, a driver - Run
// validates it against the cluster it is handed, executes it and returns
// a Report with
//
//   - an exactly-once audit: no node incarnation hears about the same
//     group twice, and when a group fails, every member that stayed up
//     hears about it exactly once (no lost notifications),
//   - a consistency audit: a group either survives everywhere (state
//     intact, zero notices) or fails everywhere,
//   - the paper's bounded time: every delivered notice lands within
//     core.NotificationBound of the group's first notice (the trigger),
//     or of its incarnation's restart if that came later, and
//   - a byte-deterministic event trace: the same seed and script
//     produce the identical trace and statistics, so every scripted
//     failure drill doubles as a reproducible regression test.
//
// The engine observes a run through the cluster's telemetry, like
// everything else: each applied action is an "action" event on the
// control lane and each failure-handler call a "notice" event on the
// node's lane, recorded at any trace level, and Report folds them -
// merged in the registry's (time, lane) order - into the trace and the
// audit. A -trace JSONL therefore carries the engine's events beside the
// protocol's.
//
// The paper's failure model (§3: crashes, partitions, intransitive
// connectivity, message loss) maps onto Actions one-to-one; Presets
// packages the recurring drills (churn §7.4, partition/heal, restart
// §3.6, intransitive §3.4) as ~20-line scripts.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
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
	// v.s, naming each offending field.
	validate(v *validator)
}

// Engine executes one Script over one cluster. It is single-use.
//
// All of the engine's own bookkeeping (fault records, incarnations,
// churn/ramp processes) mutates only at fences: actions run as
// control-lane events. What failure handlers observe from node context
// goes onto the node's own telemetry lane, which only that node's shard
// writes; Report reads it back through the registry's merge, so the
// report and trace are byte-identical at every worker count.
type Engine struct {
	c      *cluster.Cluster
	script Script
	rng    *rand.Rand

	t0       time.Duration // sim elapsed when the timeline starts
	reported bool          // Report was taken: record nothing more
	tracks   []*track
	inc      []int                    // per-node incarnation counter
	born     map[incKey]time.Duration // timeline instant each restarted incarnation began
	faults   []faultRec               // every recorded fault, in schedule order (seq = index+1)
	active   map[string]int           // fault key -> index of the ongoing fault on that entity
	churns   []*churnProc             // every started churn process; ChurnStop halts them all
	ramps    []*rampProc              // every started loss ramp; ClearLoss/HealAll cancel them
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
	c.Sim.RunFor(time.Duration(s.Duration))
	return e.Report(), nil
}

// Start is the first half of Run: it validates s against c (every node
// index within c, Nodes when set equal to c's size), creates the declared
// groups, attaches the recording handlers and schedules the timeline, and
// leaves advancing the clock to the caller - a driver that measures
// something between creation and the first fault runs the simulator
// itself, for s.Duration, and calls Report once at the end.
func Start(c *cluster.Cluster, s Script) (*Engine, error) {
	if err := s.validate(len(c.Nodes)); err != nil {
		return nil, err
	}
	e := &Engine{c: c, script: s, rng: c.Sim.Rand(), inc: make([]int, len(c.Nodes)), born: make(map[incKey]time.Duration), active: make(map[string]int)}
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
		for _, n := range tr.nodes() {
			e.attach(gi, n)
		}
	}
	return nil
}

// now returns the current timeline-relative virtual time.
func (e *Engine) now() time.Duration { return e.c.Sim.Elapsed() - e.t0 }

// tracef records an action event, the trace line's text as its detail,
// at the present instant. Actions and engine lifecycle steps run at
// fences, so lane 0 is theirs.
func (e *Engine) tracef(format string, args ...any) {
	if !e.reported {
		e.c.Telemetry.Lane(0).Record(e.c.Sim.Elapsed(), "action", "", "", 0, 0, fmt.Sprintf(format, args...))
	}
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
// its shard's worker goroutine - so it records a notice event on the
// node's lane at the node-local clock, and consults engine state that
// mutates exclusively at fences (the fault schedule). Attribution happens
// here, at delivery: Report's fold sorts a Signal's synchronous notice
// after every same-instant control-lane action, faults applied after the
// signal included, so attribution recomputed there could change.
func (e *Engine) attach(gi, node int) {
	tr := e.tracks[gi]
	inc := e.inc[node]
	tr.attached[node] = inc
	lane := e.c.Telemetry.Lane(1 + e.c.ShardOf(node))
	env := e.c.Nodes[node].Env
	e.c.Nodes[node].Groups.RegisterFailureHandler(func(n core.Notice) {
		if !e.reported {
			lane.Record(env.Elapsed(), "notice", cluster.NameOf(node), tr.id.String(), 0, 0,
				fmt.Sprintf("notify group=%d node=%d inc=%d reason=%s fault=%d", gi, node, inc, n.Reason, e.attribute(gi)))
		}
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
	e.clearFault(nodeKey(node))
	e.inc[node]++
	e.born[incKey{node, e.inc[node]}] = e.now()
	boot := e.c.Nodes[bootstrap].Ref()
	if recover {
		e.c.RestartRecovered(node, boot)
		e.reattachRecovered(node)
		return
	}
	e.c.Restart(node, boot)
}
