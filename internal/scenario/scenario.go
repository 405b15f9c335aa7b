// Package scenario is a deterministic fault-injection engine for
// simulated FUSE deployments: it compiles a declarative schedule of
// failure events - crashes, restarts (with or without §3.6 stable
// storage), partitions and selective heals, intransitive-connectivity
// blocks, loss ramps, Poisson churn - onto the eventsim virtual clock,
// driving the simnet fault hooks and the cluster's node lifecycle, and
// checks the paper's delivery guarantees over the whole run by auditing
// what the run recorded.
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
// A run is recorded once, in the cluster's telemetry, like everything
// else, and at any trace level: each applied action is an "action" event
// on the control lane and each failure-handler call a "notice" event on
// the node's lane; the engine adds a "setup" event per group created, a
// "fault" event per fault it attributes notices to, a "restart" event per
// restarted node and, at Report, an "end" event per group member. The
// audit reads that stream and nothing else - merged in the registry's
// (time, lane) order - into the trace and the Report, so a -trace JSONL
// carries the engine's events beside the protocol's and re-audits to the
// same Report.
//
// The paper's failure model (§3: crashes, partitions, intransitive
// connectivity, message loss) maps onto Actions one-to-one; Presets
// packages the recurring drills (churn §7.4, partition/heal, restart
// §3.6, intransitive §3.4) as ~20-line scripts.
package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fuse/internal/cluster"
	"fuse/internal/core"
	"fuse/internal/telemetry"
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
// The engine keeps only what it needs to act - group ids, incarnations,
// the fault list it attributes notices to, the churn and ramp processes -
// and mutates it only at fences: actions run as control-lane events.
// What failure handlers observe from node context goes onto the node's
// own telemetry lane, which only that node's shard writes; Report reads
// the run back through the registry's merge, so the report and trace are
// byte-identical at every worker count.
type Engine struct {
	c      *cluster.Cluster
	script Script
	rng    *rand.Rand

	reported bool            // Report was taken: record nothing more
	ids      []core.GroupID  // per script group
	inc      []int           // per-node incarnation counter
	faults   []faultRec      // every recorded fault, in schedule order (seq = index+1)
	active   map[string]bool // faulting entities whose fault is ongoing
	churns   []*churnProc    // every started churn process; ChurnStop halts them all
	ramps    []*rampProc     // every started loss ramp; ClearLoss/HealAll cancel them
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
	e := &Engine{c: c, script: s, rng: c.Sim.Rand(), inc: make([]int, len(c.Nodes)), active: make(map[string]bool)}
	if err := e.setup(); err != nil {
		return nil, err
	}
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
// setup event (the trace's setup line) and attaching failure handlers on
// the root and all members per group. The last group's setup event is
// the timeline's start.
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
		e.ids = append(e.ids, id)
		e.record("setup", "", id.String(), fmt.Sprintf("setup group=%d id=%s root=%d members=%v stores=%v", gi, id, g.Root, g.Members, g.Stores))
		for _, n := range g.nodes() {
			e.attach(gi, n)
		}
	}
	return nil
}

// nodes returns the group's node indices, root first.
func (g GroupSpec) nodes() []int { return append([]int{g.Root}, g.Members...) }

// has reports whether node n is in the group.
func (g GroupSpec) has(n int) bool { return n == g.Root || slices.Contains(g.Members, n) }

// record appends one engine event at the present instant. Actions and
// engine lifecycle steps run at fences, so lane 0 is theirs.
func (e *Engine) record(kind, node, group, detail string) {
	if !e.reported {
		e.c.Telemetry.Lane(0).Record(e.c.Sim.Elapsed(), kind, node, group, 0, 0, detail)
	}
}

// tracef records an action event, the trace line's text as its detail.
func (e *Engine) tracef(format string, args ...any) {
	e.record("action", "", "", fmt.Sprintf(format, args...))
}

// faultRec is one recorded fault, for per-fault latency attribution. A
// fault is an interval on one faulting entity - a down node, a lossy or
// blocked link, a partition cut - identified by a key ("crash:3",
// "loss:2-9", ...): repeated degradations of an entity whose fault is
// still ongoing (a loss ramp stepping past the breaking threshold again,
// a churn crash of an already-counted node) extend the existing record
// instead of starting a new one, so attribution lands on the step that
// actually broke the entity rather than the latest event before a
// notification. A clearing action (restart, heal, unblock, loss dropping
// below the threshold) ends the interval; a later fault on the same key
// starts a fresh record with its own seq. Its seq, instant and the
// action that started it are its fault event's.
type faultRec struct {
	nodes []int // nodes the fault touches directly
	group int   // group index when the action names one (Signal), -1 otherwise
}

// fault records the present instant as the start of a fault on entity
// key, unless a fault on that entity is already ongoing.
func (e *Engine) fault(key, desc string, nodes ...int) {
	if !e.active[key] {
		e.active[key] = true
		e.addFault(-1, desc, nodes)
	}
}

// clearFault ends the ongoing fault on entity key, if any. The record
// stays in the schedule as it is (a cleared fault can still be the cause
// of a notification delivered after the clear); only the dedup ends, so
// a later fault on the same entity gets its own record.
func (e *Engine) clearFault(key string) { delete(e.active, key) }

// addFault appends a fault to the schedule - tied to group, or to none
// when group is -1 - and records its fault event: seq and description.
// A Signal's fault never dedups: signals are instantaneous.
func (e *Engine) addFault(group int, desc string, nodes []int) {
	e.faults = append(e.faults, faultRec{nodes: nodes, group: group})
	e.record("fault", "", "", fmt.Sprintf("fault=%d %s", len(e.faults), desc))
}

// attribute picks the fault that caused a notification for group gi
// delivered at the present instant: the latest-started fault that names
// the group or touches one of its nodes; failing that, the latest-
// started fault of any kind (a delegate fault can fell a group without
// touching its members). Returns the fault's seq, or 0 when no fault has
// been recorded yet (e.g. a failed creation).
func (e *Engine) attribute(gi int) int {
	ours, any, member := 0, len(e.faults), e.script.Groups[gi].has
	for i, f := range e.faults {
		if f.group == gi || slices.ContainsFunc(f.nodes, member) {
			ours = i + 1
		}
	}
	if ours == 0 {
		return any
	}
	return ours
}

// attach registers a failure handler for group gi on node's current
// incarnation. The handler runs in the node's event context - possibly on
// its shard's worker goroutine - so it records a notice event on the lane
// the node's transport hands it, at the node-local clock, and consults
// engine state that mutates exclusively at fences (the fault schedule).
// Attribution happens here, at delivery: the merge sorts a Signal's
// synchronous notice after every same-instant control-lane event, faults
// applied after the signal included, so attribution recomputed from the
// stream could change.
func (e *Engine) attach(gi, node int) {
	id, inc := e.ids[gi], e.inc[node]
	env := e.c.Nodes[node].Env
	lane := telemetry.FromEnv(env)
	e.c.Nodes[node].Groups.RegisterFailureHandler(func(n core.Notice) {
		if !e.reported {
			lane.Record(env.Elapsed(), "notice", cluster.NameOf(node), id.String(), 0, 0,
				fmt.Sprintf("notify group=%d node=%d inc=%d reason=%s fault=%d", gi, node, inc, n.Reason, e.attribute(gi)))
		}
	}, id)
}

// restartNode revives node (bumping its incarnation) with or without the
// §3.6 stable-storage recovery path, and records a restart event. The
// node's down-fault ends here: a later crash of the same node is a new
// fault with its own seq. A recovered node's new incarnation resumes
// observing every group it belongs to; one restarted without storage
// deliberately is not re-registered - the fresh process has no knowledge
// of the group, exactly the paper's recovery model.
func (e *Engine) restartNode(node, bootstrap int, recover bool) {
	e.clearFault(nodeKey(node))
	e.inc[node]++
	e.record("restart", cluster.NameOf(node), "", fmt.Sprintf("restart node=%d inc=%d recover=%t", node, e.inc[node], recover))
	boot := e.c.Nodes[bootstrap].Ref()
	if !recover {
		e.c.Restart(node, boot)
		return
	}
	e.c.RestartRecovered(node, boot)
	for gi, g := range e.script.Groups {
		if g.has(node) {
			e.attach(gi, node)
		}
	}
}

// Report records an end event per group member - whether it is up and
// still holds the group's state - and audits the run. Call it once, at a
// fence, after the clock has passed everything the script scheduled;
// from then on the engine records nothing.
func (e *Engine) Report() *Report {
	for gi, g := range e.script.Groups {
		for _, n := range g.nodes() {
			e.record("end", cluster.NameOf(n), e.ids[gi].String(), fmt.Sprintf("end group=%d node=%d up=%t state=%t",
				gi, n, !e.c.Crashed(n), e.c.Nodes[n].Groups.HasState(e.ids[gi])))
		}
	}
	e.reported = true
	r := audit(e.script, e.c.Telemetry.Events())

	// Detection latency (fault → last attributed delegate notice) as a
	// telemetry histogram, observed on the control lane at audit time —
	// the same fence discipline as the trace's ordering, so sharded runs
	// stay byte-identical across worker counts. It is a report, not the
	// audit: it runs from the fault, detection before the trigger
	// included. The audited span is core.NotificationBound, whose
	// detection term is the aggregated-deadline fairness bound
	// (linkindex.go).
	reg := e.c.Telemetry
	h := reg.Histogram("scenario_detection_latency_ms",
		"per-fault detection latency: fault to last attributed notice")
	for _, f := range r.Faults {
		if f.Notices > 0 {
			h.Observe(reg.Lane(0), f.Latency)
		}
	}
	return r
}
