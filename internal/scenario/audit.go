package scenario

import (
	"fmt"
	"strings"
	"time"

	"fuse/internal/core"
	"fuse/internal/telemetry"
)

// The audit: a run is its event stream. audit reads back what the engine
// recorded (scenario.go) - the setup, action, fault, restart, notice and
// end events - and checks the run against the paper's guarantees. It
// reads nothing else, no engine and no cluster, so a -trace JSONL alone
// re-audits to the same Report.

type incKey struct{ node, inc int }

// Delivery is one failure-handler invocation: which incarnation of which
// node heard about which group, when, and which fault the engine blames.
type Delivery struct {
	Group     int // index into Script.Groups
	Node, Inc int
	At        time.Duration // timeline-relative, on the node's own clock
	Reason    core.Reason
	Fault     int // Seq of the attributed entry of Report.Faults (0: none)
}

// Report is the outcome of one scenario run.
type Report struct {
	Name string

	Groups   int
	Failed   int // groups whose members were notified / tore down
	Survived int // groups intact everywhere with zero notices

	Notices    int // total handler invocations observed
	Duplicates int // invocations beyond the first for one (node, incarnation)
	Missed     int // eligible members of failed groups never notified

	// MaxLatency is the widest observed span from a fault to the last
	// notification attributed to it within one group.
	MaxLatency time.Duration

	// Faults is the full fault schedule in seq order, with per-fault
	// attribution: how many notifications each fault caused and the span
	// from the fault to the last of them. Overlapping fault trains (a
	// loss ramp during churn) each keep their own latency instead of
	// sharing "the latest fault before the first notice".
	Faults []Fault

	// Deliveries is every handler invocation behind Notices, group by
	// group in delivery order: what a driver reads latencies from.
	Deliveries []Delivery

	// Violations lists every invariant breach; empty means the run
	// upheld exactly-once delivery, no lost notifications, consistency,
	// the script's expectations, and the paper's bounded time
	// (core.NotificationBound from the trigger to every notice).
	Violations []string

	// Trace is the byte-deterministic event log: setup lines, every
	// applied action, every churn flip, every delivered notification.
	Trace string
}

// Fault is one entry of the report's fault schedule.
type Fault struct {
	Seq  int           // 1-based position in the schedule
	At   time.Duration // timeline-relative start
	Desc string        // the action that started the fault

	// Notices counts the notifications attributed to this fault;
	// Latency is the span from the fault to the last of them (zero when
	// the fault caused none - it was masked, healed in time, or felled
	// nothing).
	Notices int
	Latency time.Duration
}

// OK reports whether the run upheld every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Expected is how many notifications the run owed: one per (node
// incarnation, group) that heard, plus every eligible member that did not.
func (r *Report) Expected() int { return r.Notices - r.Duplicates + r.Missed }

// FaultTable renders the per-fault attribution (faults that caused at
// least one notification) in a stable format.
func (r *Report) FaultTable() string {
	var b strings.Builder
	for _, f := range r.Faults {
		if f.Notices == 0 {
			continue
		}
		fmt.Fprintf(&b, "fault #%d t=+%09.3fs %-40s notices=%d latency=%s\n",
			f.Seq, f.At.Seconds(), f.Desc, f.Notices, f.Latency)
	}
	return b.String()
}

// Stats renders the report's statistics (without the trace) in a stable
// format; determinism tests compare it across runs, experiments print it.
func (r *Report) Stats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: groups=%d failed=%d survived=%d notices=%d duplicates=%d missed=%d max_latency=%s\n",
		r.Name, r.Groups, r.Failed, r.Survived, r.Notices, r.Duplicates, r.Missed, r.MaxLatency)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	return b.String()
}

func (r *Report) violationf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// history is one engine's run as its event stream records it.
type history struct {
	t0           time.Duration // the timeline's start: the last setup event's instant
	setup, trace strings.Builder
	notices      [][]Delivery             // per group, in stream order: [g][0] is the trigger
	faults       []Fault                  // the fault schedule, in seq order
	inc          map[int]int              // node -> its latest incarnation
	born         map[incKey]time.Duration // the instant each restarted incarnation began
	fresh        map[int]bool             // the node's latest restart was without its store
	up           map[int]bool             // node -> up when the report was taken
	held         map[[2]int]bool          // (group, node) -> it held the group's state then
}

// read folds the stream's last run: the one whose len(s.Groups) setup
// events come last. An earlier engine on the same cluster recorded
// nothing after its Report, before this run's first setup, so the run is
// every event from that setup on, in the registry's (time, lane, FIFO)
// order - the logical order, independent of how many workers executed
// the run. Notices delivered during setup are part of it.
func read(s Script, events []telemetry.Event) *history {
	r := &history{notices: make([][]Delivery, len(s.Groups)), inc: map[int]int{},
		born: map[incKey]time.Duration{}, fresh: map[int]bool{}, up: map[int]bool{}, held: map[[2]int]bool{}}
	start, setups := len(events), 0
	for i := len(events) - 1; i >= 0 && setups < len(s.Groups); i-- {
		if events[i].Kind == "setup" {
			if setups == 0 {
				r.t0 = events[i].At
			}
			start, setups = i, setups+1
		}
	}
	for _, ev := range events[start:] {
		at := ev.At - r.t0
		switch ev.Kind {
		case "setup":
			r.setup.WriteString(ev.Detail + "\n")
		case "fault":
			f := Fault{At: at}
			seq, desc, _ := strings.Cut(ev.Detail, " ")
			scan(seq, "fault=%d", &f.Seq)
			f.Desc = desc
			r.faults = append(r.faults, f)
		case "restart":
			var node, inc int
			var recovered bool
			scan(ev.Detail, "restart node=%d inc=%d recover=%t", &node, &inc, &recovered)
			r.inc[node], r.born[incKey{node, inc}], r.fresh[node] = inc, at, !recovered
		case "end":
			var gi, node int
			var up, state bool
			scan(ev.Detail, "end group=%d node=%d up=%t state=%t", &gi, &node, &up, &state)
			r.up[node], r.held[[2]int{gi, node}] = up, state
		case "notice":
			// The detail is the handler's own line. A livetopo notice
			// carries no reason, so "reason=" may be empty: it is cut
			// out before the numbers are scanned.
			d := Delivery{At: at}
			head, reason, _ := strings.Cut(ev.Detail, " reason=")
			reason, fault, _ := strings.Cut(reason, " fault=")
			scan(head+" "+fault, "notify group=%d node=%d inc=%d %d", &d.Group, &d.Node, &d.Inc, &d.Fault)
			d.Reason = core.Reason(reason)
			r.notices[d.Group] = append(r.notices[d.Group], d)
			fallthrough
		case "action":
			fmt.Fprintf(&r.trace, "t=%+010.3fs  %s\n", at.Seconds(), ev.Detail)
		}
	}
	return r
}

// scan parses an engine event's detail; one the engine did not write
// panics.
func scan(detail, format string, args ...any) {
	if _, err := fmt.Sscanf(detail, format, args...); err != nil {
		panic(fmt.Sprintf("scenario: unreadable event %q: %v", detail, err))
	}
}

// audit checks the stream's last run (read) against the script: the
// exactly-once, no-lost-notification, consistency and expectation
// audits, the paper's bounded time, the latencies and the per-fault
// attribution.
func audit(s Script, events []telemetry.Event) *Report {
	h := read(s, events)
	r := &Report{Name: s.Name, Groups: len(s.Groups), Faults: h.faults, Trace: h.setup.String() + h.trace.String()}

	expectFail := make(map[int]bool, len(s.ExpectFail))
	for _, gi := range s.ExpectFail {
		expectFail[gi] = true
	}
	expectSurvive := make(map[int]bool, len(s.ExpectSurvive))
	for _, gi := range s.ExpectSurvive {
		expectSurvive[gi] = true
	}

	for gi, g := range s.Groups {
		notices := h.notices[gi]
		r.Notices += len(notices)
		r.Deliveries = append(r.Deliveries, notices...)
		counts := make(map[incKey]int)
		for _, d := range notices {
			counts[incKey{d.Node, d.Inc}]++
		}

		// Exactly-once: no (node, incarnation) hears about a group twice,
		// ever - regardless of how the run went.
		for _, n := range g.nodes() {
			for inc := 0; inc <= h.inc[n]; inc++ {
				if c := counts[incKey{n, inc}]; c > 1 {
					r.Duplicates += c - 1
					r.violationf("group %d: node %d (incarnation %d) notified %d times", gi, n, inc, c)
				}
			}
		}

		// Eligible members: up at the end of the run, with the audited
		// handler still registered on the current incarnation. (A node
		// that restarted without stable storage is a fresh process with
		// no knowledge of the group - the paper exempts it; one that
		// recovered via §3.6 was re-registered and stays audited.) A
		// group failed if anyone was ever notified, or any eligible
		// member no longer holds state (its view was torn down).
		var eligible []int
		failed := len(notices) > 0
		for _, n := range g.nodes() {
			if h.up[n] && !h.fresh[n] {
				eligible = append(eligible, n)
				failed = failed || !h.held[[2]int{gi, n}]
			}
		}

		if failed {
			r.Failed++
			// No lost notifications, and failure is group-wide: every
			// eligible member heard exactly once and holds no state.
			for _, n := range eligible {
				if counts[incKey{n, h.inc[n]}] == 0 {
					r.Missed++
					r.violationf("group %d failed but node %d was never notified", gi, n)
				}
				if h.held[[2]int{gi, n}] {
					r.violationf("group %d failed but node %d still holds state", gi, n)
				}
			}
			if expectSurvive[gi] {
				r.violationf("group %d failed but the script expected it to survive", gi)
			}
			// Bounded time: every notice lands within the bound of the
			// trigger.
			for _, d := range notices {
				if span := h.triggerSpan(d); span > core.NotificationBound {
					r.violationf("group %d: node %d notified %s after the trigger, past the bound %s", gi, d.Node, span, core.NotificationBound)
				}
			}
			// Detection latency: the widest span from a notice's
			// attributed fault (the trigger when it has none) to it.
			for _, d := range notices {
				cause := notices[0].At
				if d.Fault > 0 {
					cause = h.faults[d.Fault-1].At
				}
				r.MaxLatency = max(r.MaxLatency, d.At-h.since(cause, d))
			}
		} else {
			r.Survived++
			if expectFail[gi] {
				r.violationf("group %d survived but the script expected it to fail", gi)
			}
		}
	}

	// The fault schedule's attribution: how many notices each fault
	// caused, and the span from it to the last of them.
	for _, d := range r.Deliveries {
		if d.Fault > 0 {
			f := &r.Faults[d.Fault-1]
			f.Notices++
			f.Latency = max(f.Latency, d.At-h.since(f.At, d))
		}
	}
	return r
}

// triggerSpan is the span the paper bounds for a notice: from its
// group's first notice (the trigger), or from the notified incarnation's
// start if that came later, to the notice.
func (r *history) triggerSpan(d Delivery) time.Duration {
	return d.At - r.since(r.notices[d.Group][0].At, d)
}

// since returns the later of from and the instant the notified
// incarnation began: a node that restarted with its store recovered
// cannot hear of a failure before it is up, so its downtime is no part
// of any span that ends in its notice.
func (r *history) since(from time.Duration, d Delivery) time.Duration {
	if born, ok := r.born[incKey{d.Node, d.Inc}]; ok && born > from {
		return born
	}
	return from
}
