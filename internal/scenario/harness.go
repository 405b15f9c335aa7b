package scenario

import (
	"fmt"
	"strings"
	"time"

	"fuse/internal/core"
)

// The invariant harness: one track per group accumulates every failure
// notification delivered to any member incarnation; Report audits the
// run against the paper's guarantees.

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

// track is the harness record for one group.
type track struct {
	spec     GroupSpec
	id       core.GroupID
	attached map[int]int // node -> incarnation the handler is registered on
	counts   map[incKey]int
	notices  []Delivery   // in time order (fold's merge): notices[0] is the trigger
	member   map[int]bool // the group's node set, for fault attribution
}

// nodes returns the group's node indices, root first.
func (tr *track) nodes() []int {
	return append([]int{tr.spec.Root}, tr.spec.Members...)
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

// fold reads the run back from the cluster's telemetry into the tracks
// and the final trace: the setup lines, then every action on this
// engine's timeline and every notice for one of its groups, in the
// registry's (time, lane, FIFO) order - the logical delivery order,
// independent of how many workers executed the run. An earlier engine on
// the same cluster stopped recording at its own Report, before this
// timeline began, and its groups are not this engine's.
func (e *Engine) fold() string {
	var b strings.Builder
	ours := make(map[string]int, len(e.tracks))
	for gi, tr := range e.tracks {
		ours[tr.id.String()] = gi
		fmt.Fprintf(&b, "setup group=%d id=%s root=%d members=%v stores=%v\n",
			gi, tr.id, tr.spec.Root, tr.spec.Members, tr.spec.Stores)
	}
	for _, ev := range e.c.Telemetry.Events() {
		at := ev.At - e.t0
		if gi, mine := ours[ev.Group]; ev.Kind == "notice" && mine {
			// The detail is the handler's own line. A livetopo notice
			// carries no reason, so "reason=" may be empty: it is cut
			// out before the numbers are scanned.
			d := Delivery{Group: gi, At: at}
			head, reason, _ := strings.Cut(ev.Detail, " reason=")
			reason, fault, _ := strings.Cut(reason, " fault=")
			if _, err := fmt.Sscanf(head+" "+fault, "notify group=%d node=%d inc=%d %d", new(int), &d.Node, &d.Inc, &d.Fault); err != nil {
				panic(fmt.Sprintf("scenario: unreadable notice %q: %v", ev.Detail, err))
			}
			d.Reason = core.Reason(reason)
			tr := e.tracks[gi]
			tr.counts[incKey{d.Node, d.Inc}]++
			tr.notices = append(tr.notices, d)
		} else if ev.Kind != "action" || at < 0 {
			continue
		}
		fmt.Fprintf(&b, "t=+%09.3fs  %s\n", at.Seconds(), ev.Detail)
	}
	return b.String()
}

// Report audits every track at the end of the run. Call it once, at a
// fence, after the clock has passed everything the script scheduled;
// from then on the engine records nothing.
func (e *Engine) Report() *Report {
	e.reported = true
	trace := e.fold()
	r := &Report{Name: e.script.Name, Groups: len(e.tracks)}

	expectFail := make(map[int]bool, len(e.script.ExpectFail))
	for _, gi := range e.script.ExpectFail {
		expectFail[gi] = true
	}
	expectSurvive := make(map[int]bool, len(e.script.ExpectSurvive))
	for _, gi := range e.script.ExpectSurvive {
		expectSurvive[gi] = true
	}

	for gi, tr := range e.tracks {
		r.Notices += len(tr.notices)
		r.Deliveries = append(r.Deliveries, tr.notices...)

		// Exactly-once: no (node, incarnation) hears about a group twice,
		// ever - regardless of how the run went.
		for _, n := range tr.nodes() {
			for inc := 0; inc <= e.inc[n]; inc++ {
				if c := tr.counts[incKey{n, inc}]; c > 1 {
					r.Duplicates += c - 1
					r.violationf("group %d: node %d (incarnation %d) notified %d times", gi, n, inc, c)
				}
			}
		}

		// Eligible members: up at the end of the run, with the audited
		// handler still registered on the current incarnation. (A node
		// that restarted without stable storage is a fresh process with
		// no knowledge of the group - the paper exempts it; one that
		// recovered via §3.6 was re-registered and stays audited.)
		var eligible []int
		for _, n := range tr.nodes() {
			if !e.c.Crashed(n) && tr.attached[n] == e.inc[n] {
				eligible = append(eligible, n)
			}
		}

		// A group failed if anyone was ever notified, or any eligible
		// member no longer holds state (its view was torn down).
		failed := len(tr.notices) > 0
		for _, n := range eligible {
			if !e.c.Nodes[n].Groups.HasState(tr.id) {
				failed = true
			}
		}

		if failed {
			r.Failed++
			// No lost notifications, and failure is group-wide: every
			// eligible member heard exactly once and holds no state.
			for _, n := range eligible {
				cnt := tr.counts[incKey{n, e.inc[n]}]
				if cnt == 0 {
					r.Missed++
					r.violationf("group %d failed but node %d was never notified", gi, n)
				}
				if e.c.Nodes[n].Groups.HasState(tr.id) {
					r.violationf("group %d failed but node %d still holds state", gi, n)
				}
			}
			if expectSurvive[gi] {
				r.violationf("group %d failed but the script expected it to survive", gi)
			}
			// Bounded time: every notice lands within the bound of the
			// trigger.
			for _, d := range tr.notices {
				if span := e.triggerSpan(tr, d); span > core.NotificationBound {
					r.violationf("group %d: node %d notified %s after the trigger, past the bound %s", gi, d.Node, span, core.NotificationBound)
				}
			}
			if lat := e.groupLatency(tr); lat > r.MaxLatency {
				r.MaxLatency = lat
			}
		} else {
			r.Survived++
			if expectFail[gi] {
				r.violationf("group %d survived but the script expected it to fail", gi)
			}
		}
	}
	r.Faults = e.faultSchedule()
	r.Trace = trace

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

// faultSchedule summarizes every recorded fault with its attributed
// notifications: Notices counts them across all groups, Latency is the
// span from the fault to the last one.
func (e *Engine) faultSchedule() []Fault {
	out := make([]Fault, len(e.faults))
	for i, f := range e.faults {
		out[i] = Fault{Seq: f.seq, At: f.at, Desc: f.desc}
	}
	for _, tr := range e.tracks {
		for _, n := range tr.notices {
			if n.Fault == 0 {
				continue
			}
			f := &out[n.Fault-1]
			f.Notices++
			if d := n.At - e.since(f.At, n); d > f.Latency {
				f.Latency = d
			}
		}
	}
	return out
}

// groupLatency returns the group's detection latency: the widest span
// from a notification's attributed fault (recorded at delivery by
// Engine.attribute), or from the incarnation's start if that came later,
// to the notification itself. A notification with no attributable fault
// falls back to the group's first notice; a group without notices has
// none.
func (e *Engine) groupLatency(tr *track) time.Duration {
	var lat time.Duration
	for _, n := range tr.notices {
		cause := tr.notices[0].At
		if n.Fault > 0 {
			cause = e.faults[n.Fault-1].at
		}
		if d := n.At - e.since(cause, n); d > lat {
			lat = d
		}
	}
	return lat
}

// triggerSpan is the span the paper bounds for one notice of tr: from
// the group's first notice (the trigger), or from the notified
// incarnation's start if that came later, to the notice.
func (e *Engine) triggerSpan(tr *track, d Delivery) time.Duration {
	return d.At - e.since(tr.notices[0].At, d)
}

// since returns the later of from and the instant the notified
// incarnation began: a node that restarted with its store recovered
// cannot hear of a failure before it is up, so its downtime is no part
// of any span that ends in its notice.
func (e *Engine) since(from time.Duration, d Delivery) time.Duration {
	if born, ok := e.born[incKey{d.Node, d.Inc}]; ok && born > from {
		return born
	}
	return from
}
