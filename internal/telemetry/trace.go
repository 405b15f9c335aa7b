package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// Level gates trace-event emission. The default is TraceOff: metric
// writes stay on but Emit is a nil check. TraceProto records protocol
// events only (group create/install, hash mismatch, link timeout,
// notification trigger→delivery) — these never fire in steady state, so
// the ping cycle stays 0 allocs/op with tracing at TraceProto.
// TraceVerbose adds per-ping/ack events and is for short diagnostic
// runs only.
type Level int32

const (
	TraceOff Level = iota
	TraceProto
	TraceVerbose
)

// EnableTrace sets the trace level. Call before the run (or at a
// fence); the level is read atomically at every emission site.
func (r *Registry) EnableTrace(l Level) { r.level.Store(int32(l)) }

// Tracing reports whether events at the given level are being
// recorded. Call sites gate on this before formatting event fields so
// a disabled trace costs one atomic load and nothing else.
func (l *Lane) Tracing(min Level) bool {
	return l != nil && Level(l.reg.level.Load()) >= min
}

// Event is one structured protocol-trace record. At is the owning
// clock's offset from the registry epoch: virtual time in sim, the
// node's Elapsed live. Span/Parent link notification trigger→delivery
// chains: the trigger event allocates a span ID, notification messages
// carry it across the wire, and each delivery records it as Parent.
type Event struct {
	At     time.Duration
	Lane   int
	Kind   string
	Node   string
	Group  string
	Span   uint64
	Parent uint64
	Detail string
}

// Emit is Record for an instant, gated on the trace level: at TraceOff
// it records nothing, and otherwise it records at's offset from the
// registry epoch.
func (l *Lane) Emit(at time.Time, kind, node, group string, span, parent uint64, detail string) {
	if l.Tracing(TraceProto) {
		l.Record(at.Sub(l.reg.epoch), kind, node, group, span, parent, detail)
	}
}

// Record appends one event to the lane's buffer at any trace level, at
// offset at from the registry epoch: the owning clock's reading
// (Env.Elapsed), taken by the caller. Protocol sites gate on Tracing
// themselves, before building the fields; the scenario engine's actions
// and notices, which its audit folds, are recorded at every level.
func (l *Lane) Record(at time.Duration, kind, node, group string, span, parent uint64, detail string) {
	if l == nil {
		return
	}
	l.events = append(l.events, Event{
		At:     at,
		Lane:   l.id,
		Kind:   kind,
		Node:   node,
		Group:  group,
		Span:   span,
		Parent: parent,
		Detail: detail,
	})
}

// NewSpan allocates a deterministic span ID: the lane index tags the
// high bits and a per-lane sequence the low bits, so IDs are unique
// across lanes and reproducible for a given shard count (the per-lane
// event order is deterministic, exactly like eventsim's logical order).
// Returns 0 — "no span" — when tracing is off, so untraced runs carry
// zeroes on the wire.
func (l *Lane) NewSpan() uint64 {
	if l == nil || Level(l.reg.level.Load()) == TraceOff {
		return 0
	}
	l.spanSeq++
	return uint64(l.id+1)<<32 | l.spanSeq
}

// Events returns every lane's buffer in (timestamp, lane, FIFO) order —
// the order the scenario engine's trace and audit fold — yielding a
// sequence that is byte-identical across worker counts for a fixed
// shard count.
func (r *Registry) Events() []Event {
	var out []Event
	for _, l := range r.lanes {
		out = append(out, l.events...)
	}
	slices.SortStableFunc(out, func(x, y Event) int {
		return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Lane, y.Lane))
	})
	return out
}

// traceLine is the JSONL schema (field order is the struct order, so
// output is byte-deterministic).
type traceLine struct {
	T      float64 `json:"t"`
	Lane   int     `json:"lane"`
	Kind   string  `json:"kind"`
	Node   string  `json:"node,omitempty"`
	Group  string  `json:"group,omitempty"`
	Span   uint64  `json:"span,omitempty"`
	Parent uint64  `json:"parent,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// WriteTrace writes the merged event stream as JSON Lines: one event
// per line, `t` in seconds since the epoch. The output is deterministic
// and diff-able across runs (and convertible to the Chrome trace-event
// format; see README "Observability").
func (r *Registry) WriteTrace(w io.Writer) error {
	for _, e := range r.Events() {
		b, err := json.Marshal(traceLine{
			T:      e.At.Seconds(),
			Lane:   e.Lane,
			Kind:   e.Kind,
			Node:   e.Node,
			Group:  e.Group,
			Span:   e.Span,
			Parent: e.Parent,
			Detail: e.Detail,
		})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
