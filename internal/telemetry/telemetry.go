// Package telemetry is the deterministic observability layer shared by
// the simulated and live deployments: a shard-striped metrics registry
// (counters, gauges, power-of-two-millisecond histograms) plus a
// structured protocol-event trace with causal span IDs.
//
// A Registry owns one Lane per event-scheduler lane (lane 0 is the
// control lane; lanes 1..S map to eventsim shards), and every hot-path
// write is an indexed atomic add into that lane's preallocated slot slab
// — no allocation, no locks, no cross-lane contention. Snapshots merge
// lanes by summation, which is
// order-independent, so a sharded run's metric snapshot is
// byte-identical across worker counts (the lane layout is a function of
// the shard count only, exactly like the logical event order).
//
// Timestamps are offsets from the registry epoch, read from the owning
// clock (transport.Env.Elapsed): virtual time in simulation (epoch =
// eventsim.Epoch) and a live node's monotonic clock (epoch = the
// wall-clock instant the node's Elapsed counts from). Instrumented
// packages resolve their Lane once at stack construction via FromEnv; a
// nil Lane is valid everywhere and makes every write a no-op, so
// telemetry-free environments (unit-test stacks built directly on
// simnet) pay a single nil check.
//
// Metric registration is deduplicated by name: cluster.Restart rebuilds
// protocol stacks mid-run at fences, and re-registering resolves to the
// existing slots. Registration must precede concurrent use (it does:
// stacks are built at fences in sim and before traffic in live).
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSlots bounds a lane's slot slab. Slabs are allocated eagerly so a
// slot's address never changes, and a simulation holds one per shard, so
// the slab is sized to use: the largest registry in the repository (the
// churn preset's: the overlay's and core's metrics plus the scenario
// engine's histogram; histograms take numBuckets+2 slots each) takes 74
// slots, and TestSlabFitsTheLargestRegistries fails if one takes over a
// quarter of the slab.
const maxSlots = 512

// numBuckets is the histogram bucket count: bucket i holds observations
// whose truncated-millisecond value has bit length i (upper bound 2^i
// ms), so bucket 27 tops out above 37 hours of virtual time.
const numBuckets = 28

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metricDef is one registered name. A slot metric's value lives in the
// lanes' slabs from slot on; a collector (fn set) takes no slot: it reads
// a counter its owner already maintains (simnet's per-slot delivery
// counters, tcpnet's connection-table sizes, eventsim's executed-event
// count) at snapshot/scrape time only, so the hot path counts nothing
// twice.
type metricDef struct {
	name string
	help string
	kind kind
	slot uint32
	fn   func() int64
}

// Registry owns the lanes, the metric name table, and the trace.
type Registry struct {
	epoch time.Time
	lanes []*Lane

	mu       sync.Mutex
	defs     []metricDef
	byName   map[string]int
	nextSlot uint32

	level atomic.Int32 // trace Level
}

// Lane is one stripe: a slot slab plus a trace-event buffer, written by
// exactly one scheduler worker at a time (the same ownership discipline
// as eventsim lanes). All methods are safe on a nil receiver.
type Lane struct {
	reg   *Registry
	id    int
	slots []uint64

	events  []Event
	spanSeq uint64
}

// New creates a registry with the given number of lanes. Pass the
// owning clock's epoch (eventsim.Epoch in sim, the instant a live
// node's Elapsed counts from) and 1 lane for a live node or 1+shards
// for a simulation.
func New(epoch time.Time, lanes int) *Registry {
	if lanes < 1 {
		lanes = 1
	}
	r := &Registry{epoch: epoch, byName: make(map[string]int)}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, &Lane{reg: r, id: i, slots: make([]uint64, maxSlots)})
	}
	return r
}

// Lane returns stripe i (0 = control lane). Out-of-range lanes
// fall back to lane 0 so callers never index past the stripe set.
func (r *Registry) Lane(i int) *Lane {
	if r == nil {
		return nil
	}
	if i < 0 || i >= len(r.lanes) {
		return r.lanes[0]
	}
	return r.lanes[i]
}

// Epoch is the clock origin trace timestamps are relative to.
func (r *Registry) Epoch() time.Time { return r.epoch }

// Registry returns the owning registry (nil for a nil lane).
func (l *Lane) Registry() *Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// LaneProvider is the optional interface a transport node implements to
// hand its protocol stack the stripe it should write to. simnet nodes
// return the lane matching their event shard; tcpnet nodes return lane
// 0 of the process-wide registry.
type LaneProvider interface {
	TelemetryLane() *Lane
}

// FromEnv resolves the telemetry lane behind a transport.Env (or any
// value). Returns nil — meaning "telemetry off" — when the env does not
// provide one.
func FromEnv(v any) *Lane {
	if p, ok := v.(LaneProvider); ok {
		return p.TelemetryLane()
	}
	return nil
}

// register adds name, or resolves it when it is registered already: a
// name is one metric of one kind, slot metric or collector. A collector's
// width is 0, and re-registering one replaces its function (a restart
// rebuilds the stack that owns it).
func (r *Registry) register(name, help string, k kind, width uint32, fn func() int64) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		d := &r.defs[i]
		if d.kind != k || (d.fn == nil) != (fn == nil) {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different kind", name))
		}
		d.fn = fn
		return d.slot
	}
	if r.nextSlot+width > maxSlots {
		panic("telemetry: slot slab exhausted")
	}
	slot := r.nextSlot
	r.nextSlot += width
	r.byName[name] = len(r.defs)
	r.defs = append(r.defs, metricDef{name: name, help: help, kind: k, slot: slot, fn: fn})
	return slot
}

// Counter registers (or resolves) a monotonically increasing counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{slot: r.register(name, help, kindCounter, 1, nil), ok: true}
}

// Histogram registers (or resolves) a duration histogram with
// power-of-two-millisecond buckets.
func (r *Registry) Histogram(name, help string) Histogram {
	return Histogram{slot: r.register(name, help, kindHistogram, numBuckets+2, nil), ok: true}
}

// CounterFunc registers a snapshot-time collector rendered as a
// counter. The function must be cheap and safe to call from the scrape
// goroutine; in sim it only runs at fences.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, kindCounter, 0, fn)
}

// GaugeFunc registers a snapshot-time collector rendered as a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, kindGauge, 0, fn)
}

// Counter is a handle to one registered counter; the lane is passed per
// write so one handle serves every node in a deployment.
type Counter struct {
	slot uint32
	ok   bool
}

// Add increments the counter by n on the given lane. No-op for a nil
// lane or the zero handle; never allocates.
func (c Counter) Add(l *Lane, n uint64) {
	if l == nil || !c.ok {
		return
	}
	atomic.AddUint64(&l.slots[c.slot], n)
}

// Inc adds 1.
func (c Counter) Inc(l *Lane) { c.Add(l, 1) }

// Histogram is a handle to one registered duration histogram.
type Histogram struct {
	slot uint32
	ok   bool
}

// Observe records one duration: a bucket increment, a count increment,
// and a nanosecond sum — three atomic adds, no allocation.
func (h Histogram) Observe(l *Lane, d time.Duration) {
	if l == nil || !h.ok {
		return
	}
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Millisecond))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	atomic.AddUint64(&l.slots[h.slot+uint32(b)], 1)
	atomic.AddUint64(&l.slots[h.slot+numBuckets], 1)
	atomic.AddUint64(&l.slots[h.slot+numBuckets+1], uint64(d))
}

// metricVal is one merged metric in a snapshot.
type metricVal struct {
	name string
	help string
	kind kind
	// counter/gauge value, or nil for histograms
	val int64
	// histogram payload
	buckets [numBuckets]uint64
	count   uint64
	sum     time.Duration
}

// snapshot merges all lanes (and reads the collectors) into a
// name-sorted list.
func (r *Registry) snapshot() []metricVal {
	r.mu.Lock()
	defs := append([]metricDef(nil), r.defs...)
	r.mu.Unlock()

	out := make([]metricVal, 0, len(defs))
	for _, d := range defs {
		mv := metricVal{name: d.name, help: d.help, kind: d.kind}
		switch {
		case d.fn != nil:
			mv.val = d.fn()
		case d.kind == kindHistogram:
			for _, l := range r.lanes {
				for i := 0; i < numBuckets; i++ {
					mv.buckets[i] += atomic.LoadUint64(&l.slots[d.slot+uint32(i)])
				}
				mv.count += atomic.LoadUint64(&l.slots[d.slot+numBuckets])
				mv.sum += time.Duration(atomic.LoadUint64(&l.slots[d.slot+numBuckets+1]))
			}
		default:
			var sum uint64
			for _, l := range r.lanes {
				sum += atomic.LoadUint64(&l.slots[d.slot])
			}
			mv.val = int64(sum)
		}
		out = append(out, mv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// bucketBoundMS is bucket i's upper bound in milliseconds (2^i; the
// last bucket is unbounded).
func bucketBoundMS(i int) uint64 { return uint64(1) << uint(i) }

// RenderTable renders the merged snapshot as a fixed-width,
// byte-deterministic table — the `fusesim -metrics` end-of-run surface
// and the final snapshot fused flushes to stderr on shutdown.
func (r *Registry) RenderTable() string {
	var b strings.Builder
	b.WriteString("metric                                             value\n")
	for _, mv := range r.snapshot() {
		if mv.kind == kindHistogram {
			fmt.Fprintf(&b, "%-50s count=%d sum=%s", mv.name, mv.count, mv.sum)
			for i := 0; i < numBuckets; i++ {
				if mv.buckets[i] == 0 {
					continue
				}
				fmt.Fprintf(&b, " le%dms=%d", bucketBoundMS(i), mv.buckets[i])
			}
			b.WriteByte('\n')
			continue
		}
		fmt.Fprintf(&b, "%-50s %d\n", mv.name, mv.val)
	}
	return b.String()
}

// RenderProm renders the merged snapshot in the Prometheus text
// exposition format (histograms with cumulative le buckets in seconds).
func (r *Registry) RenderProm() string {
	var b strings.Builder
	for _, mv := range r.snapshot() {
		typ := "counter"
		if mv.kind == kindGauge {
			typ = "gauge"
		}
		if mv.kind == kindHistogram {
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", mv.name, mv.help, mv.name, typ)
		if mv.kind != kindHistogram {
			fmt.Fprintf(&b, "%s %d\n", mv.name, mv.val)
			continue
		}
		var cum uint64
		for i := 0; i < numBuckets-1; i++ {
			cum += mv.buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", mv.name, float64(bucketBoundMS(i))/1000, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", mv.name, mv.count)
		fmt.Fprintf(&b, "%s_sum %g\n", mv.name, mv.sum.Seconds())
		fmt.Fprintf(&b, "%s_count %d\n", mv.name, mv.count)
	}
	return b.String()
}

// Value returns a metric's merged value (counters/gauges/collectors),
// or histogram count for histograms; ok=false if the name is unknown.
// Test and audit surface, not a hot path.
func (r *Registry) Value(name string) (int64, bool) {
	for _, mv := range r.snapshot() {
		if mv.name == name {
			if mv.kind == kindHistogram {
				return int64(mv.count), true
			}
			return mv.val, true
		}
	}
	return 0, false
}

// HistogramValue returns a histogram's merged observation count and
// duration sum; ok=false if the name is unknown or not a histogram.
// Test and audit surface, not a hot path.
func (r *Registry) HistogramValue(name string) (count uint64, sum time.Duration, ok bool) {
	for _, mv := range r.snapshot() {
		if mv.name == name && mv.kind == kindHistogram {
			return mv.count, mv.sum, true
		}
	}
	return 0, 0, false
}
