package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"fuse/internal/stats"
)

// run carries one workload execution: its inputs, the samples the timed
// window collects, the correctness tally and, in a traced run, the spans.
type run struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	breakCheck bool // test hook: the workload's main check reports one bogus failure

	tr tracer

	attempted, failed int
	problems          []string

	setups *stats.Sample // seconds per set-up
	ops    *stats.Sample // wall ms per op
	rates  *stats.Sample // work per wall second, one sample per untraced batch
	ratesT *stats.Sample // same for the traced batches of a traced run

	work    float64 // work units inside the timed window
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	heapMB  float64 // live heap when the window closed, after a collection

	detail map[string]float64
	layer  map[string]float64
	digest string
}

func newRun(workload string, seed int64, seconds float64, trace bool) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		tr:     tracer{t0: time.Now(), on: trace},
		setups: stats.NewSample(8),
		// Room for every op of a run up front, so that growing the
		// sample does not show up in allocs_per_work.
		ops:    stats.NewSample(1 << 17),
		rates:  stats.NewSample(1 << 10),
		ratesT: stats.NewSample(1 << 10),
		detail: make(map[string]float64),
		layer:  make(map[string]float64),
	}
}

// check counts one attempted operation and, when it did not hold, one
// failed one. Every create, every expected notification, every cycle and
// every audit goes through here, so failed ÷ attempted is the run's
// failure ratio.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setup times one set-up. Workloads whose set-up is short run it several
// times (tearing the previous one down); setup_s is the fastest.
func (r *run) setup(fn func()) {
	defer r.span("bench", "setup").end()
	t := time.Now()
	fn()
	r.setups.Add(time.Since(t).Seconds())
}

// --- the timed window ---

// window is the timed part of a run: batches are measured until the
// run's -seconds are used up. In a traced run every second batch records
// spans and protocol events and the others do not, which gives the
// tracing overhead from one process on one set of inputs.
type window struct {
	r        *run
	setProto func(on bool)
	start    time.Time
	cpu0     time.Duration
	mallocs0 uint64
	n        int
	tracing  bool
}

// measure opens the window. setProto, when not nil, switches the
// deployment's protocol-event trace on and off at batch boundaries.
func (r *run) measure(setProto func(on bool)) *window {
	r.tr.on = false // the first batch is untraced; next flips from there
	return &window{r: r, setProto: setProto, mallocs0: mallocs(), cpu0: cpuTime(), start: time.Now()}
}

// next reports whether another batch fits in the window and, in a traced
// run, flips tracing for it.
func (w *window) next() bool {
	// At least one batch, and in a traced run one of each kind, however
	// short the window.
	enough := w.n >= 1 && (!w.r.trace || w.n >= 2)
	if enough && time.Since(w.start).Seconds() >= w.r.seconds {
		return false
	}
	if w.r.trace {
		w.setTracing(w.n%2 == 1)
	}
	w.n++
	return true
}

func (w *window) setTracing(on bool) {
	if on == w.tracing {
		return
	}
	w.tracing = on
	w.r.tr.on = on
	if w.setProto != nil {
		w.setProto(on)
	}
}

// op records the wall time of one op.
func (w *window) op(d time.Duration) { w.r.ops.Add(msOf(d)) }

// batch records one rate sample: work units done in d.
func (w *window) batch(work float64, d time.Duration) {
	w.r.work += work
	if w.tracing {
		w.r.ratesT.Add(work / d.Seconds())
	} else {
		w.r.rates.Add(work / d.Seconds())
	}
}

// done closes the window and takes the process-wide readings that are
// reported per unit of work. What follows in a traced run (a crash
// phase, the closing checks) is traced.
func (w *window) done() {
	w.setTracing(w.r.trace)
	w.r.wall = time.Since(w.start)
	w.r.cpu = cpuTime() - w.cpu0
	w.r.mallocs = mallocs() - w.mallocs0
	// What the deployment holds on to in steady state. The resident-set
	// peak is reported too, but it moves with collector timing by tens of
	// percent between runs of one binary; the live heap does not.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
}

// --- spans ---

// spanRec is one call into a layer, as the trace file records it.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: no parent
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"` // duration minus the children's
}

// tracer keeps spans in memory until the run ends. The benchmark drives
// every workload from one goroutine, so the open spans form a stack and
// a span's parent is whatever was open when it began.
type tracer struct {
	on    bool
	t0    time.Time
	spans []spanRec
	stack []int
}

type spanEnd struct {
	t *tracer
	i int
}

// span opens a span around a call into layer; call end on the result.
// With tracing off it records nothing and costs one branch.
func (r *run) span(layer, name string) spanEnd {
	t := &r.tr
	if !t.on {
		return spanEnd{}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, spanRec{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		StartUS: usOf(time.Since(t.t0)),
	})
	t.stack = append(t.stack, len(t.spans)-1)
	return spanEnd{t: t, i: len(t.spans) - 1}
}

func (e spanEnd) end() {
	if e.t == nil {
		return
	}
	s := &e.t.spans[e.i]
	s.DurUS = usOf(time.Since(e.t.t0)) - s.StartUS
	e.t.stack = e.t.stack[:len(e.t.stack)-1]
}

// selfTimes fills SelfUS and returns each layer's share of all self time,
// in percent.
func (t *tracer) selfTimes() map[string]float64 {
	for i := range t.spans {
		t.spans[i].SelfUS = t.spans[i].DurUS
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].SelfUS -= s.DurUS
		}
	}
	share := make(map[string]float64)
	total := 0.0
	for _, s := range t.spans {
		share[s.Layer] += s.SelfUS
		total += s.SelfUS
	}
	for l := range share {
		share[l] = 100 * share[l] / total
	}
	return share
}

func (r *run) writeTraceFile() error {
	path := filepath.Join(outDir(), "trace-"+r.workload+".json")
	b, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{r.workload, r.seed, r.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- results ---

// finish turns the samples into the declared metrics.
func (r *run) finish() *result {
	res := &result{
		outcome:  outcome{Attempted: r.attempted, Metrics: make(map[string]metricValue)},
		Workload: r.workload, Seed: r.seed, Trace: r.trace,
		Detail: r.detail, SimDigest: r.digest, Problems: r.problems, Runs: 1,
	}
	if r.attempted == 0 {
		r.fail("workload checked nothing")
		res.Attempted = 1
	}
	if r.trace {
		for layer, pct := range r.tr.selfTimes() {
			r.layer["span."+layer+"_pct"] = pct
		}
		r.layer["run.work_per_s"] = r.rates.Percentile(95)
		r.layer["run.trace_overhead_pct"] = 100 * (r.rates.Percentile(95)/r.ratesT.Percentile(95) - 1)
		r.layer["run.spans"] = float64(len(r.tr.spans))
		if err := r.writeTraceFile(); err != nil {
			r.fail("trace file: %v", err)
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
	} else {
		// Other tenants of the host only ever add time, for tens of seconds
		// at a stretch and by tens of percent, so medians over a run move
		// with the neighbours. The bounded metrics are therefore taken at
		// the fast end of what the run saw — the best set-up, the 95th
		// percentile of the batch rates, the 5th of the op times — which
		// is where the program shows what it costs when left alone. The
		// medians and the whole-window CPU time go to detail.
		values := map[string]float64{
			"setup_s":        r.setups.Min(),
			"work_per_s_p95": r.rates.Percentile(95),
			"op_p05_ms":      r.ops.Percentile(5),
			"heap_live_mb":   r.heapMB,
		}
		r.detail["setup_p50_s"] = r.setups.Median()
		r.detail["work_per_s_p50"] = r.rates.Median()
		r.detail["op_p50_ms"] = r.ops.Median()
		r.detail["cpu_ms_per_work"] = msOf(r.cpu) / r.work
		r.detail["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("%s was not measured", name)
			res.Metrics[name] = metricValue{0, m.Unit}
		}
	}
	for name, v := range r.detail {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.detail, name) // JSON cannot carry it
		}
	}
	res.Failed, res.Problems = r.failed, r.problems
	res.Correct = res.Failed == 0
	return res
}

// foldRuns reduces repeated runs of one workload to medians and
// quartiles per metric.
func foldRuns(runs []*result) *result {
	if len(runs) == 1 {
		return runs[0]
	}
	out := *runs[0]
	out.Runs = len(runs)
	out.Metrics = make(map[string]metricValue)
	out.Quartiles = make(map[string][3]float64)
	out.Detail = make(map[string]float64)
	out.Attempted, out.Failed, out.Problems = 0, 0, nil
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Problems = append(out.Problems, r.Problems...)
		if r.SimDigest != out.SimDigest {
			out.SimDigest = "differs-between-runs"
		}
	}
	out.Correct = out.Failed == 0 && len(out.Problems) == 0
	for name, m := range runs[0].Metrics {
		s := stats.NewSample(len(runs))
		for _, r := range runs {
			s.Add(r.Metrics[name].Value)
		}
		q1, q2, q3 := s.Quartiles()
		out.Metrics[name] = metricValue{q2, m.Unit}
		out.Quartiles[name] = [3]float64{q1, q2, q3}
	}
	for name := range runs[0].Detail {
		s := stats.NewSample(len(runs))
		for _, r := range runs {
			s.Add(r.Detail[name])
		}
		out.Detail[name] = s.Median()
	}
	return &out
}

func printTable(w io.Writer, res *result) {
	mode := "end-to-end, tracing off"
	if res.Trace {
		mode = "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s  seed=%d  runs=%d  (%s)\n", res.Workload, res.Seed, res.Runs, mode)
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s", name, m.Value, m.Unit)
		if q, ok := res.Quartiles[name]; ok {
			fmt.Fprintf(w, "   [q1 %.4f  q3 %.4f]", q[0], q[2])
		}
		fmt.Fprintln(w)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Detail)) {
		fmt.Fprintf(w, "  %-36s %14.4f (detail)\n", name, res.Detail[name])
	}
	if res.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", res.SimDigest)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// digestOf hashes the given renderings of a run's simulated statistics.
func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- process readings ---

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// it in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
