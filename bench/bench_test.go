package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fuse/internal/netmodel"
	"fuse/internal/scenario"
)

// toyScale shrinks every input so that all workloads and all micro rungs
// run in a few seconds, and sends span files to a temporary directory.
func toyScale(t *testing.T) {
	t.Helper()
	oldSize, oldMicro, oldOut, oldProgress := size, micro, outRoot, progress
	t.Cleanup(func() { size, micro, outRoot, progress = oldSize, oldMicro, oldOut, oldProgress })
	outRoot, progress = t.TempDir(), io.Discard
	size = sizes{
		paperNodes: 40, paperGroups: 6, paperNet: netmodel.DefaultConfig,
		steadyNodes: 60, steadyGroups: 8,
		paperSlice: time.Minute, steadySlice: time.Minute,
		standingGroups: 20, cycleBatch: 5, lifecycleNodes: 20, warmCycles: 3,
		churnNodes: 30, churnGroups: 4, churnWindow: 4 * time.Minute, churnMeanDwell: 2 * time.Minute,
		liveBatch: 5, liveWarmCycles: 3,
		lifecycleSetups: 2, liveSetups: 2,
	}
	micro = microSizes{
		iters: 200, heaps: [3]int{10, 20, 40}, sweeps: 2,
		shardNodes: 40, ladderNodes: 30, ladderWindow: time.Minute, ladderRounds: 1,
		linkGroups: [3]int{2, 4, 8}, standing: 10, cycles: 5,
		clusterNodes: 30,
		churn:        scenario.Params{Nodes: 24, Groups: 3, Window: 3 * time.Minute, MeanDwell: 2 * time.Minute},
		paperNet:     netmodel.DefaultConfig,
		tcpMsgs:      8, burst: 4,
	}
}

// runToy runs one workload. The micro suite, the same for every workload,
// has a test of its own and is left out here.
func runToy(w workload, trace, broken bool) *result {
	r := newRun(w.name, 1, 0.2, trace)
	r.breakCheck = broken
	w.run(r)
	return r.finish()
}

// TestWorkloadsAtToyScale runs every workload, untraced and traced, and
// checks that each emits exactly the declared metrics, all finite, with
// no failed operation.
func TestWorkloadsAtToyScale(t *testing.T) {
	toyScale(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runToy(w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present=%v), want unit %s and a finite value", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(outRoot, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestMicroRungsAllReport: after one traced run no micro metric may still
// be unset — a rung that silently stopped reporting would read as 0.
func TestMicroRungsAllReport(t *testing.T) {
	toyScale(t)
	r := newRun("group-lifecycle", 1, 0.1, true)
	runMicroSuite(r)
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "run.") || strings.HasPrefix(m.Name, "span.") {
			continue
		}
		if _, ok := r.layer[m.Name]; !ok {
			t.Errorf("micro suite left %s unset", m.Name)
		}
	}
	for name := range r.layer {
		declared := false
		for _, m := range perLayer {
			declared = declared || m.Name == name
		}
		if !declared {
			t.Errorf("micro suite set %s, which perLayer does not declare", name)
		}
	}
	if r.failed != 0 {
		t.Errorf("micro suite: %d failures: %v", r.failed, r.problems)
	}
}

// TestBrokenCheckFailsTheRun: with the test hook on, every workload's
// main correctness check must turn the run incorrect.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	toyScale(t)
	for _, w := range workloads {
		if w.name == "paperscale-400" {
			// The hook needs a live member of an affected group; with 40
			// nodes a crash of four may miss every group, so use more.
			size.paperGroups = 20
		}
		res := runToy(w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: broken check went unnoticed (correct=%v failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesBenchmarkJSON pins the compiled-in workload and metric
// tables to BENCHMARK.json and both to the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in (2 to 8 allowed)", len(spec.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, compiled in %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, got, want []metricSpec, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d in BENCHMARK.json, %d compiled in (1 to %d allowed)", kind, len(got), len(want), limit)
		}
		for i, m := range want {
			unique(m.Name)
			if got[i] != m {
				t.Errorf("%s %d: BENCHMARK.json has %+v, compiled in %+v", kind, i, got[i], m)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	compare("per_layer", spec.PerLayer, perLayer, 128, false)
	if endToEnd[0] != (metricSpec{"setup_s", "s", "lower", 0.25}) {
		t.Errorf("first end-to-end metric must be setup_s in s, lower, with the largest bound; have %+v", endToEnd[0])
	}
}

// TestRelayCountsOnlyForwardBytes pins what wire_bytes means: the bytes
// the dialling side sent, not what came back.
func TestRelayCountsOnlyForwardBytes(t *testing.T) {
	server, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() { // reads 100 bytes, answers with 1000
		conn, err := server.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, 100)); err == nil {
			conn.Write(make([]byte, 1000))
		}
	}()
	rl, err := newRelay(server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rl.close()
	conn, err := net.Dial("tcp", string(rl.addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 1000)); err != nil {
		t.Fatalf("reply through the relay: %v", err)
	}
	if got := rl.bytes.Load(); got != 100 {
		t.Errorf("relay counted %d bytes, want the 100 sent forward", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRun("w", 1, 1, true)
	outer := r.span("bench", "outer")
	inner := r.span("core", "inner")
	time.Sleep(2 * time.Millisecond)
	inner.end()
	outer.end()
	share := r.tr.selfTimes()
	o, i := r.tr.spans[0], r.tr.spans[1]
	if i.Parent != o.ID || o.Parent != 0 {
		t.Fatalf("parents: outer %d, inner %d", o.Parent, i.Parent)
	}
	if math.Abs(o.SelfUS-(o.DurUS-i.DurUS)) > 1e-6 || i.SelfUS != i.DurUS {
		t.Errorf("self times: outer %v of %v, inner %v of %v", o.SelfUS, o.DurUS, i.SelfUS, i.DurUS)
	}
	if share["core"] < 90 || math.Abs(share["core"]+share["bench"]-100) > 1e-6 {
		t.Errorf("shares %v: the sleeping inner span should own nearly everything", share)
	}
	r.trace = false // an untraced run records nothing
	r.tr.on = false
	r.span("core", "off").end()
	if len(r.tr.spans) != 2 {
		t.Errorf("span recorded with tracing off")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{"m", "ms", "lower", 0.10}
	higher := metricSpec{"m", "1/s", "higher", 0.10}
	none := [3]float64{}
	for _, c := range []struct {
		spec       metricSpec
		old, new   float64
		oldQ, newQ [3]float64
		want       string
	}{
		{lower, 100, 105, none, none, "same"},
		{lower, 100, 111, none, none, "worse"},
		{lower, 100, 89, none, none, "better"},
		{higher, 100, 89, none, none, "worse"},
		{higher, 100, 111, none, none, "better"},
		{higher, 100, 95, none, none, "same"},
		{lower, 100, 111, [3]float64{90, 100, 105}, none, "unresolved"},
		{lower, 100, 111, [3]float64{98, 100, 102}, [3]float64{109, 111, 113}, "worse"},
		{metricSpec{"m", "ns", "lower", 0}, 100, 200, none, none, "-"},
	} {
		if got := verdict(c.spec, c.old, c.new, c.oldQ, c.newQ); got != c.want {
			t.Errorf("verdict(%s better, %v -> %v, q %v %v) = %s, want %s", c.spec.Better, c.old, c.new, c.oldQ, c.newQ, got, c.want)
		}
	}
}

// TestCompareExitCode: a regression beyond the bound or a failed
// operation must make -compare exit non-zero; identical reports exit 0.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, workPerS float64, failed int) string {
		rep := &report{Env: map[string]string{}, Results: []*result{{
			outcome: outcome{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"work_per_s_p95": {workPerS, "1/s"}},
			},
			Workload: "live-loopback", Seed: 1, SimDigest: "d",
		}}}
		path := filepath.Join(dir, name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 0)
	var out bytes.Buffer
	if code := compareReports(&out, base, write("same.json", 990, 0)); code != 0 {
		t.Errorf("1%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "identical") || !strings.Contains(out.String(), "0.990x of old") {
		t.Errorf("compare output lacks the digest line or the ratio with its base:\n%s", out.String())
	}
	if code := compareReports(io.Discard, base, write("slow.json", 500, 0)); code != 1 {
		t.Errorf("half the throughput: exit %d, want 1", code)
	}
	if code := compareReports(io.Discard, base, write("failed.json", 1000, 1)); code != 1 {
		t.Errorf("a failed operation: exit %d, want 1", code)
	}
}
