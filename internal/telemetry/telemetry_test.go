package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2004, 10, 4, 0, 0, 0, 0, time.UTC)

func TestCounterMergesAcrossLanes(t *testing.T) {
	r := New(epoch, 3)
	c := r.Counter("test_total", "help")
	c.Inc(r.Lane(0))
	c.Add(r.Lane(1), 5)
	c.Add(r.Lane(2), 7)
	if v, ok := r.Value("test_total"); !ok || v != 13 {
		t.Fatalf("Value = %d, %v; want 13, true", v, ok)
	}
}

func TestRegistrationDedupedByName(t *testing.T) {
	r := New(epoch, 1)
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second")
	a.Inc(r.Lane(0))
	b.Inc(r.Lane(0))
	if v, _ := r.Value("dup_total"); v != 2 {
		t.Fatalf("deduped handles diverged: %d, want 2", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name as a different kind did not panic")
		}
	}()
	r.Histogram("dup_total", "kind change")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := New(epoch, 2)
	h := r.Histogram("lat_ms", "help")
	h.Observe(r.Lane(0), 500*time.Microsecond) // < 1ms -> bucket 0
	h.Observe(r.Lane(0), 3*time.Millisecond)   // bucket le4ms
	h.Observe(r.Lane(1), 90*time.Second)       // big
	h.Observe(r.Lane(1), -time.Second)         // clamped to 0
	n, sum, ok := r.HistogramValue("lat_ms")
	if !ok || n != 4 {
		t.Fatalf("count = %d, %v; want 4", n, ok)
	}
	want := 500*time.Microsecond + 3*time.Millisecond + 90*time.Second
	if sum != want {
		t.Fatalf("sum = %s, want %s", sum, want)
	}
	tab := r.RenderTable()
	if !strings.Contains(tab, "count=4") {
		t.Fatalf("table missing histogram count:\n%s", tab)
	}
}

func TestCollectorsAndReRegistration(t *testing.T) {
	r := New(epoch, 1)
	x := int64(41)
	r.CounterFunc("col_total", "help", func() int64 { return x })
	x++
	if v, _ := r.Value("col_total"); v != 42 {
		t.Fatalf("collector read %d, want 42", v)
	}
	// Re-registration replaces the closure (cluster restarts rebuild
	// stacks that re-register their collectors).
	r.CounterFunc("col_total", "help", func() int64 { return 7 })
	if v, _ := r.Value("col_total"); v != 7 {
		t.Fatalf("replaced collector read %d, want 7", v)
	}
}

func TestNilLaneAndZeroHandleAreNoOps(t *testing.T) {
	var l *Lane
	var c Counter
	var h Histogram
	c.Inc(l)
	h.Observe(l, time.Second)
	if l.NewSpan() != 0 {
		t.Fatal("nil lane allocated a span")
	}
	if l.Tracing(TraceProto) {
		t.Fatal("nil lane reports tracing enabled")
	}
	l.Emit(epoch, "kind", "", "", 0, 0, "") // must not panic

	r := New(epoch, 1)
	c2 := r.Counter("ok_total", "help")
	c2.Inc(nil) // nil lane with a live handle
	if v, _ := r.Value("ok_total"); v != 0 {
		t.Fatalf("nil-lane write landed: %d", v)
	}
	// Lane(i) out of range falls back to lane 0 rather than panicking.
	c2.Inc(r.Lane(99))
	if v, _ := r.Value("ok_total"); v != 1 {
		t.Fatalf("out-of-range lane write lost: %d", v)
	}
}

func TestRenderPromFormat(t *testing.T) {
	r := New(epoch, 1)
	r.Counter("a_total", "a help").Inc(r.Lane(0))
	r.GaugeFunc("b_gauge", "b help", func() int64 { return 9 })
	r.Histogram("c_ms", "c help").Observe(r.Lane(0), 3*time.Millisecond)
	out := r.RenderProm()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 1",
		"# TYPE b_gauge gauge",
		"b_gauge 9",
		"# TYPE c_ms histogram",
		`c_ms_bucket{le="+Inf"} 1`,
		"c_ms_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandlerServesPromAndPprof(t *testing.T) {
	r := New(epoch, 1)
	r.Counter("served_total", "help").Inc(r.Lane(0))
	srv := httptest.NewServer(r.ServeMux())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), b.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "served_total 1") {
		t.Fatalf("/metrics: code=%d body:\n%s", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content-type %q", ctype)
	}
	if code, _, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestTraceLevelGatesEmission(t *testing.T) {
	r := New(epoch, 1)
	l := r.Lane(0)
	l.Emit(epoch.Add(time.Second), "off", "", "", 0, 0, "")
	if l.NewSpan() != 0 {
		t.Fatal("span allocated while tracing off")
	}
	r.EnableTrace(TraceProto)
	if !l.Tracing(TraceProto) || l.Tracing(TraceVerbose) {
		t.Fatal("level gating wrong at TraceProto")
	}
	l.Emit(epoch.Add(2*time.Second), "on", "n", "g", l.NewSpan(), 0, "d")
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != "on" {
		t.Fatalf("events = %+v, want the single post-enable event", evs)
	}
	if evs[0].At != 2*time.Second {
		t.Fatalf("At = %s, want 2s (duration since epoch)", evs[0].At)
	}
}

func TestTraceMergeOrdersByTimeThenLane(t *testing.T) {
	r := New(epoch, 3)
	r.EnableTrace(TraceProto)
	// Emissions interleave across lanes (each lane's own buffer stays
	// time-ordered, as its clock is monotonic); the merge must come back
	// in (time, lane, FIFO) order.
	r.Lane(2).Emit(epoch.Add(1*time.Second), "c", "", "", 0, 0, "")
	r.Lane(1).Emit(epoch.Add(1*time.Second), "b", "", "", 0, 0, "")
	r.Lane(0).Emit(epoch.Add(1*time.Second), "a", "", "", 0, 0, "")
	r.Lane(0).Emit(epoch.Add(2*time.Second), "d", "", "", 0, 0, "")
	var kinds []string
	for _, ev := range r.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, ""); got != "abcd" {
		t.Fatalf("merge order %q, want abcd", got)
	}
}

// TestRecordIgnoresTheTraceLevel: at TraceOff Emit records nothing and
// Record still appends, so an audit folded from Record's events does not
// depend on verbosity. A nil lane takes both as no-ops.
func TestRecordIgnoresTheTraceLevel(t *testing.T) {
	r := New(epoch, 2)
	r.Lane(1).Emit(epoch.Add(time.Second), "notify", "n1", "g1", 0, 0, "")
	r.Lane(1).Record(epoch.Add(time.Second), "notice", "n1", "g1", 0, 0, "notify group=0")
	var nilLane *Lane
	nilLane.Record(epoch, "notice", "", "", 0, 0, "")
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != "notice" || evs[0].Lane != 1 || evs[0].At != time.Second || evs[0].Detail != "notify group=0" {
		t.Fatalf("events at TraceOff = %+v, want the one recorded notice", evs)
	}
}

func TestSpanIDsUniquePerLane(t *testing.T) {
	r := New(epoch, 2)
	r.EnableTrace(TraceProto)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		for li := 0; li < 2; li++ {
			s := r.Lane(li).NewSpan()
			if s == 0 || seen[s] {
				t.Fatalf("span %d duplicate or zero", s)
			}
			seen[s] = true
		}
	}
}

func TestWriteTraceIsValidJSONL(t *testing.T) {
	r := New(epoch, 1)
	r.EnableTrace(TraceProto)
	l := r.Lane(0)
	l.Emit(epoch.Add(time.Second), "trigger", "n1", "g1", 5, 0, "link-timeout")
	l.Emit(epoch.Add(2*time.Second), "notify", "n2", "g1", 0, 5, "crashed")
	var b strings.Builder
	if err := r.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first["kind"] != "trigger" || first["span"] != float64(5) {
		t.Fatalf("line 1 = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if second["parent"] != float64(5) {
		t.Fatalf("line 2 parent = %v, want 5", second["parent"])
	}
	if _, has := second["span"]; has {
		t.Fatalf("zero span serialized: %v", second)
	}
}

func TestNilRegistryLaneIsSafe(t *testing.T) {
	var r *Registry
	if l := r.Lane(0); l != nil {
		t.Fatal("nil registry returned a lane")
	}
}
