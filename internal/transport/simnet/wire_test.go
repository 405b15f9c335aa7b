package simnet_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fuse/internal/scenario"
	"fuse/internal/transport"
	"fuse/internal/transport/simnet"
)

// presetOutput is what fusesim prints for `-scenario <name> -short -seed 3
// -metrics -workers <n>`, field by field.
type presetOutput struct {
	trace, faults, stats, metrics string
}

func runPreset(t *testing.T, name string, workers int) presetOutput {
	t.Helper()
	c, s, err := scenario.BuildPreset(name, scenario.Params{Seed: 3, Short: true, Workers: workers})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	c.WarmRoutes(nil)
	rep, err := scenario.Run(c, s)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	return presetOutput{rep.Trace, rep.FaultTable(), rep.Stats(), c.Telemetry.RenderTable()}
}

// tagBytes is the byte tally of one message tag's frames.
type tagBytes struct{ frames, bytes, min, max int }

// wireTally is a wire round trip that counts the frames it carries, by
// tag. At Workers > 0 deliveries run on several goroutines, so it locks.
type wireTally struct {
	mu    sync.Mutex
	byTag map[string]*tagBytes
	err   error
}

// roundTrip encodes msg into one frame, decodes that frame, checks the
// copy deep-equals msg, releases msg and returns the copy; on any failure
// it records the error and returns msg itself, for the caller to deliver
// and release.
func (w *wireTally) roundTrip(msg transport.Message) transport.Message {
	var buf bytes.Buffer
	if err := transport.AppendFrame(&buf, msg); err != nil {
		return w.fail(msg, err)
	}
	frame := buf.Bytes()
	tagLen, k := binary.Uvarint(frame)
	tag := string(frame[k : k+int(tagLen)])
	r := bufio.NewReader(bytes.NewReader(frame))
	got, err := transport.ReadFrame(r)
	if err != nil {
		return w.fail(msg, fmt.Errorf("%s: %w", tag, err))
	}
	if _, err := r.ReadByte(); err != io.EOF {
		transport.ReleaseMessage(got)
		return w.fail(msg, fmt.Errorf("%s: decoding stopped short of the frame's end", tag))
	}
	if !reflect.DeepEqual(got, msg) {
		err := fmt.Errorf("%s: decoded %+v, sent %+v", tag, got, msg)
		transport.ReleaseMessage(got)
		return w.fail(msg, err)
	}
	transport.ReleaseMessage(msg)

	w.mu.Lock()
	defer w.mu.Unlock()
	tb := w.byTag[tag]
	if tb == nil {
		tb = &tagBytes{min: len(frame)}
		w.byTag[tag] = tb
	}
	tb.frames++
	tb.bytes += len(frame)
	tb.min, tb.max = min(tb.min, len(frame)), max(tb.max, len(frame))
	return got
}

func (w *wireTally) fail(msg transport.Message, err error) transport.Message {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return msg
}

// table renders the tally, one tag a line, sorted by tag.
func (w *wireTally) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %10s %8s %6s %6s\n", "tag", "frames", "bytes", "mean", "min", "max")
	for _, tag := range slices.Sorted(maps.Keys(w.byTag)) {
		tb := w.byTag[tag]
		fmt.Fprintf(&b, "%-28s %8d %10d %8.1f %6d %6d\n",
			tag, tb.frames, tb.bytes, float64(tb.bytes)/float64(tb.frames), tb.min, tb.max)
	}
	return b.String()
}

// TestPresetsSurviveWireRoundTrip runs every preset twice, once as usual
// and once with every delivered message encoded into a wire frame and
// decoded again (transport's codec, the one a live node speaks). Every
// decoded record must deep-equal the one sent, so a field the codec
// drops or alters fails the test even where no output depends on it
// (overlay's link-id hints), and the two runs must print the same:
// trace, fault table, audit and metrics. A failure names the preset and
// worker count. The log holds the exact frame bytes per message tag:
//
//	go test -run TestPresetsSurviveWireRoundTrip -v ./internal/transport/simnet
//
// Under -race it runs one preset at Workers 4 only, which still has
// several goroutines calling the round trip at once.
func TestPresetsSurviveWireRoundTrip(t *testing.T) {
	names, workerCounts := scenario.Names(), []int{0, 4}
	if simnet.RaceEnabled {
		names, workerCounts = []string{"intransitive"}, []int{4}
	}
	for _, name := range names {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				plain := runPreset(t, name, workers)
				tally := &wireTally{byTag: map[string]*tagBytes{}}
				wired := func() presetOutput {
					defer simnet.SetWireRoundTrip(tally.roundTrip)()
					return runPreset(t, name, workers)
				}()
				if tally.err != nil {
					t.Fatalf("preset %s, workers %d: wire round trip failed: %v", name, workers, tally.err)
				}
				if len(tally.byTag) == 0 {
					t.Fatalf("preset %s, workers %d: no message went through the wire round trip", name, workers)
				}
				for _, f := range []struct{ what, plain, wired string }{
					{"trace", plain.trace, wired.trace},
					{"fault table", plain.faults, wired.faults},
					{"stats", plain.stats, wired.stats},
					{"metrics table", plain.metrics, wired.metrics},
				} {
					if f.plain != f.wired {
						t.Errorf("preset %s, workers %d: %s differs with the wire round trip on\n%s",
							name, workers, f.what, firstDiff(f.plain, f.wired))
					}
				}
				t.Logf("preset %s, workers %d: frame bytes per tag\n%s", name, workers, tally.table())
			})
		}
	}
}

// firstDiff names the first line at which plain and wired part.
func firstDiff(plain, wired string) string {
	p, w := strings.Split(plain, "\n"), strings.Split(wired, "\n")
	for i := 0; i < max(len(p), len(w)); i++ {
		var a, b string
		if i < len(p) {
			a = p[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  plain: %s\n  wired: %s", i+1, a, b)
		}
	}
	return "(no line differs)"
}
