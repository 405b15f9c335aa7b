package tcpnet

// Wire tests and fuzzing: tcpnet speaks transport's codec, and these
// drive it over every message a node can send. The blank imports pull in
// every protocol package so their init-time registrations populate the
// transport registry: the round-trip tests then enumerate the full closed
// union - overlay, FUSE core, svtree, livetopo - rather than a
// hand-maintained list that would rot as message types are added.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fuse/internal/overlay"
	"fuse/internal/transport"

	_ "fuse/internal/core"
	_ "fuse/internal/livetopo"
	_ "fuse/internal/svtree"
)

// fillValue populates every settable field of v with deterministic
// non-zero data derived from seed: strings, integers, bools, byte and
// struct slices, nested structs. Interface-typed fields stay nil (their
// concrete types belong to gob's registry, not the transport's).
// maxLen > 0 sizes the slices, exercising the "many group IDs" shape.
func fillValue(v reflect.Value, seed *int, maxLen int) {
	next := func() int { *seed++; return *seed }
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillValue(v.Elem(), seed, maxLen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillValue(f, seed, maxLen)
			}
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("field-%d", next()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(next()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(next()))
	case reflect.Bool:
		v.SetBool(next()%2 == 0)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(next()))
	case reflect.Slice:
		n := maxLen
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillValue(s.Index(i), seed, 1) // keep nested slices small
		}
		v.Set(s)
	}
}

func encodeToBytes(t *testing.T, msg transport.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := transport.AppendFrame(&buf, msg); err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	return buf.Bytes()
}

func decodeFromBytes(data []byte) (transport.Message, error) {
	return transport.ReadFrame(bufio.NewReader(bytes.NewReader(data)))
}

// TestWireRoundTripEveryRegisteredType round-trips the zero value and a
// reflection-filled value of every message in the registry through the
// frame codec, requiring exact reconstruction. The filled variant uses
// 64-element slices, covering the paper-shaped case of a reconciliation
// list carrying many group IDs.
func TestWireRoundTripEveryRegisteredType(t *testing.T) {
	names := transport.RegisteredMessages()
	if len(names) < 30 {
		t.Fatalf("registry holds %d types; expected the full protocol union (did an import go missing?)", len(names))
	}
	for _, name := range names {
		for _, variant := range []string{"zero", "filled"} {
			msg, ok := transport.NewMessage(name)
			if !ok {
				t.Fatalf("NewMessage(%q) failed", name)
			}
			if variant == "filled" {
				seed := 0
				fillValue(reflect.ValueOf(msg), &seed, 64)
			}
			data := encodeToBytes(t, msg)
			got, err := decodeFromBytes(data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, variant, err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%s/%s: round trip mismatch:\n got %#v\nwant %#v", name, variant, got, msg)
			}
			// Register keeps tags and types one to one, so the type
			// names the tag.
			if reflect.TypeOf(got) != reflect.TypeOf(msg) {
				t.Fatalf("decoded record is a %T, want %s's %T", got, name, msg)
			}
		}
	}
}

// wireTags lists the registered tags whose records write their own
// bodies (transport.Wire), in sorted order.
func wireTags() []string {
	var tags []string
	for _, tag := range transport.RegisteredMessages() {
		msg, _ := transport.NewMessage(tag)
		if _, ok := msg.(transport.Wire); ok {
			tags = append(tags, tag)
		}
		transport.ReleaseMessage(msg)
	}
	return tags
}

// filledWire returns a reflection-filled record of tag with slices of
// length n; a routed envelope carries a filled install, the record the
// live path routes, since fillValue leaves interface fields nil.
func filledWire(tag string, n int) transport.Message {
	msg, _ := transport.NewMessage(tag)
	seed := 0
	fillValue(reflect.ValueOf(msg), &seed, n)
	if tag == "overlay.route" {
		inner, _ := transport.NewMessage("core.installChecking")
		fillValue(reflect.ValueOf(inner), &seed, n)
		reflect.ValueOf(msg).Elem().FieldByName("Inner").Set(reflect.ValueOf(inner))
	}
	return msg
}

// frameOf frames body under tag by hand, so a test can send the decoder
// bodies AppendFrame would never write.
func frameOf(tag string, body []byte) []byte {
	b := transport.AppendString(nil, tag)
	return transport.AppendBytes(b, body)
}

// bodyOf returns the body of a frame AppendFrame wrote.
func bodyOf(t *testing.T, frame []byte) []byte {
	t.Helper()
	tagLen, k := binary.Uvarint(frame)
	frame = frame[k+int(tagLen):]
	bodyLen, k := binary.Uvarint(frame)
	if int(bodyLen) != len(frame)-k {
		t.Fatalf("frame body is %d bytes, its length says %d", len(frame)-k, bodyLen)
	}
	return frame[k:]
}

// allocBytes is the mean number of heap bytes one call of f allocates.
func allocBytes(f func()) uint64 {
	const runs = 20
	f() // warm pools and caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// rejectOverhead is what a refused frame may allocate beyond the bytes
// that arrived: the record it was decoded into and the wrapped error.
const rejectOverhead = 1 << 10

// requireClean decodes data and requires an error with no message, no
// panic, and no more allocated than the bytes that arrived plus
// rejectOverhead, whatever lengths the frame claims.
func requireClean(t *testing.T, what string, data []byte) error {
	t.Helper()
	var src bytes.Reader
	r := bufio.NewReader(&src)
	decode := func() (transport.Message, error) {
		src.Reset(data)
		r.Reset(&src)
		return transport.ReadFrame(r)
	}
	got, err := decode()
	if err == nil || got != nil {
		t.Fatalf("%s: decoded %#v, err %v; want an error and no message", what, got, err)
	}
	if n := allocBytes(func() { decode() }); n > uint64(len(data))+rejectOverhead {
		t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes", what, len(data), n)
	}
	return err
}

// TestDecodeTruncatedFramesCleanError slices a valid frame of every
// record with a hand-written body at every prefix length: all must fail
// with a clean error (never a panic, never a message with the error),
// and only the empty prefix may report io.EOF - mid-frame truncation is
// distinguishable as unexpected.
func TestDecodeTruncatedFramesCleanError(t *testing.T) {
	tags := wireTags()
	if len(tags) != 6 {
		t.Fatalf("hand-written bodies: %v, want the six live fast path records", tags)
	}
	for _, tag := range tags {
		data := encodeToBytes(t, filledWire(tag, 20))
		for cut := 0; cut < len(data); cut++ {
			err := requireClean(t, fmt.Sprintf("%s cut at %d/%d", tag, cut, len(data)), data[:cut])
			if cut == 0 && err != io.EOF {
				t.Fatalf("%s: empty input: err = %v, want io.EOF (orderly close)", tag, err)
			}
			if cut > 0 && err == io.EOF {
				t.Fatalf("%s: truncation at %d reported a clean EOF", tag, cut)
			}
		}
		if _, err := decodeFromBytes(data); err != nil {
			t.Fatalf("%s: untruncated frame failed: %v", tag, err)
		}
	}
}

// TestDecodeRejectsMalformedBodies hands every record with a hand-written
// body frames whose length prefixes are right but whose bodies are not:
// bytes left over after the last field, a string, byte slice or nested
// frame running past the body's end, values wider than their field.
// Each must be refused like a truncated frame.
func TestDecodeRejectsMalformedBodies(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	ref := overlay.NodeRef{Name: "n1", Addr: "127.0.0.1:1"}
	for _, tag := range wireTags() {
		body := bodyOf(t, encodeToBytes(t, filledWire(tag, 20)))
		cases := map[string][]byte{
			"empty body":               nil,
			"one byte left over":       append(bytes.Clone(body), 0),
			"body sent twice":          append(bytes.Clone(body), body...),
			"first string past end":    append(binary.AppendUvarint(nil, uint64(len(body))), body...),
			"first string length 2^40": append(bytes.Clone(huge), body...),
			"unterminated varint":      bytes.Repeat([]byte{0x80}, 11),
		}
		for what, b := range cases {
			requireClean(t, tag+": "+what, frameOf(tag, b))
		}
	}

	ping := overlay.AppendNodeRef(nil, ref)
	ping = binary.AppendUvarint(ping, 7) // Seq
	for what, b := range map[string][]byte{
		"payload past end":    append(binary.AppendUvarint(bytes.Clone(ping), 21), make([]byte, 20)...),
		"payload length 2^40": append(append(bytes.Clone(ping), huge...), make([]byte, 20)...),
		"link over 32 bits":   binary.AppendUvarint(binary.AppendUvarint(transport.AppendBytes(bytes.Clone(ping), nil), 1<<32), 0),
	} {
		requireClean(t, "overlay.ping: "+what, frameOf("overlay.ping", b))
	}

	route := transport.AppendString(nil, "dest")
	route = overlay.AppendNodeRef(route, ref)
	route = overlay.AppendNodeRef(route, ref)
	route = binary.AppendVarint(binary.AppendVarint(route, 1), 100) // Hops, TTL
	install := bodyOf(t, encodeToBytes(t, filledWire("core.installChecking", 1)))
	inner := func(tag string, body []byte) []byte { return append(bytes.Clone(route), frameOf(tag, body)...) }
	for what, b := range map[string][]byte{
		"inner body past end":  append(append(transport.AppendString(bytes.Clone(route), "core.installChecking"), huge...), install...),
		"inner body left over": inner("core.installChecking", append(bytes.Clone(install), 0)),
		"inner tag unknown":    inner("no.such", install),
		"route inside a route": inner("overlay.route", inner("core.installChecking", install)),
		"inner tag over bound": inner(strings.Repeat("x", 256), install),
	} {
		requireClean(t, "overlay.route: "+what, frameOf("overlay.route", b))
	}

	// The encoder refuses what the decoder would: a route in a route.
	outer := filledWire("overlay.route", 1)
	reflect.ValueOf(outer).Elem().FieldByName("Inner").Set(reflect.ValueOf(filledWire("overlay.route", 1)))
	var buf bytes.Buffer
	if err := transport.AppendFrame(&buf, outer); err == nil || buf.Len() != 0 {
		t.Fatalf("AppendFrame of a route inside a route: err %v, %d bytes written; want an error and none", err, buf.Len())
	}
}

// TestWireRecordsEncodeWithoutAllocating pins the live fast path's send
// side: AppendFrame of every record with a hand-written body, into a
// buffer reused from frame to frame as a connection writer reuses its
// own, allocates nothing.
func TestWireRecordsEncodeWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	var buf bytes.Buffer
	for _, tag := range wireTags() {
		msg := filledWire(tag, 20)
		allocs := testing.AllocsPerRun(100, func() {
			buf.Reset()
			if err := transport.AppendFrame(&buf, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendFrame(%s) allocates %.1f/op into a reused buffer, want 0", tag, allocs)
		}
	}
}

// heldAllocs counts what a decoded record may allocate: itself, every
// record nested in it, and each of their non-empty strings and byte
// slices.
func heldAllocs(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return 1 + heldAllocs(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return heldAllocs(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += heldAllocs(v.Field(i))
		}
		return n
	case reflect.String, reflect.Slice:
		if v.Len() > 0 {
			return 1
		}
	}
	return 0
}

// TestWireRecordsDecodeOnlyTheirFields pins the receive side: ReadFrame
// of a record with a hand-written body, off a reused reader, allocates
// no more than the record and its own strings and byte slices (a pooled
// record comes back from its pool), and the record deep-equals the one
// sent.
func TestWireRecordsDecodeOnlyTheirFields(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc pin runs without -race")
	}
	var src bytes.Reader
	r := bufio.NewReader(&src)
	for _, tag := range wireTags() {
		msg := filledWire(tag, 20)
		data := encodeToBytes(t, msg)
		decode := func() transport.Message {
			src.Reset(data)
			r.Reset(&src)
			got, err := transport.ReadFrame(r)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			return got
		}
		if got := decode(); !reflect.DeepEqual(got, msg) {
			t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", tag, got, msg)
		}
		want := heldAllocs(reflect.ValueOf(msg))
		allocs := testing.AllocsPerRun(100, func() { transport.ReleaseMessage(decode()) })
		if allocs > float64(want) {
			t.Errorf("ReadFrame(%s) allocates %.1f/op, want at most %d (the record and its fields)", tag, allocs, want)
		}
	}
}

func TestDecodeRejectsUnknownTag(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(7)
	buf.WriteString("no.such")
	buf.WriteByte(0)
	_, err := decodeFromBytes(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "unknown message tag") {
		t.Fatalf("err = %v, want unknown-tag error", err)
	}
}

// FuzzWireRoundTrip throws arbitrary byte streams at the frame decoder.
// The invariants: decoding never panics, never returns a non-nil message
// together with an error, and every successfully decoded message
// re-encodes into a frame that decodes back to the same tag. The seed
// corpus holds a valid frame for every registered type (zero and filled)
// plus truncations and corruptions of them, so coverage starts at the
// interesting surface instead of random noise. The last seeds put a
// type's zero and filled frames back to back in one stream, so the
// per-input frame loop runs past its first frame.
func FuzzWireRoundTrip(f *testing.F) {
	var streams [][]byte
	for _, name := range transport.RegisteredMessages() {
		msg, _ := transport.NewMessage(name)
		var buf bytes.Buffer
		if err := transport.AppendFrame(&buf, msg); err != nil {
			f.Fatalf("seed encode %s: %v", name, err)
		}
		zero := bytes.Clone(buf.Bytes())
		f.Add(zero)
		f.Add(zero[:len(zero)/2]) // truncated frame

		filled, _ := transport.NewMessage(name)
		seed := 0
		fillValue(reflect.ValueOf(filled), &seed, 64)
		buf.Reset()
		if err := transport.AppendFrame(&buf, filled); err != nil {
			f.Fatalf("seed encode filled %s: %v", name, err)
		}
		f.Add(buf.Bytes())
		if b := buf.Bytes(); len(b) > 4 {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0xff // corrupted gob body
			f.Add(mut)
		}
		streams = append(streams, append(zero[:len(zero):len(zero)], buf.Bytes()...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	for _, s := range streams {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bound frames per input
			msg, err := transport.ReadFrame(r)
			if err != nil {
				if msg != nil {
					t.Fatalf("ReadFrame returned both a message (%T) and an error (%v)", msg, err)
				}
				return
			}
			var buf bytes.Buffer
			if err := transport.AppendFrame(&buf, msg); err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", msg, err)
			}
			again, err := decodeFromBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", msg, err)
			}
			if a, b := reflect.TypeOf(msg), reflect.TypeOf(again); a != b {
				t.Fatalf("tag changed across re-encode: %v -> %v", a, b)
			}
			transport.ReleaseMessage(again)
			transport.ReleaseMessage(msg)
		}
	})
}

// gobFrame frames msg as the codec framed every record before some
// wrote their own bodies: the tag, a ten-byte padded length, and the
// record's gob encoding.
func gobFrame(t *testing.T, tag string, msg transport.Message) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(msg); err != nil {
		t.Fatalf("gob %s: %v", tag, err)
	}
	b := transport.AppendString(nil, tag)
	n := uint64(body.Len())
	for range binary.MaxVarintLen64 - 1 {
		b = append(b, byte(n)&0x7f|0x80)
		n >>= 7
	}
	b = append(b, byte(n)&0x7f)
	return append(b, body.Bytes()...)
}

// TestGobFramesOfWireTagsRejected replays the corpus's gob-bodied frames
// of tags that now carry hand-written bodies - the gob_* seeds, and the
// linked_overlay_ping and _pingAck frames - and requires each to be
// refused cleanly: a peer built from an older binary is a peer speaking
// another format.
func TestGobFramesOfWireTagsRejected(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundTrip")
	files, err := filepath.Glob(filepath.Join(dir, "gob_*"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(dir, "linked_overlay_ping"), filepath.Join(dir, "linked_overlay_pingAck"))
	if len(files) != 2*len(wireTags())+2 {
		t.Fatalf("%d gob-bodied seeds, want a zero and a filled one for each of %v plus two linked ones", len(files), wireTags())
	}
	for _, f := range files {
		content, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(content)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file: %v", f, err)
		}
		requireClean(t, filepath.Base(f), []byte(data))
	}
}

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzWireRoundTrip: a zero-value, a filled, and a
// truncated frame per registered protocol type (a filled route carries a
// filled install), plus structural edge cases. For each tag whose record
// writes its own body it also writes gob_zero_ and gob_filled_ frames,
// the gob-bodied frames the codec wrote for those tags before, which a
// decoder must refuse cleanly (TestGobFramesOfWireTagsRejected); so must
// the checked-in linked_overlay_ping and _pingAck, gob frames of the
// ping and ack with both link ids set, which this does not rewrite. The
// *_rpcx_request and _response frames, and the *_swim_ping, _ack,
// _pingReq and _indirectAck frames, carry tags no package registers any
// more, and stay as frames a decoder must reject cleanly. It is a no-op
// unless GEN_FUZZ_CORPUS=1 is set:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/transport/tcpnet -run TestGenerateFuzzCorpus
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range transport.RegisteredMessages() {
		if strings.Contains(tag, "test") {
			continue // tags registered by test binaries are not wire types
		}
		slug := strings.ReplaceAll(tag, ".", "_")
		msg, _ := transport.NewMessage(tag)
		write("zero_"+slug, encodeToBytes(t, msg))

		filled := filledWire(tag, 64)
		data := encodeToBytes(t, filled)
		write("filled_"+slug, data)
		write("truncated_"+slug, data[:len(data)/2])

		if _, ok := msg.(transport.Wire); ok {
			write("gob_zero_"+slug, gobFrame(t, tag, msg))
			seed := 0
			filled, _ := transport.NewMessage(tag)
			fillValue(reflect.ValueOf(filled), &seed, 64)
			write("gob_filled_"+slug, gobFrame(t, tag, filled))
		}
	}
	write("empty", nil)
	write("varint_overflow", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
}
