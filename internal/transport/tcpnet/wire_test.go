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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

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

// TestDecodeTruncatedFramesCleanError slices a valid frame at every
// prefix length: all must fail with a clean error (never a panic), and
// only the empty prefix may report io.EOF - mid-frame truncation is
// distinguishable as unexpected.
func TestDecodeTruncatedFramesCleanError(t *testing.T) {
	msg, _ := transport.NewMessage("overlay.ping")
	seed := 0
	fillValue(reflect.ValueOf(msg), &seed, 20)
	data := encodeToBytes(t, msg)
	for cut := 0; cut < len(data); cut++ {
		got, err := decodeFromBytes(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully: %#v", cut, len(data), got)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty input: err = %v, want io.EOF (orderly close)", err)
		}
		if cut > 0 && err == io.EOF {
			t.Fatalf("truncation at %d reported a clean EOF", cut)
		}
	}
	if _, err := decodeFromBytes(data); err != nil {
		t.Fatalf("untruncated frame failed: %v", err)
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

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzWireRoundTrip: a zero-value, a filled, and a
// truncated frame per registered protocol type, plus structural edge
// cases. The checked-in filled_overlay_ping and _pingAck predate those
// records' Link and PeerLink fields and stay as old-format frames a new
// decoder must accept; linked_overlay_ping and _pingAck are the same
// frames with both ids set. The *_rpcx_request and _response frames, and
// the *_swim_ping, _ack, _pingReq and _indirectAck frames, carry tags no
// package registers any more, and stay as frames a decoder must reject
// cleanly. It is a no-op unless
// GEN_FUZZ_CORPUS=1 is set:
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

		filled, _ := transport.NewMessage(tag)
		seed := 0
		fillValue(reflect.ValueOf(filled), &seed, 64)
		data := encodeToBytes(t, filled)
		write("filled_"+slug, data)
		write("truncated_"+slug, data[:len(data)/2])
	}
	write("empty", nil)
	write("varint_overflow", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
}
