package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// The codec's bounds and length errors, tested from inside the package.
// Round trips over the full protocol union, which need every protocol
// package's registrations, and the fuzz corpus are tcpnet's wire tests.

func decodeFromBytes(data []byte) (Message, error) {
	return ReadFrame(bufio.NewReader(bytes.NewReader(data)))
}

func TestDecodeRejectsOversizedLengths(t *testing.T) {
	// A tag length over the bound, encoded as a huge uvarint.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeFromBytes(huge); err != errTagTooLong {
		t.Fatalf("err = %v, want errTagTooLong", err)
	}
	// A valid tag followed by a body length over the bound: must fail on
	// the length alone, without trying to allocate or read the body.
	var buf bytes.Buffer
	buf.WriteByte(12)
	buf.WriteString("overlay.ping")
	buf.Write(huge)
	if _, err := decodeFromBytes(buf.Bytes()); err != errBodyTooLong {
		t.Fatalf("err = %v, want errBodyTooLong", err)
	}
}

// TestTruncatedBodyAllocatesWhatArrived sends the decoder 20 bytes: a
// valid tag, a body length announcing maxBodyLen, then three body bytes
// and the end of the stream. What the decoder allocates must follow the
// bytes that arrived, not the length a peer claims.
func TestTruncatedBodyAllocatesWhatArrived(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(12)
	buf.WriteString("overlay.ping")
	buf.Write(binary.AppendUvarint(nil, maxBodyLen))
	buf.WriteString("abc")
	data := buf.Bytes()
	if len(data) != 20 {
		t.Fatalf("frame is %d bytes, want 20", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFromBytes(data)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding a 20-byte truncated frame allocated %d bytes, want < 1 MB", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	if err := WriteHeader(w, "10.0.0.7:9000"); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := ReadHeader(bufio.NewReader(&wire))
	if err != nil || got != "10.0.0.7:9000" {
		t.Fatalf("readHeader = %q, %v", got, err)
	}
	if err := WriteHeader(w, Addr(strings.Repeat("x", maxFromLen+1))); err != errFromTooLong {
		t.Fatalf("oversized header: err = %v, want errFromTooLong", err)
	}
}
