package transport

// Wire codec: the one byte format every byte-oriented transport speaks.
// Frames name the typed Message union's records explicitly, by registry
// tag, and the sender address travels once per connection, so no payload
// goes through gob's interface machinery (an allocation-heavy reflection
// path) and no frame repeats the sender:
//
//	connection: header frame*
//	header:     uvarint(len(from)) from           — sent once per connection
//	frame:      uvarint(len(tag)) tag uvarint(len(body)) body
//
// where tag is the stable name the message type was registered under
// (Register) and body is the gob encoding of the concrete record by a
// fresh per-frame encoder, so every body is self-describing.
// Compatibility holds within a run: both endpoints are built from the
// same binary, so they assign identical tags, and gob's self-describing
// bodies tolerate field-set evolution between binaries that share tags.
// A decoder meeting an unknown tag, an oversized length, or a truncated
// frame returns a clean error (never panics); a transport tears the
// connection down, which the protocols above experience as an
// unreachable peer.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Frame-sanity bounds. They exist so a corrupt or adversarial length
// prefix fails fast instead of provoking a giant allocation; legitimate
// FUSE traffic (20-byte hashes, membership lists) sits orders of
// magnitude below them.
const (
	maxTagLen  = 255
	maxFromLen = 1 << 10
	maxBodyLen = 16 << 20
)

// readChunk caps how far a read runs ahead of the bytes received: a body
// is read in slices of at most this size, so a length prefix that
// announces more than the peer sends costs at most one slice.
const readChunk = 64 << 10

var (
	errTagTooLong  = errors.New("transport: frame tag exceeds length bound")
	errFromTooLong = errors.New("transport: connection header exceeds length bound")
	errBodyTooLong = errors.New("transport: frame body exceeds length bound")
)

// WriteHeader sends the one-per-connection sender address.
func WriteHeader(w *bufio.Writer, from Addr) error {
	if len(from) > maxFromLen {
		return errFromTooLong
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(from)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.WriteString(string(from))
	return err
}

// ReadHeader reads the sender address a dialing peer announced.
func ReadHeader(r *bufio.Reader) (Addr, error) {
	b, err := readLenPrefixed(r, maxFromLen, errFromTooLong)
	if err != nil {
		return "", err
	}
	return Addr(b), nil
}

// AppendFrame appends one framed message to buf: the registry tag, then a
// length-prefixed self-describing gob body. buf is reused across frames
// by the connection writer.
func AppendFrame(buf *bytes.Buffer, msg Message) error {
	tag, ok := messageName(msg)
	if !ok {
		return fmt.Errorf("transport: unregistered message type %T", msg)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(tag)))
	buf.Write(lenBuf[:n])
	buf.WriteString(tag)

	// Reserve a fixed-width length slot, gob straight into the buffer,
	// then fill the slot in: one encode pass, no second body copy.
	lenAt := buf.Len()
	buf.Write(lenBuf[:binary.MaxVarintLen64])
	bodyAt := buf.Len()
	if err := gob.NewEncoder(buf).Encode(msg); err != nil {
		return fmt.Errorf("transport: encode %s: %w", tag, err)
	}
	bodyLen := buf.Len() - bodyAt
	if bodyLen > maxBodyLen {
		return errBodyTooLong
	}
	putUvarintPadded(buf.Bytes()[lenAt:bodyAt], uint64(bodyLen))
	return nil
}

// putUvarintPadded writes v into slot using continuation-padded varint
// encoding: the standard uvarint bytes, then 0x80 continuation bytes
// carrying zero payload up to the fixed width. Decoders using the
// standard binary.ReadUvarint accept this form unchanged.
func putUvarintPadded(slot []byte, v uint64) {
	for i := 0; i < len(slot)-1; i++ {
		slot[i] = byte(v)&0x7f | 0x80
		v >>= 7
	}
	slot[len(slot)-1] = byte(v) & 0x7f
}

// ReadFrame reads one framed message, consulting the registry for the
// record to gob-decode into. Any malformed input — unknown tag, length
// over bound, truncated tag/length/body, undecodable gob — yields an
// error, never a panic; a clean EOF before the first byte of a frame is
// reported as io.EOF so the read loop can distinguish orderly close.
func ReadFrame(r *bufio.Reader) (Message, error) {
	tag, err := readLenPrefixed(r, maxTagLen, errTagTooLong)
	if err != nil {
		return nil, err
	}
	body, err := readLenPrefixed(r, maxBodyLen, errBodyTooLong)
	if err != nil {
		return nil, notEOF(err)
	}
	msg, ok := NewMessage(string(tag))
	if !ok {
		return nil, fmt.Errorf("transport: unknown message tag %q", tag)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(msg); err != nil {
		ReleaseMessage(msg)
		return nil, fmt.Errorf("transport: decode %s: %w", tag, err)
	}
	return msg, nil
}

// readLenPrefixed reads a uvarint length bounded by max, then that many
// bytes, growing the buffer by at most readChunk ahead of what arrived.
// io.EOF passes through only when not a single byte was read.
func readLenPrefixed(r *bufio.Reader, max int, overflow error) ([]byte, error) {
	first := true
	length := uint64(0)
	for shift := 0; ; shift += 7 {
		b, err := r.ReadByte()
		if err != nil {
			if first && err == io.EOF {
				return nil, io.EOF
			}
			return nil, notEOF(err)
		}
		first = false
		if shift > 63 || (shift == 63 && b > 1) {
			return nil, overflow // > 10 bytes, or bits beyond uint64 in the 10th
		}
		length |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if length > uint64(max) {
		return nil, overflow
	}
	buf := make([]byte, 0, min(int(length), readChunk))
	for len(buf) < int(length) {
		n := min(int(length)-len(buf), readChunk)
		buf = slices.Grow(buf, n)[:len(buf)+n]
		if _, err := io.ReadFull(r, buf[len(buf)-n:]); err != nil {
			return nil, notEOF(err)
		}
	}
	return buf, nil
}

// notEOF converts a mid-frame io.EOF into io.ErrUnexpectedEOF so callers
// can tell truncation from orderly close.
func notEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
