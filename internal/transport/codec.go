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
// (Register). A record that implements Wire writes its own body: varints
// and length-prefixed strings and bytes, in the record's field order,
// with a record field in another record (the overlay's routed envelope)
// written as a nested frame of the same grammar. These are the live fast
// path's records: overlay.ping, overlay.pingAck, overlay.route,
// core.installChecking, core.softNotification and core.hardNotification.
// Every other record's body is its gob encoding by a fresh per-frame
// encoder, so those bodies are self-describing. Either way the body is
// appended after its tag, and its length is then put in front of it as
// a minimal uvarint: one way to frame every body. (Frames of older
// binaries padded a gob body's length to ten bytes with zero-payload
// continuation bytes; the same reader still parses them.)
//
// Compatibility holds within a run: both endpoints are built from the
// same binary, so they assign identical tags and write hand-written
// bodies field for field alike. Only gob bodies would also tolerate
// field-set evolution between binaries that share tags.
// A decoder meeting an unknown tag, an oversized length, a truncated
// frame, or a hand-written body whose fields run past its end or stop
// short of it returns a clean error (never panics); a transport tears
// the connection down, which the protocols above experience as an
// unreachable peer.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
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

// Wire is implemented by records that write their own frame body
// instead of gob's. AppendWire appends the body to b, with no length
// prefix: the codec frames it. ParseWire fills a fresh (or pooled,
// zeroed) record from p, which holds exactly one body; a field that runs
// past the body's end sets p's error, and the codec refuses a body the
// record did not read to its end.
type Wire interface {
	Message
	AppendWire(b []byte) ([]byte, error)
	ParseWire(p *Parser)
}

var (
	errShortBody    = errors.New("transport: field runs past the frame body's end")
	errTrailing     = errors.New("transport: bytes left over after the frame body's last field")
	errBadVarint    = errors.New("transport: malformed varint in frame body")
	errNestedFrame  = errors.New("transport: frame nested inside a nested frame")
	errValueTooWide = errors.New("transport: value exceeds its field's width")
)

// AppendFrame appends one framed message to buf, into its free capacity:
// a buffer reused across frames, as the connection writer reuses its own,
// takes the next frame without growing once it has held one as large.
func AppendFrame(buf *bytes.Buffer, msg Message) error {
	b, err := AppendMessage(buf.AvailableBuffer(), msg)
	if err != nil {
		return err
	}
	buf.Write(b)
	return nil
}

// AppendMessage appends msg to b as one frame: the registry tag, then the
// body (the record's own, or its gob encoding), then the body's length,
// put in front of the body. A Wire record uses it for a record field (nil
// appends an empty tag, which no record is registered under). On an error
// it returns b as it was.
func AppendMessage(b []byte, msg Message) ([]byte, error) {
	if msg == nil {
		return append(b, 0), nil
	}
	tag, ok := messageName(msg)
	if !ok {
		return b, fmt.Errorf("transport: unregistered message type %T", msg)
	}
	start := len(b)
	b = AppendString(b, tag)
	at := len(b)
	var err error
	if w, ok := msg.(Wire); ok {
		b, err = w.AppendWire(b)
	} else {
		gw := gobWriters.Get().(*bytes.Buffer)
		*gw = *bytes.NewBuffer(b)
		err = gob.NewEncoder(gw).Encode(msg)
		b = gw.Bytes()
		*gw = bytes.Buffer{}
		gobWriters.Put(gw)
	}
	if err != nil {
		return b[:start], fmt.Errorf("transport: encode %s: %w", tag, err)
	}
	n := len(b) - at
	if n > maxBodyLen {
		return b[:start], errBodyTooLong
	}
	// Make room for the body's length in front of it, then write it in.
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(n))
	b = append(b, lenBuf[:k]...)
	copy(b[at+k:], b[at:at+n])
	copy(b[at:], lenBuf[:k])
	return b, nil
}

// gobWriters recycles the writers a gob body is encoded into: one handed
// to the encoder, an interface, would otherwise escape to the heap on
// every frame. Each body gets a fresh encoder, so it describes its own
// types.
var gobWriters = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// AppendString appends s with its length in front.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with its length in front.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Parser reads the fields of one hand-written frame body, in the order
// AppendWire wrote them. Every read checks its length against what is
// left of the body; the first failure sticks, and every later read
// returns a zero value.
type Parser struct {
	b      []byte
	err    error
	nested bool // the body is a nested frame's: it may hold no frame itself
}

func (p *Parser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.b = nil
}

// skip moves past a varint that binary.Uvarint or binary.Varint read n
// bytes of, reporting whether there was one.
func (p *Parser) skip(n int) bool {
	switch {
	case n > 0:
		p.b = p.b[n:]
		return true
	case n == 0:
		p.fail(errShortBody)
	default:
		p.fail(errBadVarint)
	}
	return false
}

// Uvarint reads an unsigned varint.
func (p *Parser) Uvarint() uint64 {
	v, n := binary.Uvarint(p.b)
	if !p.skip(n) {
		return 0
	}
	return v
}

// Uint32 reads an unsigned varint that must fit 32 bits.
func (p *Parser) Uint32() uint32 {
	v := p.Uvarint()
	if v > math.MaxUint32 {
		p.fail(errValueTooWide)
		return 0
	}
	return uint32(v)
}

// Int reads a signed (zig-zag) varint, as binary.AppendVarint writes,
// that must fit an int.
func (p *Parser) Int() int {
	v, n := binary.Varint(p.b)
	if !p.skip(n) {
		return 0
	}
	if int64(int(v)) != v {
		p.fail(errValueTooWide)
		return 0
	}
	return int(v)
}

// take returns the next length-prefixed run of bytes, a view of the body.
func (p *Parser) take() []byte {
	n := p.Uvarint()
	if n > uint64(len(p.b)) {
		p.fail(errShortBody)
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (p *Parser) Str() string {
	return string(p.take())
}

// Bytes reads a length-prefixed byte slice into a copy of its own; an
// empty one reads as nil, as gob decodes it.
func (p *Parser) Bytes() []byte {
	if v := p.take(); len(v) > 0 {
		return bytes.Clone(v)
	}
	return nil
}

// Message reads a nested frame AppendMessage wrote: nil for its empty
// tag, else a record decoded from a body that must lie within this one.
func (p *Parser) Message() Message {
	tag := p.take()
	if len(tag) == 0 {
		return nil
	}
	if p.nested {
		p.fail(errNestedFrame)
		return nil
	}
	if len(tag) > maxTagLen {
		p.fail(errTagTooLong)
		return nil
	}
	body := p.take()
	if p.err != nil {
		return nil
	}
	msg, err := decode(tag, body, true)
	if err != nil {
		p.fail(err)
	}
	return msg
}

// decode returns a fresh record of tag filled from body: by the record's
// own parser when it is a Wire record, which must read the body to its
// end, else by gob.
func decode(tag, body []byte, nested bool) (Message, error) {
	e, ok := lookupTag(tag)
	if !ok {
		return nil, fmt.Errorf("transport: unknown message tag %q", string(tag))
	}
	msg := e.new()
	var err error
	if w, ok := msg.(Wire); ok {
		p := parsers.Get().(*Parser)
		*p = Parser{b: body, nested: nested}
		w.ParseWire(p)
		if err = p.err; err == nil && len(p.b) != 0 {
			err = errTrailing
		}
		*p = Parser{}
		parsers.Put(p)
	} else {
		err = gob.NewDecoder(bytes.NewReader(body)).Decode(msg)
	}
	if err != nil {
		ReleaseMessage(msg)
		return nil, fmt.Errorf("transport: decode %s: %w", e.name, err)
	}
	return msg, nil
}

// parsers recycles Parsers: one handed to a record's ParseWire, an
// interface call, would otherwise escape to the heap on every frame.
var parsers = sync.Pool{New: func() any { return new(Parser) }}

// ReadFrame reads one framed message, consulting the registry for the
// record to decode into. Any malformed input — unknown tag, length over
// bound, truncated tag/length/body, undecodable body — yields an error,
// never a panic; a clean EOF before the first byte of a frame is
// reported as io.EOF so the read loop can distinguish orderly close. A
// body that fits r's buffer is parsed in place there, so a record with a
// hand-written body allocates only itself and its own strings and byte
// slices.
func ReadFrame(r *bufio.Reader) (Message, error) {
	var tagBuf [maxTagLen]byte
	tag, err := readLenPrefixed(r, maxTagLen, errTagTooLong)
	if err != nil {
		return nil, err
	}
	tag = tagBuf[:copy(tagBuf[:], tag)] // reading the body may reuse r's buffer
	body, err := readLenPrefixed(r, maxBodyLen, errBodyTooLong)
	if err != nil {
		return nil, notEOF(err)
	}
	return decode(tag, body, false)
}

// readLenPrefixed reads a uvarint length bounded by max, then that many
// bytes: a view of r's buffer, valid until r's next read, when they fit
// it, else a slice of their own, grown by at most readChunk ahead of
// what arrived. io.EOF passes through only when not a single byte was
// read.
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
	if n := int(length); n <= r.Size() {
		buf, err := r.Peek(n)
		if err != nil {
			return nil, notEOF(err)
		}
		r.Discard(n) // cannot fail: the Peek above buffered all n bytes
		return buf, nil
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
