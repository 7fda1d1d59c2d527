// Package codec implements the binary wire format shared by every
// networked component in this repository: the group communication
// system, the PBS substrate, and the JOSHUA command protocol.
//
// The format is deliberately simple and self-contained (no reflection,
// no external schema): integers are encoded as unsigned or zig-zag
// varints, byte strings carry a varint length prefix, and messages sent
// over a stream are framed with a fixed 4-byte big-endian length.
//
// Encoding never fails. Decoding uses a sticky error: after the first
// malformed field every subsequent Get returns a zero value, and the
// caller checks Err once at the end. This keeps call sites linear and
// mirrors how the hand-written C marshalling in the original JOSHUA
// prototype (libjutils) was structured.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"time"
	"unsafe"
)

// Decoding errors. ErrTruncated is returned when the buffer ends in the
// middle of a field; ErrMalformed when a field is syntactically invalid
// (e.g. an over-long varint); ErrTooLarge when a length prefix exceeds
// the configured or remaining size.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrMalformed = errors.New("codec: malformed input")
	ErrTooLarge  = errors.New("codec: length prefix too large")
)

// MaxFrameSize bounds a single framed message. Larger frames are
// rejected by ReadFrame to keep a corrupt or hostile peer from forcing
// an unbounded allocation. 16 MiB comfortably holds the largest state
// transfer snapshot the JOSHUA layer produces.
const MaxFrameSize = 16 << 20

// Encoder appends fields to a byte slice. The zero value is ready to
// use; Bytes returns the accumulated buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder whose buffer has the given initial
// capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// maxPooledCapacity bounds the buffers retained by the encoder pool.
// Occasional giants (state-transfer snapshots) are let go to the GC
// rather than pinned for the life of the process.
const maxPooledCapacity = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty Encoder from a package-level pool, grown
// to at least the given capacity. Callers on hot paths pair it with
// Release once the encoded bytes have been handed off; the
// transport.Endpoint contract (payloads are not aliased after Send
// returns) is what makes releasing after a send safe.
func GetEncoder(capacity int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	if cap(e.buf) < capacity {
		e.buf = make([]byte, 0, capacity)
	}
	return e
}

// Release resets e and returns it to the pool. The Encoder, and any
// slice previously obtained from Bytes, must not be used afterwards.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledCapacity {
		return
	}
	e.buf = e.buf[:0]
	encoderPool.Put(e)
}

// Bytes returns the encoded buffer. The slice aliases the Encoder's
// internal storage and is invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint encodes an unsigned varint.
func (e *Encoder) PutUint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutInt encodes a signed integer as a zig-zag varint.
func (e *Encoder) PutInt(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutByte encodes a single raw byte.
func (e *Encoder) PutByte(b byte) {
	e.buf = append(e.buf, b)
}

// PutBool encodes a boolean as one byte (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutFloat encodes a float64 as its IEEE-754 bits, fixed 8 bytes.
func (e *Encoder) PutFloat(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutString encodes a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes encodes a length-prefixed byte slice. A nil slice encodes
// identically to an empty one.
func (e *Encoder) PutBytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutRaw appends pre-encoded bytes verbatim, with no length prefix.
// It splices a cached encoding (produced by a previous Encoder) into
// a message without re-walking the structures it encodes; the decoder
// must know the embedded layout.
func (e *Encoder) PutRaw(b []byte) {
	e.buf = append(e.buf, b...)
}

// PutRawString is PutRaw for pre-encoded bytes held in a string.
func (e *Encoder) PutRawString(s string) {
	e.buf = append(e.buf, s...)
}

// PutTime encodes a time.Time with nanosecond precision (Unix epoch).
// The zero time is encoded as a distinguished marker so it round-trips
// to a time for which IsZero reports true.
func (e *Encoder) PutTime(t time.Time) {
	if t.IsZero() {
		e.PutBool(true)
		return
	}
	e.PutBool(false)
	e.PutInt(t.Unix())
	e.PutInt(int64(t.Nanosecond()))
}

// PutDuration encodes a time.Duration.
func (e *Encoder) PutDuration(d time.Duration) {
	e.PutInt(int64(d))
}

// PutStringSlice encodes a count followed by each string.
func (e *Encoder) PutStringSlice(ss []string) {
	e.PutUint(uint64(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// SizeUint is the number of bytes PutUint(v) writes.
func SizeUint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeInt is the number of bytes PutInt(v) (and PutDuration) writes.
func SizeInt(v int64) int { return SizeUint(uint64(v<<1) ^ uint64(v>>63)) }

// SizeString is the number of bytes PutString(s) writes.
func SizeString(s string) int { return SizeUint(uint64(len(s))) + len(s) }

// SizeTime is the number of bytes PutTime(t) writes.
func SizeTime(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + SizeInt(t.Unix()) + SizeInt(int64(t.Nanosecond()))
}

// Decoder consumes fields from a byte slice with a sticky error.
type Decoder struct {
	buf []byte
	off int
	err error
	// text is buf itself as a string after ViewStrings, for Text to
	// slice. Empty otherwise (and for an empty buf, where slicing and
	// converting agree).
	text string
}

// NewDecoder returns a Decoder reading from b. The Decoder does not
// copy b; the caller must not mutate it during decoding.
func NewDecoder(b []byte) *Decoder {
	return &Decoder{buf: b}
}

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or if unconsumed bytes
// remain, which usually indicates a version mismatch between peers.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint decodes an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrMalformed)
		}
		return 0
	}
	d.off += n
	return v
}

// Int decodes a zig-zag varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrMalformed)
		}
		return 0
	}
	d.off += n
	return v
}

// Byte decodes a single raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool decodes a boolean. Any nonzero byte decodes as true.
func (d *Decoder) Bool() bool {
	return d.Byte() != 0
}

// Float decodes a fixed 8-byte IEEE-754 float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String decodes a length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes()
	return string(b)
}

// ViewStrings makes Text (and StringSlice) return strings over the
// input itself, without copying or allocating: a message decoded into
// many strings costs nothing, and every string it yields keeps the
// whole input alive. It is only for an input the caller owns and that
// nothing writes again, such as a received transport.Message's
// Payload, since a later write to the input would change strings the
// language holds immutable. Decode any other input with String, or
// copy what is kept.
func (d *Decoder) ViewStrings() {
	if len(d.buf) > 0 {
		d.text = unsafe.String(unsafe.SliceData(d.buf), len(d.buf))
	}
}

// Text decodes a length-prefixed string like String. After
// ViewStrings it returns a substring of the input without allocating;
// otherwise it converts, exactly as String does. String is kept
// separate on purpose: its inlined conversion lets a caller whose
// string does not escape keep it on the stack, which a call through
// Text would prevent.
func (d *Decoder) Text() string {
	b := d.Bytes()
	if d.text == "" {
		return string(b)
	}
	return d.text[d.off-len(b) : d.off]
}

// Bytes decodes a length-prefixed byte slice. The returned slice
// aliases the Decoder's input buffer.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Time decodes a time.Time written by PutTime.
func (d *Decoder) Time() time.Time {
	if d.Bool() {
		return time.Time{}
	}
	sec := d.Int()
	nsec := d.Int()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, nsec)
}

// Duration decodes a time.Duration.
func (d *Decoder) Duration() time.Duration {
	return time.Duration(d.Int())
}

// StringSlice decodes a slice written by PutStringSlice. Its strings
// are views into the input after ViewStrings (see Text).
func (d *Decoder) StringSlice() []string {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) { // each string needs at least a length byte
		d.fail(ErrTooLarge)
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ss = append(ss, d.Text())
	}
	if d.err != nil {
		return nil
	}
	return ss
}

// WriteFrame writes a 4-byte big-endian length prefix followed by the
// payload. It refuses payloads larger than MaxFrameSize.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame written by WriteFrame into
// a fresh buffer, reading the length prefix into hdr: a reader of many
// frames passes one hdr for all of them, where a header of its own
// would escape through r and cost an allocation per frame. It returns
// io.EOF when the stream ends cleanly at a frame boundary and
// io.ErrUnexpectedEOF when it ends mid-frame.
func ReadFrame(r io.Reader, hdr *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
