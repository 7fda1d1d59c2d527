package codec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(64)
	e.PutUint(0)
	e.PutUint(math.MaxUint64)
	e.PutInt(-1)
	e.PutInt(math.MinInt64)
	e.PutInt(math.MaxInt64)
	e.PutByte(0xAB)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat(3.14159)
	e.PutFloat(math.Inf(-1))

	d := NewDecoder(e.Bytes())
	if got := d.Uint(); got != 0 {
		t.Errorf("Uint = %d, want 0", got)
	}
	if got := d.Uint(); got != math.MaxUint64 {
		t.Errorf("Uint = %d, want max", got)
	}
	if got := d.Int(); got != -1 {
		t.Errorf("Int = %d, want -1", got)
	}
	if got := d.Int(); got != math.MinInt64 {
		t.Errorf("Int = %d, want min", got)
	}
	if got := d.Int(); got != math.MaxInt64 {
		t.Errorf("Int = %d, want max", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %x, want ab", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool roundtrip failed")
	}
	if got := d.Float(); got != 3.14159 {
		t.Errorf("Float = %v", got)
	}
	if got := d.Float(); !math.IsInf(got, -1) {
		t.Errorf("Float = %v, want -Inf", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripStringsAndBytes(t *testing.T) {
	e := NewEncoder(0)
	e.PutString("")
	e.PutString("hello, 世界")
	e.PutBytes(nil)
	e.PutBytes([]byte{1, 2, 3})
	e.PutStringSlice([]string{"a", "", "ccc"})
	e.PutStringSlice(nil)

	d := NewDecoder(e.Bytes())
	if got := d.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("Bytes = %v, want empty", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	ss := d.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("StringSlice = %v", ss)
	}
	if got := d.StringSlice(); len(got) != 0 {
		t.Errorf("StringSlice = %v, want empty", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripTime(t *testing.T) {
	now := time.Unix(1136239445, 123456789)
	e := NewEncoder(0)
	e.PutTime(time.Time{})
	e.PutTime(now)
	e.PutDuration(42 * time.Millisecond)
	e.PutDuration(-time.Hour)

	d := NewDecoder(e.Bytes())
	if got := d.Time(); !got.IsZero() {
		t.Errorf("zero time decoded as %v", got)
	}
	if got := d.Time(); !got.Equal(now) {
		t.Errorf("Time = %v, want %v", got, now)
	}
	if got := d.Duration(); got != 42*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := d.Duration(); got != -time.Hour {
		t.Errorf("Duration = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01}) // one byte: a valid Uint, then empty
	if got := d.Uint(); got != 1 {
		t.Fatalf("Uint = %d", got)
	}
	_ = d.Uint() // truncated
	if d.Err() == nil {
		t.Fatal("expected sticky error after truncated read")
	}
	// All subsequent reads return zero values without panicking.
	if d.Uint() != 0 || d.Int() != 0 || d.String() != "" || d.Byte() != 0 {
		t.Error("post-error reads should return zero values")
	}
	if d.Finish() == nil {
		t.Error("Finish should report the sticky error")
	}
}

func TestDecoderTruncatedString(t *testing.T) {
	e := NewEncoder(0)
	e.PutString("hello")
	b := e.Bytes()[:3] // cut mid-string
	d := NewDecoder(b)
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("expected error for truncated string")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint(7)
	e.PutUint(8)
	d := NewDecoder(e.Bytes())
	if d.Uint() != 7 {
		t.Fatal("bad decode")
	}
	if err := d.Finish(); err == nil {
		t.Error("Finish should fail with trailing bytes")
	}
}

func TestStringSliceBogusCount(t *testing.T) {
	// A huge count with no payload must fail cleanly, not allocate.
	e := NewEncoder(0)
	e.PutUint(math.MaxUint64)
	d := NewDecoder(e.Bytes())
	if got := d.StringSlice(); got != nil {
		t.Errorf("StringSlice = %v, want nil", got)
	}
	if d.Err() == nil {
		t.Error("expected error for bogus count")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, new([4]byte))
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf, new([4]byte)); err != io.EOF {
		t.Errorf("final ReadFrame err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, big); err == nil {
		t.Error("WriteFrame should reject oversized payload")
	}
	// A forged header with an absurd length must be rejected on read.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr), new([4]byte)); err == nil {
		t.Error("ReadFrame should reject oversized header")
	}
}

func TestFrameMidStreamEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(cut), new([4]byte)); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// Property: any (uint, int, string, bytes, bool) tuple round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, ok bool, d int64) bool {
		e := NewEncoder(0)
		e.PutUint(u)
		e.PutInt(i)
		e.PutString(s)
		e.PutBytes(b)
		e.PutBool(ok)
		e.PutDuration(time.Duration(d))
		dec := NewDecoder(e.Bytes())
		gu := dec.Uint()
		gi := dec.Int()
		gs := dec.String()
		gb := dec.Bytes()
		gok := dec.Bool()
		gd := dec.Duration()
		if dec.Finish() != nil {
			return false
		}
		return gu == u && gi == i && gs == s && bytes.Equal(gb, b) &&
			gok == ok && gd == time.Duration(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics and either yields a
// value or a sticky error.
func TestQuickDecodeGarbage(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(b)
		_ = d.Uint()
		_ = d.String()
		_ = d.Time()
		_ = d.StringSlice()
		_ = d.Float()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: frames written back-to-back are recovered exactly.
func TestQuickFrameStream(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var buf bytes.Buffer
		for _, c := range chunks {
			if len(c) > MaxFrameSize {
				c = c[:MaxFrameSize]
			}
			if err := WriteFrame(&buf, c); err != nil {
				return false
			}
		}
		for _, want := range chunks {
			if len(want) > MaxFrameSize {
				want = want[:MaxFrameSize]
			}
			got, err := ReadFrame(&buf, new([4]byte))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := ReadFrame(&buf, new([4]byte))
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.PutString(strings.Repeat("x", 100))
	if e.Len() == 0 {
		t.Fatal("Len should be nonzero")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset should empty the buffer")
	}
	e.PutUint(5)
	d := NewDecoder(e.Bytes())
	if d.Uint() != 5 || d.Finish() != nil {
		t.Fatal("encoder unusable after Reset")
	}
}

func TestPooledEncoder(t *testing.T) {
	e := GetEncoder(32)
	if e.Len() != 0 {
		t.Fatal("pooled encoder should start empty")
	}
	e.PutString("hello")
	e.PutUint(42)
	d := NewDecoder(e.Bytes())
	if d.String() != "hello" || d.Uint() != 42 || d.Finish() != nil {
		t.Fatal("pooled encoder round trip failed")
	}
	e.Release()

	// A reused encoder must come back empty regardless of prior use.
	for i := 0; i < 100; i++ {
		e := GetEncoder(8)
		if e.Len() != 0 {
			t.Fatalf("iteration %d: reused encoder not empty (len %d)", i, e.Len())
		}
		e.PutUint(uint64(i))
		e.Release()
	}

	// Requested capacity is honored even when the pooled buffer was
	// smaller.
	big := GetEncoder(64 << 10)
	if cap(big.buf) < 64<<10 {
		t.Fatalf("capacity %d, want >= %d", cap(big.buf), 64<<10)
	}
	big.Release()

	// Oversized buffers are dropped rather than pinned in the pool;
	// Release must still be safe to call on them.
	huge := GetEncoder(2 << 20)
	huge.PutBytes(make([]byte, 2<<20))
	huge.Release()
}

func TestPooledEncoderConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e := GetEncoder(16)
				e.PutUint(uint64(g))
				e.PutUint(uint64(i))
				d := NewDecoder(e.Bytes())
				if d.Uint() != uint64(g) || d.Uint() != uint64(i) || d.Finish() != nil {
					panic("pooled encoder corrupted under concurrency")
				}
				e.Release()
			}
		}()
	}
	wg.Wait()
}

// sharedFixture encodes a mix of empty and non-empty strings, a string
// slice and non-string fields between them.
func sharedFixture() []byte {
	e := NewEncoder(0)
	e.PutString("")
	e.PutString("hello, 世界")
	e.PutUint(42)
	e.PutStringSlice([]string{"a", "", "ccc"})
	e.PutString("")
	e.PutBool(true)
	e.PutString("tail")
	return e.Bytes()
}

// decodeFixture reads sharedFixture's fields through text (String or
// Text) and returns them with the decoder's final error.
func decodeFixture(d *Decoder, text func() string) ([]string, error) {
	var out []string
	out = append(out, text(), text(), string(rune('0'+d.Uint()%10)))
	out = append(out, d.StringSlice()...)
	out = append(out, text())
	if d.Bool() {
		out = append(out, "true")
	}
	out = append(out, text())
	return out, d.Finish()
}

// TestTextMatchesString checks that Text after ViewStrings returns
// exactly what String returns — empty strings included — and that a
// truncated input fails the same way, with the same sticky error and
// zero values from then on.
func TestTextMatchesString(t *testing.T) {
	full := sharedFixture()
	for cut := len(full); cut >= 0; cut-- {
		in := full[:cut]
		plain := NewDecoder(in)
		want, wantErr := decodeFixture(plain, plain.String)
		d := NewDecoder(in)
		d.ViewStrings()
		got, gotErr := decodeFixture(d, d.Text)
		if !slices.Equal(got, want) || gotErr != wantErr {
			t.Fatalf("cut %d: Text gave %q (%v), String %q (%v)", cut, got, gotErr, want, wantErr)
		}
		if cut == len(full) && wantErr != nil {
			t.Fatalf("full input: %v", wantErr)
		}
		if cut < len(full) && wantErr == nil {
			t.Fatalf("cut %d: truncated input decoded without error", cut)
		}
	}

	// Without ViewStrings, Text converts just like String.
	d := NewDecoder(full)
	if got, err := decodeFixture(d, d.Text); err != nil || got[1] != "hello, 世界" {
		t.Fatalf("unviewed Text: %q, %v", got, err)
	}
}

// TestSizesMatchPut checks each Size function against the bytes its
// Put writes, at the varint boundaries and for times either side of
// the epoch.
func TestSizesMatchPut(t *testing.T) {
	check := func(what string, size int, put func(*Encoder)) {
		t.Helper()
		e := NewEncoder(0)
		put(e)
		if e.Len() != size {
			t.Errorf("%s: size %d, Put wrote %d", what, size, e.Len())
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		check(fmt.Sprintf("uint %d", v), SizeUint(v), func(e *Encoder) { e.PutUint(v) })
		for _, i := range []int64{int64(v), -int64(v), int64(v) - 1} {
			check(fmt.Sprintf("int %d", i), SizeInt(i), func(e *Encoder) { e.PutInt(i) })
		}
	}
	for _, i := range []int64{math.MinInt64, math.MaxInt64, -64, 63, -65, 64} {
		check(fmt.Sprintf("int %d", i), SizeInt(i), func(e *Encoder) { e.PutInt(i) })
	}
	for _, s := range []string{"", "x", strings.Repeat("y", 127), strings.Repeat("z", 128), strings.Repeat("w", 20000)} {
		check(fmt.Sprintf("string of %d", len(s)), SizeString(s), func(e *Encoder) { e.PutString(s) })
	}
	for _, tm := range []time.Time{{}, time.Unix(0, 0), time.Unix(0, 1), time.Unix(-1, 999999999), time.Unix(1<<40, 5e8), time.Date(2026, 7, 6, 12, 0, 0, 1, time.UTC)} {
		check(fmt.Sprintf("time %v", tm), SizeTime(tm), func(e *Encoder) { e.PutTime(tm) })
	}
}

// TestViewStringsAliasInput checks that strings decoded after
// ViewStrings lie inside the input itself, so that a whole message,
// string slice included, costs only the slice; and that an empty
// input, or one holding only an empty string, decodes as String does,
// without allocating.
func TestViewStringsAliasInput(t *testing.T) {
	in := sharedFixture()
	d := NewDecoder(in)
	d.ViewStrings()
	got, err := decodeFixture(d, d.Text)
	if err != nil || got[1] != "hello, 世界" || got[len(got)-1] != "tail" {
		t.Fatalf("decode: %q, %v", got, err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
	hi := lo + uintptr(len(in))
	d = NewDecoder(in)
	d.ViewStrings()
	views := []string{d.Text(), d.Text()}
	d.Uint()
	views = append(views, d.StringSlice()...)
	for _, s := range views {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && (p < lo || p+uintptr(len(s)) > hi) {
			t.Errorf("%q is not a view into the input", s)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(in)
		d.ViewStrings()
		d.Text()
		d.Text()
		d.Uint()
	})
	if allocs != 0 {
		t.Errorf("viewed decode: %v allocs, want 0", allocs)
	}

	for _, in := range [][]byte{nil, {}, {0}} {
		var s string
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			d := NewDecoder(in)
			d.ViewStrings()
			s = d.Text()
			err = d.Finish()
		})
		wantErr := error(nil)
		if len(in) == 0 {
			wantErr = ErrTruncated
		}
		if s != "" || err != wantErr || allocs != 0 {
			t.Errorf("input %v: Text %q, Finish %v, %v allocs; want \"\", %v, 0", in, s, err, allocs, wantErr)
		}
	}
}
