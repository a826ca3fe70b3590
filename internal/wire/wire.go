// Package wire is the binary encoding of a snapshot file's state section
// (diva/snapstore): append-style encoders, one bounds-checked Reader that
// decodes straight from the in-memory section, and the codecs of variable
// values and queued message payloads, registered by kind byte.
//
// Integers are varints (zig-zag for signed ones) and floats, seeds and
// random stream positions fixed little-endian words. Encoding is
// deterministic: equal values give equal bytes.
//
// The Reader treats its input as hostile. A read past the end, an overlong
// varint, a value out of its type's range or a length longer than the bytes
// left can hold sets the Reader's error, and every later read returns
// zero — so a decoder reads on and checks Err once. A length is checked
// before anything is allocated for it: no input makes a decoder allocate
// more elements than its remaining bytes could encode.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends x as an unsigned varint.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendInt appends x as a signed (zig-zag) varint.
func AppendInt(b []byte, x int) []byte { return binary.AppendVarint(b, int64(x)) }

// AppendInt32 appends x as a signed (zig-zag) varint.
func AppendInt32(b []byte, x int32) []byte { return binary.AppendVarint(b, int64(x)) }

// AppendUint32 appends x as an unsigned varint.
func AppendUint32(b []byte, x uint32) []byte { return binary.AppendUvarint(b, uint64(x)) }

// AppendUint64 appends x as a fixed little-endian word.
func AppendUint64(b []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(b, x) }

// AppendFloat64 appends f's bits as a fixed little-endian word.
func AppendFloat64(b []byte, f float64) []byte { return AppendUint64(b, math.Float64bits(f)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendSlice appends s's length, then each element as enc writes it.
func AppendSlice[E any](b []byte, s []E, enc func([]byte, E) []byte) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	for _, e := range s {
		b = enc(b, e)
	}
	return b
}

// Reader decodes a byte slice. Its zero value reads nothing; NewReader
// starts one on a slice, which it aliases.
type Reader struct {
	b   []byte
	n   int // len of the original input, for error offsets
	err error
}

// NewReader returns a Reader of b.
func NewReader(b []byte) *Reader { return &Reader{b: b, n: len(b)} }

// Err returns the first error a read met, nil if none.
func (r *Reader) Err() error { return r.err }

// Finish returns the Reader's error or, if every read succeeded, an error
// if any input is left unread.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Fail sets the Reader's error, unless it has one, to a decoding error at
// the current byte — for a decoder that finds a value out of its range —
// and stops every later read.
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: byte %d: %s", r.n-len(r.b), fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// Bytes returns the next n bytes, aliasing the input: a decoder copies
// what it keeps, since the store reuses a file's buffer once Load returns.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// Rest returns every byte not yet read, aliasing the input (see Bytes).
func (r *Reader) Rest() []byte { return r.Bytes(len(r.b)) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail("byte wanted, none left")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte %d", c)
		return false
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[k:]
	return x
}

// Int reads a signed varint.
func (r *Reader) Int() int {
	x, k := binary.Varint(r.b)
	if k <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[k:]
	if int64(int(x)) != x {
		r.fail("integer %d out of range", x)
		return 0
	}
	return int(x)
}

// Int32 reads a signed varint in int32's range.
func (r *Reader) Int32() int32 {
	x := r.Int()
	if int(int32(x)) != x {
		r.fail("integer %d out of int32 range", x)
		return 0
	}
	return int32(x)
}

// Uint32 reads an unsigned varint in uint32's range.
func (r *Reader) Uint32() uint32 {
	x := r.Uvarint()
	if x > math.MaxUint32 {
		r.fail("integer %d out of uint32 range", x)
		return 0
	}
	return uint32(x)
}

// Uint16 reads an unsigned varint in uint16's range.
func (r *Reader) Uint16() uint16 {
	x := r.Uvarint()
	if x > math.MaxUint16 {
		r.fail("integer %d out of uint16 range", x)
		return 0
	}
	return uint16(x)
}

// Uint64 reads a fixed little-endian word.
func (r *Reader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.fail("word wanted, %d bytes left", len(r.b))
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// Float64 reads a word of float64 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Len reads a count of elements that take at least size bytes each, and
// fails unless the bytes left can hold that many.
func (r *Reader) Len(size int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail("%d elements of at least %d bytes, %d bytes left", n, size, len(r.b))
		return 0
	}
	return int(n)
}

// fits reports whether the bytes left can hold n elements of at least
// size bytes each, failing if not.
func (r *Reader) fits(n, size int) bool {
	if n > len(r.b)/size {
		r.fail("%d elements of at least %d bytes, %d bytes left", n, size, len(r.b))
		return false
	}
	return true
}

// ReadSlice reads what AppendSlice wrote: a length, checked against the
// bytes left for elements of at least size bytes, then each element as dec
// reads it. An empty slice reads as nil.
func ReadSlice[E any](r *Reader, size int, dec func(*Reader) E) []E {
	n := r.Len(size)
	if n == 0 {
		return nil
	}
	s := make([]E, n)
	for i := range s {
		s[i] = dec(r)
	}
	return s
}
