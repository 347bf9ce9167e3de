// Package wire is the flat binary codec the persisted shard segments and
// trust columns share: fixed-width little-endian scalars and length-prefixed
// arrays, with no reflection or per-element type information.
//
// An Encoder streams into an io.Writer through one fixed-size chunk buffer,
// so encoding never holds a second copy of the payload. A Decoder parses a
// byte slice already in memory and checks every length prefix against the
// bytes that remain before it allocates, so a truncated or hostile input
// fails with an error instead of a huge allocation. Both keep the first
// error and turn every later call into a no-op; callers check Err (or the
// result of Flush) once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// chunk is the encoder's flush threshold: large enough that the per-write
// syscall cost vanishes, small enough to stay in cache.
const chunk = 64 << 10

// Encoder writes the flat format to an io.Writer.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// NewEncoder returns an encoder writing to w. Call Flush when done.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, chunk+8)}
}

// spill writes the buffered bytes once they pass the chunk threshold.
func (e *Encoder) spill() {
	if len(e.buf) >= chunk {
		e.flush()
	}
}

func (e *Encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// Raw writes p verbatim (a magic number, say).
func (e *Encoder) Raw(p []byte) {
	e.buf = append(e.buf, p...)
	e.spill()
}

// Uint64 writes v as 8 little-endian bytes.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	e.spill()
}

// Int64 writes v as 8 little-endian bytes (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool writes v as one byte.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
	e.spill()
}

// Float64s writes a length prefix and then each value's IEEE-754 bits.
func (e *Encoder) Float64s(v []float64) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
		e.spill()
	}
}

// Uint32s writes a length prefix and then each value as 4 little-endian
// bytes — the encoding of ids and counts, which are non-negative and below
// 2^32. A value outside that range fails the encoder.
func (e *Encoder) Uint32s(v []int) {
	e.Uint64(uint64(len(v)))
	for _, x := range v {
		if x < 0 || x > math.MaxUint32 {
			if e.err == nil {
				e.err = fmt.Errorf("wire: value %d does not fit in 32 bits", x)
			}
			return
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(x))
		e.spill()
	}
}

// Flush writes any buffered bytes and returns the first error seen.
func (e *Encoder) Flush() error {
	e.flush()
	return e.err
}

// errTruncated reports input that ends before the value being read.
var errTruncated = errors.New("wire: truncated input")

// Decoder reads the flat format from a byte slice.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b. Decoded slices are fresh copies; b
// may be reused once decoding ends.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first error seen.
func (d *Decoder) Err() error { return d.err }

// Fail records err (if no earlier error is on record), so a caller's own
// validation failure stops the decode like a format error does.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) }

// take consumes n bytes, or fails with errTruncated.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.err = errTruncated
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// Raw consumes n bytes and returns them (a view into the input).
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Uint64 reads 8 little-endian bytes.
func (d *Decoder) Uint64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int64 reads 8 little-endian bytes as a two's-complement integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads an Int64 and fails unless it fits in [0, max].
func (d *Decoder) Int(max int) int {
	v := d.Int64()
	if d.err == nil && (v < 0 || v > int64(max)) {
		d.err = fmt.Errorf("wire: value %d out of range [0,%d]", v, max)
		return 0
	}
	return int(v)
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.err = fmt.Errorf("wire: invalid bool byte %d", p[0])
		return false
	}
	return p[0] == 1
}

// count reads an array length prefix and checks that the remaining input
// holds that many elements of the given width — before anything allocates.
func (d *Decoder) count(width int) int {
	n := d.Uint64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/width) {
		d.err = fmt.Errorf("wire: array of %d elements overruns the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Float64s reads a length-prefixed float array.
func (d *Decoder) Float64s() []float64 {
	n := d.count(8)
	p := d.take(8 * n)
	if p == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// Uint32s reads a length-prefixed array of 32-bit unsigned values.
func (d *Decoder) Uint32s() []int {
	n := d.count(4)
	p := d.take(4 * n)
	if p == nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}
