package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip: every value written decodes to the same bits, across the
// encoder's chunk boundary.
func TestRoundTrip(t *testing.T) {
	floats := make([]float64, 3*chunk/8)
	for i := range floats {
		floats[i] = float64(i) / 7
	}
	floats[1] = math.Copysign(0, -1)
	floats[2] = math.Inf(-1)
	ids := []int{0, 1, math.MaxUint32}

	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Raw([]byte("MAGIC"))
	e.Uint64(math.MaxUint64)
	e.Int64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Float64s(floats)
	e.Uint32s(ids)
	e.Float64s(nil)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(buf.Bytes())
	if got := string(d.Raw(5)); got != "MAGIC" {
		t.Fatalf("raw %q", got)
	}
	if d.Uint64() != math.MaxUint64 || d.Int64() != -42 || !d.Bool() || d.Bool() {
		t.Fatal("scalars drifted")
	}
	gotF := d.Float64s()
	if len(gotF) != len(floats) {
		t.Fatalf("decoded %d floats, want %d", len(gotF), len(floats))
	}
	for i := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float %d drifted", i)
		}
	}
	if got := d.Uint32s(); !reflect.DeepEqual(got, ids) {
		t.Fatalf("ids %v, want %v", got, ids)
	}
	if got := d.Float64s(); len(got) != 0 {
		t.Fatalf("empty array decoded to %v", got)
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", d.Err(), d.Len())
	}
}

// TestEncoderRejectsWideIDs: an id outside 32 bits fails the encoder
// instead of being truncated on the wire.
func TestEncoderRejectsWideIDs(t *testing.T) {
	for _, v := range []int{-1, math.MaxUint32 + 1} {
		e := NewEncoder(&bytes.Buffer{})
		e.Uint32s([]int{v})
		if e.Flush() == nil {
			t.Errorf("id %d encoded", v)
		}
	}
}

// TestDecoderRejectsBadInput: truncation, invalid bools, out-of-range ints,
// and length prefixes the input cannot back — including ones whose byte
// size overflows — all fail without allocating for them, and the first
// error sticks.
func TestDecoderRejectsBadInput(t *testing.T) {
	prefix := func(n uint64, tail int) []byte {
		b := binary.LittleEndian.AppendUint64(nil, n)
		return append(b, make([]byte, tail)...)
	}
	cases := map[string]func(*Decoder){
		"short scalar": func(d *Decoder) { d.Uint64() },
		"bool byte 2":  func(d *Decoder) { d.Bool() },
		"int range":    func(d *Decoder) { d.Int(3) },
		"float prefix": func(d *Decoder) { d.Float64s() },
		"id prefix":    func(d *Decoder) { d.Uint32s() },
		"float wrap":   func(d *Decoder) { d.Float64s() },
		"id wrap":      func(d *Decoder) { d.Uint32s() },
	}
	inputs := map[string][]byte{
		"short scalar": {1, 2, 3},
		"bool byte 2":  {2},
		"int range":    prefix(4, 0),
		"float prefix": prefix(3, 16),
		"id prefix":    prefix(5, 16),
		// 8·(2^61+1) and 4·(2^62+1) wrap to 8 and 4 bytes in 64-bit
		// arithmetic; the prefix check must not be fooled.
		"float wrap": prefix(1<<61+1, 8),
		"id wrap":    prefix(1<<62+1, 4),
	}
	for name, read := range cases {
		d := NewDecoder(inputs[name])
		read(d)
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		first := d.Err()
		d.Uint64()
		if !errors.Is(d.Err(), first) {
			t.Errorf("%s: error did not stick", name)
		}
	}
}
