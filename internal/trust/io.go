package trust

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"diffgossip/internal/wire"
)

// matrixWire is the gob representation of a Matrix: a flat triple list, which
// stays compact for the sparse matrices the system produces.
type matrixWire struct {
	N       int
	I, J    []int
	V       []float64
	Version int
}

const wireVersion = 1

// maxWireN caps the node count accepted from a serialised matrix. Load
// allocates Θ(N) before reading any entries, so without a bound a corrupt
// or hostile file crashes the process with an out-of-range allocation
// instead of returning an error (found by fuzzing the snapshot decoder).
// 2^24 nodes is two orders of magnitude beyond the largest experiment and
// keeps the worst-case transient allocation at a few hundred megabytes.
const maxWireN = 1 << 24

// Save serialises the matrix with gob. Entries are written in deterministic
// (row, column) order so identical matrices produce identical bytes.
func (m *Matrix) Save(w io.Writer) error {
	wire := matrixWire{N: m.n, Version: wireVersion}
	for i := 0; i < m.n; i++ {
		for _, j := range m.InteractedWith(i) {
			wire.I = append(wire.I, i)
			wire.J = append(wire.J, j)
			wire.V = append(wire.V, m.rows[i][j])
		}
	}
	return gob.NewEncoder(w).Encode(wire)
}

// columnsWire is the version-1 (gob) representation of a frozen Columns,
// kept so data written before the flat format still decodes.
type columnsWire struct {
	N        int
	Subjects []int
	Counts   []int // entries per subject, parallel to Subjects
	I        []int // rater ids, concatenated in subject order
	V        []float64
	Version  int
}

// columnsMagic opens the flat columns encoding that replaced version-1 gob.
// Its first byte can never start a gob stream — gob's leading message
// length is either below 0x80 or a negated byte count of at most 8
// (0xf8–0xff) — so LoadColumns tells the two formats apart from the first
// byte.
var columnsMagic = []byte("\x89DGC")

// Save serialises the column set in the flat format (see Encode).
func (c *Columns) Save(w io.Writer) error {
	e := wire.NewEncoder(w)
	c.Encode(e)
	if err := e.Flush(); err != nil {
		return fmt.Errorf("trust: encode columns: %w", err)
	}
	return nil
}

// Encode appends the column set's flat encoding to e: the magic, N, the
// subject ids, the per-subject entry counts, then every rater id and every
// value in subject order (raters ascending). Identical column sets produce
// identical bytes.
func (c *Columns) Encode(e *wire.Encoder) {
	e.Raw(columnsMagic)
	e.Uint64(uint64(c.n))
	e.Uint32s(c.subjects)
	counts := make([]int, len(c.subjects))
	for s := range c.subjects {
		counts[s] = len(c.raters[s])
	}
	e.Uint32s(counts)
	e.Uint32s(c.flatIDs)
	e.Float64s(c.flatVals)
}

// DecodeColumns reads one flat column set from d, validating it exactly as
// NewColumns does. On failure it records the error in d and returns nil.
func DecodeColumns(d *wire.Decoder) *Columns {
	if magic := d.Raw(len(columnsMagic)); d.Err() == nil && !bytes.Equal(magic, columnsMagic) {
		d.Fail(fmt.Errorf("trust: not a flat columns payload"))
	}
	n := d.Int(maxWireN)
	subjects := d.Uint32s()
	counts := d.Uint32s()
	ids := d.Uint32s()
	vals := d.Float64s()
	if d.Err() != nil {
		return nil
	}
	c, err := newColumnsFlat(n, subjects, counts, ids, vals)
	if err != nil {
		d.Fail(err)
		return nil
	}
	return c
}

// LoadColumns deserialises a column set written by (*Columns).Save — or by
// the version-1 gob encoding that preceded it — validating shape, ranges and
// ordering.
func LoadColumns(r io.Reader) (*Columns, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trust: read columns: %w", err)
	}
	if bytes.HasPrefix(b, columnsMagic) {
		d := wire.NewDecoder(b)
		c := DecodeColumns(d)
		if d.Err() != nil {
			return nil, fmt.Errorf("trust: decode columns: %w", d.Err())
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("trust: %d trailing bytes after the columns payload", d.Len())
		}
		return c, nil
	}
	var cw columnsWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cw); err != nil {
		return nil, fmt.Errorf("trust: decode columns: %w", err)
	}
	if cw.Version != wireVersion {
		return nil, fmt.Errorf("trust: unsupported columns version %d", cw.Version)
	}
	if cw.N < 0 || cw.N > maxWireN || len(cw.Subjects) > cw.N {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	return newColumnsFlat(cw.N, cw.Subjects, cw.Counts, cw.I, cw.V)
}

// Load deserialises a matrix written by Save, validating every entry.
func Load(r io.Reader) (*Matrix, error) {
	var wire matrixWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("trust: decode: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("trust: unsupported matrix version %d", wire.Version)
	}
	if wire.N < 0 || len(wire.I) != len(wire.J) || len(wire.I) != len(wire.V) {
		return nil, fmt.Errorf("trust: malformed matrix payload")
	}
	if wire.N > maxWireN {
		return nil, fmt.Errorf("trust: matrix size %d exceeds the wire-format bound %d", wire.N, maxWireN)
	}
	m := NewMatrix(wire.N)
	for k := range wire.I {
		i, j := wire.I[k], wire.J[k]
		if i < 0 || i >= wire.N || j < 0 || j >= wire.N {
			return nil, fmt.Errorf("trust: entry (%d,%d) out of range", i, j)
		}
		if err := m.Set(i, j, wire.V[k]); err != nil {
			return nil, err
		}
	}
	return m, nil
}
