package trust

import (
	"fmt"
	"sort"
	"sync"
)

// Reader is the read-only surface the reputation evaluations
// (WeightedColumn, the GCLR references, the service's query path) need from
// trust state. Matrix implements it; so do the frozen per-shard Columns and
// the composite view the sharded service stitches from them, which is how
// one evaluation path serves both the monolithic and the sharded pipeline.
type Reader interface {
	// N is the node-id bound.
	N() int
	// Get returns t_ij and whether the entry exists.
	Get(i, j int) (float64, bool)
	// Value returns t_ij, or 0 when absent.
	Value(i, j int) float64
	// ColumnSum returns (Σ_i t_ij, raterCount) for column j.
	ColumnSum(j int) (float64, int)
	// InteractedWith returns the sorted ids node i holds direct trust about.
	InteractedWith(i int) []int
}

var (
	_ Reader = (*Matrix)(nil)
	_ Reader = (*Columns)(nil)
)

// Columns is a frozen, column-major slice of a trust matrix: the direct
// trust data for a subset of subjects, indexed both by column (rater lists
// in ascending order, as the gossip fold consumes them) and by row (so
// GCLR-style evaluations can walk an observer's ratings without scanning
// every column). The sharded service publishes one Columns per shard
// snapshot; like a cloned Matrix it is immutable after construction, so any
// number of readers may share it without locks. The row index is built on
// the first row read (Get, Value, InteractedWith, RowOf), not at
// construction: a shard freeze that only feeds campaigns never pays for it.
//
// Reads for subjects outside the subset report "no entry" — the composite
// view dispatches each subject to the shard that owns it.
//
// Storage is compressed-sparse-column: all rater ids live in one flat []int
// and all values in one flat []float64, with the per-slot slices as
// contiguous subslice views into them. A shard's whole column set is then
// two allocations plus the views, entries of neighbouring subjects share
// cache lines, and total memory scales with the number of ratings — never
// with N×subjects.
type Columns struct {
	n        int
	subjects []int
	slot     map[int]int // subject -> position in subjects
	flatIDs  []int       // every rater id, slot by slot: the CSC backing
	flatVals []float64   // aligned with flatIDs
	raters   [][]int     // per slot, ascending; views into flatIDs
	vals     [][]float64 // aligned with raters; views into flatVals
	rowsOnce sync.Once
	rows     []map[int]float64 // rows[i][j] = t_ij restricted to subjects; built by rowIndex
}

// ColumnsOf freezes the given subject columns of m. The subjects must be
// distinct and in range; their order is preserved.
func ColumnsOf(m *Matrix, subjects []int) (*Columns, error) {
	return BuildColumns(m.n, subjects, m.RatersOfInto)
}

// BuildColumns freezes a Columns from any column source: appendCol(j, ids,
// vals) must append subject j's raters (strictly ascending, in [0,n)) and
// their values (in [0,1]) and return the grown slices. The source is
// trusted: its entries are not revalidated. The subjects must be distinct
// and in range; their order is preserved.
func BuildColumns(n int, subjects []int, appendCol func(j int, ids []int, vals []float64) ([]int, []float64)) (*Columns, error) {
	c, err := newColumnsShell(n, subjects)
	if err != nil {
		return nil, err
	}
	// Accumulate every column into one flat backing, then carve the per-slot
	// views — the CSC layout. Appends may reallocate the backing mid-build,
	// so the views are taken only after the last column lands.
	var ids []int
	var vals []float64
	offs := make([]int, len(c.subjects)+1)
	for s, j := range c.subjects {
		ids, vals = appendCol(j, ids, vals)
		offs[s+1] = len(ids)
	}
	c.attachFlat(ids, vals, offs)
	return c, nil
}

// attachFlat carves the per-slot column views out of one flat (ids, vals)
// backing, slot s owning [offs[s], offs[s+1]). Full-capacity slicing keeps a
// stray append on one view from clobbering its neighbour.
func (c *Columns) attachFlat(ids []int, vals []float64, offs []int) {
	c.flatIDs, c.flatVals = ids, vals
	for s := range c.subjects {
		lo, hi := offs[s], offs[s+1]
		c.raters[s] = ids[lo:hi:hi]
		c.vals[s] = vals[lo:hi:hi]
	}
}

// NewColumns assembles a frozen Columns from raw per-subject rater lists.
// Each raters[s] must be strictly ascending with values in [0,1]; the
// entries are compacted into the flat CSC backing, so the input slices stay
// the caller's.
func NewColumns(n int, subjects []int, raters [][]int, vals [][]float64) (*Columns, error) {
	if len(raters) != len(subjects) || len(vals) != len(subjects) {
		return nil, fmt.Errorf("trust: columns payload has %d/%d columns, want %d", len(raters), len(vals), len(subjects))
	}
	var flatIDs []int
	var flatVals []float64
	counts := make([]int, len(subjects))
	for s := range subjects {
		if len(raters[s]) != len(vals[s]) {
			return nil, fmt.Errorf("trust: column %d has %d raters but %d values", subjects[s], len(raters[s]), len(vals[s]))
		}
		counts[s] = len(raters[s])
		flatIDs = append(flatIDs, raters[s]...)
		flatVals = append(flatVals, vals[s]...)
	}
	return newColumnsFlat(n, subjects, counts, flatIDs, flatVals)
}

// newColumnsFlat assembles a frozen Columns over one flat (ids, vals)
// backing, which it keeps: slot s owns the next counts[s] entries. It is the
// decode path of the flat wire format, so it checks everything — shape,
// ranges, rater order and values.
func newColumnsFlat(n int, subjects, counts, ids []int, vals []float64) (*Columns, error) {
	c, err := newColumnsShell(n, subjects)
	if err != nil {
		return nil, err
	}
	if len(counts) != len(subjects) || len(ids) != len(vals) {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	offs := make([]int, len(subjects)+1)
	for s, cnt := range counts {
		// Subtraction form: offs[s]+cnt can overflow on a hostile count.
		if cnt < 0 || cnt > len(ids)-offs[s] {
			return nil, fmt.Errorf("trust: malformed columns payload")
		}
		offs[s+1] = offs[s] + cnt
		prev := -1
		for k := offs[s]; k < offs[s+1]; k++ {
			i, v := ids[k], vals[k]
			if i < 0 || i >= n {
				return nil, fmt.Errorf("trust: column %d rater %d out of range [0,%d)", subjects[s], i, n)
			}
			if i <= prev {
				return nil, fmt.Errorf("trust: column %d raters not strictly ascending", subjects[s])
			}
			if !(v >= 0 && v <= 1) { // rejects NaN too
				return nil, fmt.Errorf("trust: column %d value %v out of [0,1]", subjects[s], v)
			}
			prev = i
		}
	}
	if offs[len(subjects)] != len(ids) {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	c.attachFlat(ids, vals, offs)
	return c, nil
}

func newColumnsShell(n int, subjects []int) (*Columns, error) {
	c := &Columns{
		n:        n,
		subjects: append([]int(nil), subjects...),
		slot:     make(map[int]int, len(subjects)),
		raters:   make([][]int, len(subjects)),
		vals:     make([][]float64, len(subjects)),
	}
	for s, j := range c.subjects {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("trust: subject %d out of range [0,%d)", j, n)
		}
		if _, dup := c.slot[j]; dup {
			return nil, fmt.Errorf("trust: duplicate subject %d", j)
		}
		c.slot[j] = s
	}
	return c, nil
}

// rowIndex returns the row index, deriving it from the column data on
// first use. Concurrent first readers block until the one build finishes,
// then all share it.
func (c *Columns) rowIndex() []map[int]float64 {
	c.rowsOnce.Do(func() {
		rows := make([]map[int]float64, c.n)
		for s, j := range c.subjects {
			for k, i := range c.raters[s] {
				if rows[i] == nil {
					rows[i] = make(map[int]float64)
				}
				rows[i][j] = c.vals[s][k]
			}
		}
		c.rows = rows
	})
	return c.rows
}

// N returns the node-id bound.
func (c *Columns) N() int { return c.n }

// Subjects returns the frozen subject set in construction order. The caller
// must not mutate it.
func (c *Columns) Subjects() []int { return c.subjects }

// Covers reports whether subject j is part of this column set.
func (c *Columns) Covers(j int) bool {
	_, ok := c.slot[j]
	return ok
}

// Column returns subject j's rater ids (ascending) and values, or nils when
// j is not covered. The caller must not mutate the returned slices.
func (c *Columns) Column(j int) ([]int, []float64) {
	s, ok := c.slot[j]
	if !ok {
		return nil, nil
	}
	return c.raters[s], c.vals[s]
}

// ColumnAt returns slot s's data — the encode path's accessor.
func (c *Columns) ColumnAt(s int) (subject int, raters []int, vals []float64) {
	return c.subjects[s], c.raters[s], c.vals[s]
}

// Get returns t_ij and whether i has rated j (false for uncovered subjects).
func (c *Columns) Get(i, j int) (float64, bool) {
	if i < 0 || i >= c.n {
		return 0, false
	}
	v, ok := c.rowIndex()[i][j]
	return v, ok
}

// Value returns t_ij, or 0 when absent or uncovered.
func (c *Columns) Value(i, j int) float64 {
	v, _ := c.Get(i, j)
	return v
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j (zeros when
// uncovered).
func (c *Columns) ColumnSum(j int) (float64, int) {
	s, ok := c.slot[j]
	if !ok {
		return 0, 0
	}
	sum := 0.0
	for _, v := range c.vals[s] {
		sum += v
	}
	return sum, len(c.raters[s])
}

// InteractedWith returns the sorted subjects (within this column set) node i
// holds direct trust about.
func (c *Columns) InteractedWith(i int) []int {
	if i < 0 || i >= c.n {
		return nil
	}
	row := c.rowIndex()[i]
	if row == nil {
		return nil
	}
	out := make([]int, 0, len(row))
	for j := range row {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// RatersOfInto appends subject j's raters and values (ascending) to the
// given slices — the frozen counterpart of Matrix.RatersOfInto, so either
// can seed a gossip fold. Uncovered subjects append nothing.
func (c *Columns) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	s, ok := c.slot[j]
	if !ok {
		return ids, vals
	}
	return append(ids, c.raters[s]...), append(vals, c.vals[s]...)
}

// RowOf returns node i's entries restricted to this column set as a shared
// map (nil when empty). The caller must not mutate it; the composite view
// uses it to stitch an observer's full row across shards.
func (c *Columns) RowOf(i int) map[int]float64 {
	if i < 0 || i >= c.n {
		return nil
	}
	return c.rowIndex()[i]
}

// NumEntries returns the number of stored (rater, subject) pairs.
func (c *Columns) NumEntries() int {
	total := 0
	for _, r := range c.raters {
		total += len(r)
	}
	return total
}
