package store

import (
	"math"
	"sort"

	"diffgossip/internal/trust"
)

// Tag is the last-writer-wins (LWW) coordinate of one (rater, subject) cell
// write: writes to the same cell are ordered lexicographically by
// (UnixNano, Origin, Seq) — a total order every replica computes
// identically, so folds converge regardless of arrival order. The epoch fold
// (Cells.Apply) and WAL compaction (compactionKeep) both rank rival writes
// with it, so they can never disagree on a cell's winner.
type Tag struct {
	UnixNano int64
	Origin   string
	Seq      uint64
}

// Before reports whether t is strictly older than o in the LWW total order.
func (t Tag) Before(o Tag) bool {
	if t.UnixNano != o.UnixNano {
		return t.UnixNano < o.UnixNano
	}
	if t.Origin != o.Origin {
		return t.Origin < o.Origin
	}
	return t.Seq < o.Seq
}

// TagOf computes an entry's LWW tag. Locally accepted entries (empty Origin
// in the ledger) are stamped with localOrigin and their local sequence
// number — exactly the (origin, seq) pair they replicate under, so every
// replica orders the write identically.
func TagOf(fb Feedback, localOrigin string) Tag {
	if fb.Origin == "" {
		return Tag{UnixNano: fb.UnixNano, Origin: localOrigin, Seq: fb.Seq}
	}
	return Tag{UnixNano: fb.UnixNano, Origin: fb.Origin, Seq: fb.OriginSeq}
}

// noTag ranks at or before every real tag, so a cell that has recorded no
// write yet accepts any.
var noTag = Tag{UnixNano: math.MinInt64}

// cell is one (rater, subject) entry of the store. tag is the newest write
// on record for the cell; value is the folded rating, meaningful only when
// folded is set. A cell can carry a tag without a folded value — a write
// re-pended at boot, still waiting for its epoch — and must then stay out of
// every freeze.
type cell struct {
	rater  int
	value  float64
	tag    Tag
	folded bool
}

// Cells is the service's one store of direct-trust cell state: per subject,
// a rater-ascending slice of cells, each holding the folded value and its
// LWW tag. It is subject-major because Algorithm 1 seeds one push-sum
// campaign per subject from that subject's column, so freezing a shard's
// columns (Freeze) is a copy of O(cells in the shard) — no scan over every
// rater. Cells is not safe for concurrent mutation; the service serialises
// writers under its epoch lock, and concurrent Freeze calls are safe while no
// writer runs.
type Cells struct {
	n      int
	origin string
	cols   [][]cell
}

// NewCells returns an empty store over n nodes. localOrigin stands in for
// the empty origin of locally accepted entries in their LWW tags (see
// TagOf).
func NewCells(n int, localOrigin string) *Cells {
	return &Cells{n: n, origin: localOrigin, cols: make([][]cell, n)}
}

// at returns subject j's cell for rater i, inserting an empty, untagged one
// when absent.
func (c *Cells) at(i, j int) *cell {
	col := c.cols[j]
	k := sort.Search(len(col), func(k int) bool { return col[k].rater >= i })
	if k == len(col) || col[k].rater != i {
		col = append(col, cell{})
		copy(col[k+1:], col[k:])
		col[k] = cell{rater: i, tag: noTag}
		c.cols[j] = col
	}
	return &col[k]
}

// Apply folds one ledger entry: when its tag is not older than the cell's
// newest write on record, the entry becomes the cell's folded value and tag.
// It reports whether the entry won. The check and the write are one step, so
// the folded state depends only on the set of entries applied, never on
// their order. Entries are ledger-validated (ids in range, value in [0,1]).
func (c *Cells) Apply(fb Feedback) bool {
	x := c.at(fb.Rater, fb.Subject)
	t := TagOf(fb, c.origin)
	if t.Before(x.tag) {
		return false
	}
	x.tag, x.value, x.folded = t, fb.Value, true
	return true
}

// Record advances an entry's cell tag without folding its value — for
// entries whose fold is either already reflected in loaded columns or still
// pending. A cell known only through Record never appears in a freeze.
func (c *Cells) Record(fb Feedback) {
	x := c.at(fb.Rater, fb.Subject)
	if t := TagOf(fb, c.origin); !t.Before(x.tag) {
		x.tag = t
	}
}

// LoadColumns replaces the folded values of cols' subjects with cols'
// entries, keeping every cell's tag: the boot path seeds the store from
// persisted shard segments, and a bootstrap install replaces the folded
// state with a peer's. Cells left with neither a folded value nor a tag are
// dropped.
func (c *Cells) LoadColumns(cols *trust.Columns) {
	for s := range cols.Subjects() {
		j, ids, vals := cols.ColumnAt(s)
		kept := c.cols[j][:0]
		for _, x := range c.cols[j] {
			if x.tag != noTag {
				x.folded = false
				kept = append(kept, x)
			}
		}
		c.cols[j] = kept
		for k, i := range ids {
			x := c.at(i, j)
			x.value, x.folded = vals[k], true
		}
	}
}

// Freeze copies the folded cells of the given subjects into a frozen
// trust.Columns — O(cells of those subjects). The subjects must be distinct
// and in range.
func (c *Cells) Freeze(subjects []int) (*trust.Columns, error) {
	return trust.BuildColumns(c.n, subjects, func(j int, ids []int, vals []float64) ([]int, []float64) {
		for _, x := range c.cols[j] {
			if x.folded {
				ids = append(ids, x.rater)
				vals = append(vals, x.value)
			}
		}
		return ids, vals
	})
}
