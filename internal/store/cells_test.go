package store

import (
	"reflect"
	"testing"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// lwwReference is the rater-major fold the cell store replaced: a
// trust.Matrix holding folded values plus a per-cell tag map, with the LWW
// order written out independently of Tag.Before.
type lwwReference struct {
	m    *trust.Matrix
	tags map[[2]int]refTag
}

type refTag struct {
	ts     int64
	origin string
	seq    uint64
}

func newLWWReference(n int) *lwwReference {
	return &lwwReference{m: trust.NewMatrix(n), tags: map[[2]int]refTag{}}
}

// older reports whether tag a ranks strictly before tag b: timestamp, then
// origin id, then origin sequence number.
func older(a, b refTag) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func tagOfRef(fb Feedback, localOrigin string) refTag {
	if fb.Origin == "" {
		return refTag{fb.UnixNano, localOrigin, fb.Seq}
	}
	return refTag{fb.UnixNano, fb.Origin, fb.OriginSeq}
}

// record advances the cell's tag; fold also writes the value when the entry
// is not older than the cell's winner.
func (r *lwwReference) record(fb Feedback, localOrigin string) bool {
	k, t := [2]int{fb.Rater, fb.Subject}, tagOfRef(fb, localOrigin)
	if cur, ok := r.tags[k]; ok && older(t, cur) {
		return false
	}
	r.tags[k] = t
	return true
}

func (r *lwwReference) fold(fb Feedback, localOrigin string) bool {
	if !r.record(fb, localOrigin) {
		return false
	}
	if err := r.m.Set(fb.Rater, fb.Subject, fb.Value); err != nil {
		panic(err)
	}
	return true
}

// randomStream draws a feedback stream built to collide: few raters and
// subjects (so cells repeat), a narrow timestamp range including negatives
// (so ties are common and break on origin, then sequence), and a mix of
// local entries and entries replicated from two other origins.
func randomStream(seed uint64, n, length int) []Feedback {
	src := rng.New(seed)
	origins := []string{"", "node-b", "node-c"}
	originSeq := map[string]uint64{}
	out := make([]Feedback, 0, length)
	for k := 0; k < length; k++ {
		fb := Feedback{
			Seq:      uint64(k + 1),
			Rater:    src.Intn(n / 2),
			Subject:  src.Intn(n),
			Value:    float64(src.Intn(11)) / 10,
			UnixNano: int64(src.Intn(8)) - 2,
		}
		if o := origins[src.Intn(len(origins))]; o != "" {
			originSeq[o]++
			fb.Origin, fb.OriginSeq = o, originSeq[o]
		}
		out = append(out, fb)
	}
	return out
}

// TestCellsFreezeMatchesMatrixReference folds random colliding streams into
// the cell store and into the rater-major reference, and requires every
// shard's Freeze to deep-equal trust.ColumnsOf on the reference — for
// several shard layouts, with some entries only recorded (pending) and some
// refolded (an epoch retry).
func TestCellsFreezeMatchesMatrixReference(t *testing.T) {
	const n = 24
	for seed := uint64(1); seed <= 20; seed++ {
		local := "node-a"
		if seed%2 == 0 {
			local = "" // standalone: local tags carry an empty origin
		}
		stream := randomStream(seed, n, 400)
		c, ref := NewCells(n, local), newLWWReference(n)
		src := rng.New(seed + 1000)
		for k, fb := range stream {
			switch src.Intn(6) {
			case 0: // pending: tag on record, value not folded yet
				c.Record(fb)
				ref.record(fb, local)
			case 1: // refold an earlier entry, as an epoch retry would
				old := stream[src.Intn(k+1)]
				if got, want := c.Apply(old), ref.fold(old, local); got != want {
					t.Fatalf("seed %d: refold of seq %d won=%v, reference %v", seed, old.Seq, got, want)
				}
			default:
				if got, want := c.Apply(fb), ref.fold(fb, local); got != want {
					t.Fatalf("seed %d: apply seq %d won=%v, reference %v", seed, fb.Seq, got, want)
				}
			}
			if k%100 != 99 {
				continue
			}
			for _, shards := range []int{1, 3, 7} {
				for sh := 0; sh < shards; sh++ {
					subjects := ShardSubjects(n, sh, shards)
					got := mustFreeze(t, c, subjects)
					want, err := trust.ColumnsOf(ref.m, subjects)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d after %d entries: shard %d/%d freeze differs from the reference", seed, k+1, sh, shards)
					}
				}
			}
		}
	}
}

// TestCellsRebuildFromColumnsAndTags rebuilds a store the way boot does —
// frozen columns first, then every entry's tag — and requires it to equal
// the live store, cell for cell and tag for tag.
func TestCellsRebuildFromColumnsAndTags(t *testing.T) {
	const n, shards = 24, 5
	stream := randomStream(7, n, 500)
	live := NewCells(n, "node-a")
	for k, fb := range stream {
		if k%5 == 0 {
			live.Record(fb) // pending at shutdown
		} else {
			live.Apply(fb)
		}
	}
	rebuilt := NewCells(n, "node-a")
	for sh := 0; sh < shards; sh++ {
		rebuilt.LoadColumns(mustFreeze(t, live, ShardSubjects(n, sh, shards)))
	}
	for _, fb := range stream {
		rebuilt.Record(fb)
	}
	if !reflect.DeepEqual(rebuilt, live) {
		t.Fatal("store rebuilt from columns and tags differs from the live store")
	}
}

// TestCellsLoadColumnsReplacesValuesKeepsTags pins the bootstrap install:
// loading a peer's columns replaces every folded value of the covered
// subjects, while the tags on record keep ranking later writes.
func TestCellsLoadColumnsReplacesValuesKeepsTags(t *testing.T) {
	const n = 6
	c := NewCells(n, "")
	c.Apply(Feedback{Seq: 1, Rater: 1, Subject: 2, Value: 0.5, UnixNano: 100})
	c.Apply(Feedback{Seq: 2, Rater: 3, Subject: 2, Value: 0.25, UnixNano: 100})
	c.Record(Feedback{Seq: 3, Rater: 4, Subject: 2, Value: 0.75, UnixNano: 100})

	subjects := []int{2}
	peer, err := trust.NewColumns(n, subjects, [][]int{{0, 3}}, [][]float64{{0.125, 0.875}})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadColumns(peer)
	if ids, vals := mustFreeze(t, c, subjects).Column(2); !reflect.DeepEqual(ids, []int{0, 3}) || !reflect.DeepEqual(vals, []float64{0.125, 0.875}) {
		t.Fatalf("after load, column 2 = %v %v, want the peer's", ids, vals)
	}
	// Rater 1's tag survived the load: an older write still loses to it.
	if c.Apply(Feedback{Seq: 4, Rater: 1, Subject: 2, Value: 1, UnixNano: 50}) {
		t.Fatal("a write older than the recorded tag won after LoadColumns")
	}
	// The pending-only cell folds when its entry does.
	if !c.Apply(Feedback{Seq: 3, Rater: 4, Subject: 2, Value: 0.75, UnixNano: 100}) {
		t.Fatal("the pending entry lost to its own recorded tag")
	}
	if ids, _ := mustFreeze(t, c, subjects).Column(2); !reflect.DeepEqual(ids, []int{0, 3, 4}) {
		t.Fatalf("column 2 raters = %v, want [0 3 4]", ids)
	}
}

func mustFreeze(t *testing.T, c *Cells, subjects []int) *trust.Columns {
	t.Helper()
	cols, err := c.Freeze(subjects)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}
