package service

import (
	"path/filepath"
	"reflect"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// cellHistory submits a colliding random stream to s — local writes and
// writes replicated from node-b, timestamps drawn from a narrow range so
// cells see ties — and returns every entry as the fold sees it.
func cellHistory(t *testing.T, s *Service, src *rng.Source, count int, nextRemote *uint64, raters, subjects []int) []store.Feedback {
	t.Helper()
	var out []store.Feedback
	for k := 0; k < count; k++ {
		fb := store.Feedback{
			Rater:    raters[src.Intn(len(raters))],
			Subject:  subjects[src.Intn(len(subjects))],
			Value:    float64(src.Intn(11)) / 10,
			UnixNano: int64(100 + src.Intn(6)),
		}
		if src.Intn(3) == 0 {
			*nextRemote++
			fb.Origin, fb.OriginSeq = "node-b", *nextRemote
			if _, err := s.ReplicatedSubmit(fb.Origin, fb.OriginSeq, fb.Rater, fb.Subject, fb.Value, fb.UnixNano); err != nil {
				t.Fatal(err)
			}
		} else {
			seq, err := s.SubmitAt(fb.Rater, fb.Subject, fb.Value, fb.UnixNano)
			if err != nil {
				t.Fatal(err)
			}
			fb.Seq = seq
		}
		out = append(out, fb)
	}
	return out
}

// freezeAll freezes every shard of s's cell store.
func freezeAll(t *testing.T, s *Service) []*trust.Columns {
	t.Helper()
	out := make([]*trust.Columns, s.shards)
	for sh := range out {
		cols, err := s.cells.Freeze(store.ShardSubjects(s.n, sh, s.shards))
		if err != nil {
			t.Fatal(err)
		}
		out[sh] = cols
	}
	return out
}

// TestCellStoreRebuiltAtReboot: the cell store a service rebuilds at boot —
// segment columns plus the WAL's tags, after scheduled compaction dropped
// superseded entries — equals the live store, cell for cell and tag for tag.
// A cell whose only write was still pending at shutdown carries its tag after
// the reboot but is no rater in any freeze (or any published column) until
// its epoch folds it; after that the store matches an LWW fold of the whole
// history over a rater-major matrix.
func TestCellStoreRebuiltAtReboot(t *testing.T) {
	const n = 24
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{
		Graph:          testGraph(t, n, 7),
		Params:         core.Params{Epsilon: 1e-6, Seed: 11},
		Dir:            dir,
		Shards:         3,
		Replicate:      true,
		FixedEpochSeed: true,
		Origin:         "node-a",
		CompactEvery:   2,
	}
	boot := func() *Service {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := rng.New(5)
	var remote uint64
	// Raters 0..11 rate subjects 0..19 before the first reboot; raters
	// 12..15 and subjects 20..23 stay untouched until the pending tail.
	oldRaters, oldSubjects := make([]int, 12), make([]int, 20)
	for i := range oldRaters {
		oldRaters[i] = i
	}
	for j := range oldSubjects {
		oldSubjects[j] = j
	}

	live := boot()
	var history []store.Feedback
	for e := 0; e < 6; e++ {
		history = append(history, cellHistory(t, live, src, 60, &remote, oldRaters, oldSubjects)...)
		if _, _, err := live.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	rebooted := boot()
	if !reflect.DeepEqual(rebooted.cells, live.cells) {
		t.Fatal("cell store rebuilt at reboot differs from the live store")
	}

	// A pending tail: fresh cells (raters 12..15 × subjects 20..23) next to
	// writes on cells that are already folded. Shut down before its epoch.
	before := freezeAll(t, rebooted)
	newRaters, newSubjects := []int{12, 13, 14, 15}, []int{20, 21, 22, 23}
	tail := cellHistory(t, rebooted, src, 12, &remote, newRaters, newSubjects)
	tail = append(tail, cellHistory(t, rebooted, src, 12, &remote, oldRaters, oldSubjects)...)
	history = append(history, tail...)
	if err := rebooted.Close(); err != nil {
		t.Fatal(err)
	}
	s := boot()
	defer s.Close()
	if got := freezeAll(t, s); !reflect.DeepEqual(got, before) {
		t.Fatal("re-pended tail changed the frozen columns before its epoch")
	}
	v := s.View()
	for _, fb := range tail[:12] {
		if _, ok := v.Get(fb.Rater, fb.Subject); ok {
			t.Fatalf("pending-only cell (%d,%d) is a published rater before its epoch", fb.Rater, fb.Subject)
		}
	}
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Reference: the whole history folded by LWW into a rater-major matrix.
	ref, tags := trust.NewMatrix(n), map[[2]int]store.Tag{}
	for _, fb := range history {
		k, tag := [2]int{fb.Rater, fb.Subject}, store.TagOf(fb, cfg.Origin)
		if cur, ok := tags[k]; ok && tag.Before(cur) {
			continue
		}
		tags[k] = tag
		if err := ref.Set(fb.Rater, fb.Subject, fb.Value); err != nil {
			t.Fatal(err)
		}
	}
	for sh, got := range freezeAll(t, s) {
		want, err := trust.ColumnsOf(ref, store.ShardSubjects(n, sh, s.shards))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d after the tail's epoch differs from the LWW reference", sh)
		}
	}
	for _, fb := range tail[:12] {
		if _, ok := s.View().Get(fb.Rater, fb.Subject); !ok {
			t.Fatalf("cell (%d,%d) is not a published rater after its epoch", fb.Rater, fb.Subject)
		}
	}
}
