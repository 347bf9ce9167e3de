package service

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// TestCarryForwardMatchesWholeShardFold is the equivalence criterion for
// per-subject folds: over random multi-epoch feedback streams, every shard a
// fold publishes holds Global, Raters and Warm entries bit-equal to a
// reference that reruns core.GlobalSubjects over the whole shard — same
// frozen columns, same parameters, same warm function — for S ∈ {1, 4, 17},
// in standalone warm mode and in Replicate+FixedEpochSeed mode. The tight
// budgets leave campaigns unconverged (which must rerun, not carry), the
// cold mode must never carry, and the restart mode's first fold after boot
// must rerun the boot-loaded shards.
func TestCarryForwardMatchesWholeShardFold(t *testing.T) {
	const n = 48
	g := testGraph(t, n, 5)
	loose := core.Params{Epsilon: 1e-6, Seed: 5}
	tight := core.Params{Epsilon: 1e-12, MaxSteps: 10, Seed: 5}
	modes := []struct {
		name       string
		cfg        Config
		carry      int // +1: the stream must carry some subject; -1: it must carry none; 0: either
		restartAt  int // epoch before which the service reboots from its data dir (0 = never)
		persistent bool
	}{
		{name: "warm", cfg: Config{Params: loose}, carry: +1},
		{name: "warm-tight", cfg: Config{Params: tight}},
		{name: "warm-restart", cfg: Config{Params: loose}, carry: +1, restartAt: 4, persistent: true},
		{name: "cluster", cfg: Config{Params: loose, Replicate: true, FixedEpochSeed: true}, carry: +1},
		{name: "cluster-tight", cfg: Config{Params: tight, Replicate: true, FixedEpochSeed: true}},
		{name: "cold", cfg: Config{Params: loose, NoWarmStart: true}, carry: -1},
	}
	for _, shards := range []int{1, 4, 17} {
		for mi, m := range modes {
			t.Run(fmt.Sprintf("%s/S=%d", m.name, shards), func(t *testing.T) {
				cfg := m.cfg
				cfg.Graph, cfg.Shards = g, shards
				if m.persistent {
					cfg.Dir = t.TempDir()
				}
				s := newTestService(t, n, cfg)
				src := rng.New(uint64(100*shards + mi))
				ts := int64(1_000_000)
				carried := 0
				for epoch := 1; epoch <= 12; epoch++ {
					if epoch == m.restartAt {
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
						s = newTestService(t, n, cfg)
					}
					submitCarryBatch(t, s, src, n, epoch, &ts)
					before := s.View()
					after, ran, err := s.RunEpoch()
					if err != nil || !ran {
						t.Fatalf("epoch %d: ran=%v err=%v", epoch, ran, err)
					}
					for sh := 0; sh < shards; sh++ {
						prev, seg := before.Shard(sh), after.Shard(sh)
						if prev == seg {
							continue // clean shard: not folded
						}
						carried += seg.Carried
						if epoch == m.restartAt && seg.Carried != 0 {
							t.Fatalf("epoch %d shard %d: carried %d subjects off a boot-loaded segment", epoch, sh, seg.Carried)
						}
						checkWholeShardFold(t, s, prev, seg)
					}
				}
				if (m.carry > 0 && carried == 0) || (m.carry < 0 && carried > 0) {
					t.Fatalf("carried %d subjects over the stream (mode wants %+d)", carried, m.carry)
				}
			})
		}
	}
}

// submitCarryBatch submits one epoch's random feedback: a broad first batch
// (leaving some subjects unrated and some with one rater), then a few
// subjects re-rated per epoch — re-ratings of existing cells, new raters,
// and stale writes that lose last-writer-wins.
func submitCarryBatch(t *testing.T, s *Service, src *rng.Source, n, epoch int, ts *int64) {
	t.Helper()
	submit := func(rater, subject int, stale bool) {
		*ts += 10
		at := *ts
		if stale {
			at -= 5_000 // older than anything recent: loses to any write on record
		}
		if _, err := s.SubmitAt(rater, subject, src.Float64(), at); err != nil {
			t.Fatal(err)
		}
	}
	rater := func(subject int) int {
		r := src.Intn(n - 1)
		if r >= subject {
			r++
		}
		return r
	}
	if epoch == 1 {
		for j := 0; j < n-6; j++ {
			raters := 1 + src.Intn(6)
			if j%7 == 0 {
				raters = 1
			}
			for k := 0; k < raters; k++ {
				submit(rater(j), j, false)
			}
		}
		return
	}
	for touched := 1 + src.Intn(5); touched > 0; touched-- {
		j := src.Intn(n)
		for k := 1 + src.Intn(3); k > 0; k-- {
			submit(rater(j), j, src.Bool(0.2))
		}
	}
}

// checkWholeShardFold reruns the fold that produced seg as one whole-shard
// core.GlobalSubjects call — prev's warm states as the warm function, the
// epoch's parameters — and requires seg to match it bit for bit.
func checkWholeShardFold(t *testing.T, s *Service, prev, seg *store.ShardSnapshot) {
	t.Helper()
	subjects := store.ShardSubjects(s.n, seg.Shard, s.shards)
	p := s.cfg.Params
	if !s.cfg.FixedEpochSeed {
		p.Seed = epochSeed(p.Seed, seg.Epoch)
	}
	p.RootOnly = true
	if s.warmOK {
		p.KeepStates = true
		if prev.Warm != nil && prev.GraphFP == s.graphFP {
			p.Warm = func(j int) *gossip.CampaignState { return prev.Warm[store.SlotOf(j, s.shards)] }
		}
	}
	ref, err := core.GlobalSubjects(s.cfg.Graph, seg.Cols, subjects, p)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Converged != ref.Converged {
		t.Fatalf("epoch %d shard %d: converged=%v, whole-shard fold %v", seg.Epoch, seg.Shard, seg.Converged, ref.Converged)
	}
	for k, j := range subjects {
		if math.Float64bits(seg.Global[k]) != math.Float64bits(ref.Global[k]) || seg.Raters[k] != ref.Raters[k] {
			t.Fatalf("epoch %d subject %d: published (%v, %d raters), whole-shard fold (%v, %d)",
				seg.Epoch, j, seg.Global[k], seg.Raters[k], ref.Global[k], ref.Raters[k])
		}
		var want *gossip.CampaignState
		if ref.States != nil {
			want = ref.States[k]
		}
		var got *gossip.CampaignState
		if seg.Warm != nil {
			got = seg.Warm[k]
		}
		if !sameState(got, want) {
			t.Fatalf("epoch %d subject %d: warm state %+v, whole-shard fold %+v", seg.Epoch, j, got, want)
		}
	}
}

// sameState reports whether two recorded campaign states are bit-identical.
func sameState(a, b *gossip.CampaignState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Sparse != b.Sparse || a.Steps != b.Steps || a.Converged != b.Converged ||
		len(a.Raters) != len(b.Raters) || len(a.PrevVals) != len(b.PrevVals) || len(a.Y) != len(b.Y) || len(a.G) != len(b.G) {
		return false
	}
	for x := range a.Raters {
		if a.Raters[x] != b.Raters[x] {
			return false
		}
	}
	for _, pair := range [][2][]float64{{a.PrevVals, b.PrevVals}, {a.Y, b.Y}, {a.G, b.G}} {
		for x := range pair[0] {
			if math.Float64bits(pair[0][x]) != math.Float64bits(pair[1][x]) {
				return false
			}
		}
	}
	return true
}

// TestPersonalReputationConcurrentFirstReads: the shard columns build their
// row index on the first row read, so the first GCLR reads after an epoch
// race to build it. Run them from many goroutines at once (under -race in
// CI) and require every answer to equal the GCLR evaluation over a plain
// trust matrix holding the same ratings.
func TestPersonalReputationConcurrentFirstReads(t *testing.T) {
	const n = 40
	s := newTestService(t, n, Config{Shards: 3})
	ref := trust.NewMatrix(n)
	src := rng.New(8)
	for k := 0; k < 300; k++ {
		i, j, v := src.Intn(n), src.Intn(n), src.Float64()
		// Ascending timestamps: last-writer-wins is the last Set.
		if _, err := s.SubmitAt(i, j, v, int64(k+1)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Set(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if round > 0 {
			// Re-rate a few cells so every round publishes fresh columns.
			for k := 0; k < 10; k++ {
				i, j, v := src.Intn(n), src.Intn(n), src.Float64()
				if _, err := s.SubmitAt(i, j, v, int64(1000*round+k)); err != nil {
					t.Fatal(err)
				}
				if err := ref.Set(i, j, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, _, err := s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := 0; k < n; k++ {
					rater, subject := (r*7+k)%n, (r*3+5*k)%n
					got, _, err := s.PersonalReputation(rater, subject)
					if err != nil {
						t.Error(err)
						return
					}
					want := trust.WeightedColumn(ref, rater, subject, ref.InteractedWith(rater), trust.DefaultWeightParams, true)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("round %d: personal (%d,%d) = %v, matrix reference %v", round, rater, subject, got, want)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}
