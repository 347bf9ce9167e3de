package core

import (
	"testing"

	"diffgossip/internal/gossip"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// subjectsWorkload builds a moderately sparse rating workload: ~40% of the
// (rater, subject) pairs hold a value, a few subjects have no raters at all.
func subjectsWorkload(t *testing.T, n int, seed uint64) *trust.Matrix {
	t.Helper()
	src := rng.New(seed)
	tm := trust.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || j%13 == 7 { // subjects ≡7 mod 13 stay unrated
				continue
			}
			if src.Bool(0.4) {
				if err := tm.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tm
}

// TestGlobalSubjectsPartitionInvariant is the core half of the sharding
// acceptance criterion: computing the subject space in ANY partition (S ∈
// {1, 4, 17} modulo shards), at any worker count, reproduces GlobalAll's
// values bit for bit — per-subject randomness split by subject id makes a
// subject's campaign independent of everything around it.
func TestGlobalSubjectsPartitionInvariant(t *testing.T) {
	const n = 60
	g, tm := denseWorkload(t, n, 0.3, 91)
	_ = tm
	tm = subjectsWorkload(t, n, 92)
	p := params(1e-6, 93)

	all, err := GlobalAll(g, tm, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 17} {
		for _, workers := range []int{0, 3, -1} {
			ps := p
			ps.Workers = workers
			got := make([][]float64, n) // got[j] = column j
			for sh := 0; sh < shards; sh++ {
				var subjects []int
				for j := sh; j < n; j += shards {
					subjects = append(subjects, j)
				}
				res, err := GlobalSubjects(g, tm, subjects, ps)
				if err != nil {
					t.Fatal(err)
				}
				for k, j := range res.Subjects {
					got[j] = res.Columns[k]
				}
			}
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if got[j][i] != all.Reputation[i][j] {
						t.Fatalf("S=%d workers=%d subject %d node %d: sharded %v != GlobalAll %v",
							shards, workers, j, i, got[j][i], all.Reputation[i][j])
					}
				}
			}
		}
	}
}

// TestGlobalSubjectsFromFrozenColumns: folding from a frozen trust.Columns
// slice produces exactly what folding from the live matrix does — the
// service freezes shard columns before folding.
func TestGlobalSubjectsFromFrozenColumns(t *testing.T) {
	const n = 40
	g, _ := denseWorkload(t, n, 0.3, 51)
	tm := subjectsWorkload(t, n, 52)
	p := params(1e-6, 53)
	subjects := []int{1, 5, 7, 12, 33, 39}

	cols, err := trust.ColumnsOf(tm, subjects)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GlobalSubjects(g, tm, subjects, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GlobalSubjects(g, cols, subjects, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := range subjects {
		for i := 0; i < n; i++ {
			if a.Columns[k][i] != b.Columns[k][i] {
				t.Fatalf("subject %d node %d: matrix %v != columns %v", subjects[k], i, a.Columns[k][i], b.Columns[k][i])
			}
		}
	}
	if a.Computed != b.Computed || a.Steps != b.Steps || a.Converged != b.Converged {
		t.Fatalf("metadata drifted: %+v vs %+v", a, b)
	}
}

// TestGlobalSubjectsSkipsUnratedSubjects: subjects nobody rated produce a
// zero column and run no campaign.
func TestGlobalSubjectsSkipsUnrated(t *testing.T) {
	const n = 30
	g, _ := denseWorkload(t, n, 0.3, 61)
	tm := trust.NewMatrix(n)
	if err := tm.Set(2, 9, 0.7); err != nil {
		t.Fatal(err)
	}
	res, err := GlobalSubjects(g, tm, []int{7, 9, 20}, params(1e-6, 62))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 1 {
		t.Fatalf("Computed = %d, want 1 (only subject 9 is rated)", res.Computed)
	}
	for _, k := range []int{0, 2} { // subjects 7 and 20
		for i := 0; i < n; i++ {
			if res.Columns[k][i] != 0 {
				t.Fatalf("unrated subject %d has non-zero estimate at node %d", res.Subjects[k], i)
			}
		}
	}
	if res.Raters[1] != 1 {
		t.Fatalf("Raters for subject 9 = %d, want 1", res.Raters[1])
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
}

// TestGlobalSubjectsRootOnly: with Params.RootOnly the result carries no
// columns, and Global holds bit for bit the root entry of the full run's
// columns — dense and sparse campaigns, cold and warm-restarted (including
// the unchanged-campaign republish), unrated subjects included.
func TestGlobalSubjectsRootOnly(t *testing.T) {
	const n = 40
	g, _ := denseWorkload(t, n, 0.3, 81)
	tm := subjectsWorkload(t, n, 82)
	subjects := []int{0, 3, 7, 20, 33, 39} // 7 and 20 ≡ 7 mod 13: unrated
	for _, sparse := range []float64{0, 0.25, 1} {
		for _, root := range []int{0, 11} {
			p := params(1e-6, 83)
			p.SparseRaterFrac, p.Root, p.Workers, p.KeepStates = sparse, root, 2, true
			cold, err := GlobalSubjects(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			p.Warm = func(j int) *gossip.CampaignState {
				for k, s := range subjects {
					if s == j {
						return cold.States[k]
					}
				}
				return nil
			}
			for _, warm := range []bool{false, true} {
				pw := p
				if !warm {
					pw.Warm = nil
				}
				full, err := GlobalSubjects(g, tm, subjects, pw)
				if err != nil {
					t.Fatal(err)
				}
				pw.RootOnly = true
				ro, err := GlobalSubjects(g, tm, subjects, pw)
				if err != nil {
					t.Fatal(err)
				}
				if ro.Columns != nil {
					t.Fatal("RootOnly result carries columns")
				}
				if warm && full.WarmStarts == 0 {
					t.Fatalf("sparse=%v: no campaign warm-started", sparse)
				}
				for k, j := range subjects {
					if want := full.Columns[k][root]; ro.Global[k] != want || full.Global[k] != want {
						t.Fatalf("sparse=%v root=%d warm=%v subject %d: RootOnly %v, full Global %v, column %v",
							sparse, root, warm, j, ro.Global[k], full.Global[k], want)
					}
				}
				if ro.TotalSteps != full.TotalSteps || ro.WarmStarts != full.WarmStarts {
					t.Fatalf("RootOnly changed the campaigns: %d/%d steps, %d/%d warm", ro.TotalSteps, full.TotalSteps, ro.WarmStarts, full.WarmStarts)
				}
			}
		}
	}
}

// TestGlobalSubjectsValidates rejects malformed subject sets.
func TestGlobalSubjectsValidates(t *testing.T) {
	g, tm := denseWorkload(t, 20, 0.3, 71)
	p := params(1e-6, 72)
	if _, err := GlobalSubjects(g, tm, []int{3, 3}, p); err == nil {
		t.Error("duplicate subject accepted")
	}
	if _, err := GlobalSubjects(g, tm, []int{-1}, p); err == nil {
		t.Error("negative subject accepted")
	}
	if _, err := GlobalSubjects(g, tm, []int{20}, p); err == nil {
		t.Error("out-of-range subject accepted")
	}
	if res, err := GlobalSubjects(g, tm, nil, p); err != nil || len(res.Columns) != 0 {
		t.Errorf("empty subject set should be a trivial success, got (%v, %v)", res, err)
	}
}
