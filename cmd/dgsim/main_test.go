package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diffgossip/internal/sim"
)

func TestRunEachExperimentQuick(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "scaling", "factor", "whitewash", "baselines", "profile", "churn"} {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			// n=120 keeps the collusion/factor runs fast; quick shrinks
			// the size sweeps.
			if err := run(&buf, exp, 1, 120, true, false); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", 1, 0, true, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table2", 1, 0, true, true); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") {
		t.Fatalf("csv output missing commas: %q", first)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("all-experiments run in short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", 1, 100, true, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Scaling", "damping"} {
		if !strings.Contains(out, want) {
			t.Fatalf("all-run missing %q", want)
		}
	}
}

func TestBenchJSONWellFormed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	// Quick sizes keep the benchmark run test-fast.
	if err := runBench(path, 1, 200, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report sim.BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("BENCH json does not parse: %v", err)
	}
	if report.Schema != "diffgossip-bench/v9" {
		t.Fatalf("schema = %q", report.Schema)
	}
	if report.CPUs < 1 {
		t.Fatalf("cpus = %d", report.CPUs)
	}
	// 16 fixed rows (scalar, vector, vector-sparse, service, churn,
	// 3×sharded, 3×anti-entropy, http-latency, 2×bootstrap,
	// 2×wal-compaction) plus the v8 epoch-scaling family (two warm rows and
	// one cores row per GOMAXPROCS setting, at least three) and the six v9
	// http-front-door rows.
	if len(report.Benchmarks) < 27 {
		t.Fatalf("benchmarks = %d, want at least 27", len(report.Benchmarks))
	}
	var serviceRows, churnRows, shardedRows, handoffRows, latencyRows, bootstrapRows, walRows int
	var warmRows, coresRows int
	scaling := map[string]sim.BenchResult{}
	frontDoor := map[string]sim.BenchResult{}
	for _, b := range report.Benchmarks {
		if strings.HasPrefix(b.Name, "http-front-door/") {
			// The schema-v9 rows: the production ingress driven over
			// loopback. They report throughput and reader percentiles, not
			// gossip steps (the cluster row's steps are exchange rounds).
			frontDoor[b.Name] = b
			if !b.Converged {
				t.Fatalf("front-door row did not converge: %+v", b)
			}
			continue
		}
		if strings.HasPrefix(b.Name, "wal-compaction/") {
			// The schema-v7 size rows measure bytes, not steps: the ledger
			// file around one compaction of a fixed live cell set.
			walRows++
			if b.N <= 0 || b.History <= 0 || b.Cells <= 0 {
				t.Fatalf("wal row has no workload accounting: %+v", b)
			}
			if b.WalBytesBefore <= 0 || b.WalBytesAfter <= 0 || b.WalBytesAfter >= b.WalBytesBefore {
				t.Fatalf("wal row did not shrink the ledger: %+v", b)
			}
			continue
		}
		if b.Name == "" || b.N <= 0 || b.Steps <= 0 {
			t.Fatalf("malformed row %+v", b)
		}
		if strings.HasPrefix(b.Name, "sharded-service/") {
			// The schema-v4 rows: epoch latency vs dirty-shard fraction,
			// with the fold counter proving how much actually recomputed.
			shardedRows++
			if b.Shards <= 0 || b.DirtyShards <= 0 || b.DirtyShards > b.Shards {
				t.Fatalf("sharded row has a bad shard accounting: %+v", b)
			}
			if b.EpochNs <= 0 || b.FoldedSubjects == 0 {
				t.Fatalf("sharded row has no work recorded: %+v", b)
			}
			if !b.Converged {
				t.Fatalf("sharded row did not converge: %+v", b)
			}
			continue
		}
		if strings.HasPrefix(b.Name, "epoch-scaling/") {
			// The schema-v8 rows: warm-vs-cold campaign steps on an identical
			// dirty slice, and cold epoch latency per core count.
			if b.EpochNs <= 0 || b.FoldedSubjects == 0 || b.Shards <= 0 {
				t.Fatalf("epoch-scaling row has no work recorded: %+v", b)
			}
			if !b.Converged {
				t.Fatalf("epoch-scaling row did not converge: %+v", b)
			}
			if b.Cores > 0 {
				coresRows++
				if b.Speedup <= 0 || b.ColdStarts == 0 || b.TotalSteps <= 0 {
					t.Fatalf("cores row has no scaling accounting: %+v", b)
				}
			} else {
				warmRows++
			}
			scaling[b.Name] = b
			continue
		}
		if b.NsPerStep <= 0 {
			t.Fatalf("row %q has no timing", b.Name)
		}
		if strings.HasPrefix(b.Name, "cluster-bootstrap/") {
			// The schema-v7 join rows: snapshot-shipped bootstrap time for a
			// fresh replica against the sender's lifetime history length.
			bootstrapRows++
			if b.History <= 0 || b.Cells <= 0 || b.ConvergeNs <= 0 {
				t.Fatalf("bootstrap row has no transfer accounting: %+v", b)
			}
			if !b.Converged {
				t.Fatalf("bootstrap row did not converge: %+v", b)
			}
			continue
		}
		if strings.HasPrefix(b.Name, "cluster-antientropy/") {
			// The schema-v5 rows: hinted-handoff catch-up time against the
			// backlog buffered during a dead window.
			handoffRows++
			if b.HintedEntries <= 0 || b.ConvergeNs <= 0 {
				t.Fatalf("anti-entropy row has no handoff accounting: %+v", b)
			}
			if !b.Converged {
				t.Fatalf("anti-entropy row did not converge: %+v", b)
			}
			continue
		}
		if strings.HasPrefix(b.Name, "churn-scenario/") {
			// The churn row runs a fixed timeline with events spread over
			// its whole span, so it legitimately ends unconverged.
			churnRows++
			if b.Events <= 0 {
				t.Fatalf("churn row executed no events: %+v", b)
			}
			if b.MsgsPerNodePerStep <= 0 {
				t.Fatalf("churn row has no message metric: %+v", b)
			}
			continue
		}
		if !b.Converged {
			t.Fatalf("row %q did not converge", b.Name)
		}
		if strings.HasPrefix(b.Name, "service/") {
			serviceRows++
			if b.IngestPerSec <= 0 || b.QueryPerSec <= 0 || b.EpochNs <= 0 {
				t.Fatalf("service row missing throughput metrics: %+v", b)
			}
			continue // the service row reports throughput, not messages
		}
		if strings.HasPrefix(b.Name, "http-latency/") {
			// The schema-v6 row: per-request latency percentiles of the HTTP
			// surface, monotone by construction.
			latencyRows++
			if b.Requests <= 0 {
				t.Fatalf("latency row measured no requests: %+v", b)
			}
			if b.P50Ns <= 0 || b.P50Ns > b.P95Ns || b.P95Ns > b.P99Ns {
				t.Fatalf("latency row percentiles not monotone: %+v", b)
			}
			continue // the latency row reports percentiles, not messages
		}
		if b.MsgsPerNodePerStep <= 0 {
			t.Fatalf("row %q has no message metric", b.Name)
		}
	}
	if serviceRows != 1 || churnRows != 1 || shardedRows != 3 || handoffRows != 3 || latencyRows != 1 || bootstrapRows != 2 || walRows != 2 {
		t.Fatalf("service rows = %d, churn rows = %d, sharded rows = %d, handoff rows = %d, latency rows = %d, bootstrap rows = %d, wal rows = %d, want 1/1/3/3/1/2/2",
			serviceRows, churnRows, shardedRows, handoffRows, latencyRows, bootstrapRows, walRows)
	}
	if warmRows != 2 || coresRows < 3 {
		t.Fatalf("epoch-scaling rows = %d warm + %d cores, want 2 warm and at least 3 cores", warmRows, coresRows)
	}
	// The hardware-independent half of the v8 claim must hold wherever the
	// report was generated: the warm epoch runs at most a fifth of the cold
	// one's campaign steps. The cold twin reruns every subject of the dirty
	// shards; the warm twin carries unchanged subjects forward and runs only
	// the 5% it re-rated.
	on, off := scaling["epoch-scaling/warm=on/dirty=5%"], scaling["epoch-scaling/warm=off/dirty=5%"]
	if on.Name == "" || off.Name == "" {
		t.Fatalf("warm twin rows missing from the report")
	}
	if on.WarmStarts == 0 || off.ColdStarts == 0 || on.FoldedSubjects > off.FoldedSubjects ||
		on.FoldedSubjects != uint64(max(on.N/20, 1)) {
		t.Fatalf("warm twin did not fold just the re-rated subjects: %+v vs %+v", on, off)
	}
	if 5*on.TotalSteps > off.TotalSteps {
		t.Fatalf("warm epoch spent %d campaign steps, want at most a fifth of cold's %d", on.TotalSteps, off.TotalSteps)
	}

	// The v9 front-door rows. CI bench-smoke holds the strict throughput and
	// tail-latency ratios (batch ≥ 5× single, bp p99 ≤ 0.5× nobp) on a
	// dedicated run; here — where the suite may run under the race detector —
	// the claims are checked directionally with slack.
	single, batch := frontDoor["http-front-door/ingest=single"], frontDoor["http-front-door/ingest=batch"]
	nobp, bp := frontDoor["http-front-door/overload=nobp"], frontDoor["http-front-door/overload=bp"]
	cond, clus := frontDoor["http-front-door/reads=conditional"], frontDoor["http-front-door/cluster=3"]
	if len(frontDoor) != 6 || single.Name == "" || batch.Name == "" || nobp.Name == "" || bp.Name == "" || cond.Name == "" || clus.Name == "" {
		t.Fatalf("front-door rows incomplete: %d rows %v", len(frontDoor), frontDoor)
	}
	for _, b := range []sim.BenchResult{single, batch, nobp, bp, cond} {
		if b.Requests <= 0 || b.P50Ns <= 0 || b.P50Ns > b.P95Ns || b.P95Ns > b.P99Ns {
			t.Fatalf("front-door row has no monotone request accounting: %+v", b)
		}
	}
	if single.AcceptedRatings != single.Requests || batch.AcceptedRatings <= batch.Requests {
		t.Fatalf("ingest rows accepted/requests inconsistent: single %+v, batch %+v", single, batch)
	}
	if batch.IngestPerSec < 3*single.IngestPerSec {
		t.Fatalf("batch ingest %.0f ratings/s vs single %.0f — batching amortized nothing",
			batch.IngestPerSec, single.IngestPerSec)
	}
	if nobp.ShedRequests != 0 || bp.ShedRequests <= 0 || bp.AcceptedRatings <= 0 {
		t.Fatalf("overload rows shed accounting wrong: nobp %+v, bp %+v", nobp, bp)
	}
	if bp.P99Ns >= nobp.P99Ns {
		t.Fatalf("backpressure did not improve read p99: bp %dns vs nobp %dns", bp.P99Ns, nobp.P99Ns)
	}
	if cond.NotModified <= 0 || cond.NotModified >= cond.Requests {
		t.Fatalf("conditional row 304 accounting wrong: %+v", cond)
	}
	if clus.Steps <= 0 || clus.ConvergeNs <= 0 || clus.AcceptedRatings <= 0 || clus.IngestPerSec <= 0 {
		t.Fatalf("cluster row has no convergence accounting: %+v", clus)
	}
}
