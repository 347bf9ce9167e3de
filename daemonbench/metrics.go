package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// minP99Samples is the sample count below which a p99 is not reported as
// such: the tail helper's highest valid percentile is reported instead, and
// the run notes it.
const minP99Samples = 1000

func p99(st *runState, name string, xs []float64) (float64, error) {
	if len(xs) >= minP99Samples {
		return percentile(xs, 99), nil
	}
	p, v, n, ok := tail(xs)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples, too few for any tail percentile", name, n)
	}
	st.notes = append(st.notes, fmt.Sprintf("%s: only %d samples, reporting p%g", name, n, p))
	return v, nil
}

// endToEndMetrics turns the recorder's samples into the end-to-end metrics
// and checks the run's open-loop validity. The generator's own view of the
// tails goes to the per-layer set: on a shared host a p99 of loopback
// requests, or of visibility when a run holds only a dozen epochs, moves too
// much from run to run to carry a regression bound.
func endToEndMetrics(st *runState, rec *recorder, epochs []epochLog) error {
	var walls []float64
	for _, e := range epochs {
		if e.ran {
			walls = append(walls, e.wallMs/1000)
		}
	}
	for k, n := range map[string]int{"ack": len(rec.ack), "read": len(rec.read), "visible": len(rec.vis),
		"batch_ack": len(rec.batch), "late": len(rec.late), "epoch": len(walls)} {
		st.samples[k] = n
		if n == 0 && k != "batch_ack" {
			return fmt.Errorf("no %s samples", k)
		}
	}
	for name, xs := range map[string][]float64{"ack": rec.ack, "read": rec.read, "visible": rec.vis, "batch_ack": rec.batch} {
		if len(xs) > 0 {
			st.tails[name] = map[string]float64{"p50": median(xs), "p90": percentile(xs, 90), "p99": percentile(xs, 99)}
		}
	}
	var err error
	st.e2e["ack_p50_ms"] = median(rec.ack)
	st.e2e["read_p50_ms"] = median(rec.read)
	st.e2e["visible_p50_ms"] = median(rec.vis)
	if st.layer["bench.visible_p99_ms"], err = p99(st, "bench.visible_p99_ms", rec.vis); err != nil {
		return err
	}
	if st.layer["bench.ack_p99_ms"], err = p99(st, "bench.ack_p99_ms", rec.ack); err != nil {
		return err
	}
	if st.layer["bench.read_p99_ms"], err = p99(st, "bench.read_p99_ms", rec.read); err != nil {
		return err
	}
	st.e2e["epoch_s"] = median(walls)
	late := percentile(rec.late, 99)
	st.layer["bench.late_p99_ms"] = late
	if late > maxLateMs {
		return fmt.Errorf("run invalid: generator sent p99 %.1fms behind schedule (bound %dms)", late, maxLateMs)
	}
	return nil
}

// traceEpoch and traceShard mirror the GET /v1/trace rows.
type traceShard struct {
	Shard      int   `json:"shard"`
	DurationNs int64 `json:"duration_ns"`
	Computed   int   `json:"computed_subjects"`
	WarmStarts int   `json:"warm_starts"`
	ColdStarts int   `json:"cold_starts"`
}

type traceEpoch struct {
	Epoch       uint64       `json:"epoch"`
	DurationNs  int64        `json:"duration_ns"`
	Seq         uint64       `json:"seq"`
	DirtyShards int          `json:"dirty_shards"`
	Shards      []traceShard `json:"shards"`
}

// observer scrapes the daemons' own instruments around the load phase: a
// traced run reads /metrics, /v1/stats and pprof MemStats before and after,
// samples /v1/stats while the load runs, and reads /v1/trace at the end.
type observer struct {
	nodes       []*daemon
	on          bool
	t0, t1      time.Time
	expo        [2][]exposition
	mem         [2][]memStats
	cstats      [2][]clusterStats
	traces      [][]traceEpoch
	walBytes    float64
	stop        chan struct{}
	halted      sync.Once
	wg          sync.WaitGroup
	mu          sync.Mutex
	pendingPeak float64
	markGapPeak float64
	// backlog counts node's acknowledged entries above seq.
	backlog      func(node int, seq uint64) int
	segmentBytes []map[int]float64 // per node: shard → segment file size
}

func newObserver(nodes []*daemon, on bool) *observer {
	return &observer{nodes: nodes, on: on, stop: make(chan struct{})}
}

func (o *observer) scrape(phase int) error {
	o.expo[phase] = nil
	o.mem[phase] = nil
	o.cstats[phase] = nil
	for _, d := range o.nodes {
		code, b, err := d.get("/metrics")
		if err != nil || code != 200 {
			return fmt.Errorf("scrape /metrics: %d %v", code, err)
		}
		ex, err := parseExposition(b)
		if err != nil {
			return fmt.Errorf("parse /metrics: %w", err)
		}
		o.expo[phase] = append(o.expo[phase], ex)
		if d.pprof == "" {
			return fmt.Errorf("traced run without a pprof listener")
		}
		resp, err := d.ctl.Get(d.pprof + "/debug/pprof/heap?debug=1")
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		o.mem[phase] = append(o.mem[phase], parseMemStats(buf.Bytes()))
		var st statsResp
		if err := d.getJSON("/v1/stats", &st); err != nil {
			return err
		}
		cs := clusterStats{}
		if st.Cluster != nil {
			cs = *st.Cluster
		}
		o.cstats[phase] = append(o.cstats[phase], cs)
	}
	return nil
}

// before takes the opening scrapes and starts the /v1/stats sampler.
func (o *observer) before() error {
	o.t0 = time.Now()
	if !o.on {
		return nil
	}
	if err := o.scrape(0); err != nil {
		return err
	}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-t.C:
			}
			o.sample()
		}
	}()
	return nil
}

func (o *observer) sample() {
	var marks []clusterStats
	for _, d := range o.nodes {
		var st statsResp
		if d.getJSON("/v1/stats", &st) != nil {
			continue
		}
		o.mu.Lock()
		o.pendingPeak = max(o.pendingPeak, float64(st.Pending))
		o.mu.Unlock()
		if st.Cluster != nil {
			marks = append(marks, *st.Cluster)
		}
	}
	if len(marks) < 2 {
		return
	}
	// A replica's stream is numbered by its ledger seq, which replicated
	// entries advance too, so the gap is counted in acknowledged entries a
	// peer's watermark does not yet cover, not in seq units.
	gap := 0.0
	for i := range marks {
		for k := range marks {
			if k != i && o.backlog != nil {
				gap += float64(o.backlog(i, marks[k].Marks[marks[i].Self]))
			}
		}
	}
	o.mu.Lock()
	o.markGapPeak = max(o.markGapPeak, gap)
	o.mu.Unlock()
}

// halt stops the sampler and waits for it; it may be called more than once.
func (o *observer) halt() {
	o.halted.Do(func() { close(o.stop) })
	o.wg.Wait()
}

// after stops the sampler and takes the closing scrapes.
func (o *observer) after() error {
	o.t1 = time.Now()
	if !o.on {
		return nil
	}
	o.halt()
	if err := o.scrape(1); err != nil {
		return err
	}
	for _, d := range o.nodes {
		var tr struct {
			Epochs []traceEpoch `json:"epochs"`
		}
		if err := d.getJSON("/v1/trace", &tr); err != nil {
			return err
		}
		o.traces = append(o.traces, tr.Epochs)
		seg := map[int]float64{}
		files, _ := filepath.Glob(filepath.Join(d.dataDir, "shard-*.gob"))
		for _, f := range files {
			var shard int
			if _, err := fmt.Sscanf(filepath.Base(f), "shard-%04d.gob", &shard); err != nil {
				continue
			}
			if fi, err := os.Stat(f); err == nil {
				seg[shard] = float64(fi.Size())
			}
		}
		o.segmentBytes = append(o.segmentBytes, seg)
	}
	fi, err := os.Stat(filepath.Join(o.nodes[0].dataDir, "ledger.jsonl"))
	if err != nil {
		return err
	}
	o.walBytes = float64(fi.Size())
	return nil
}

// merged sums every node's scrape of one phase, sample by sample.
func (o *observer) merged(phase int) exposition {
	out := exposition{}
	for _, ex := range o.expo[phase] {
		for name, ss := range ex {
			for _, s := range ss {
				found := false
				for k := range out[name] {
					if out[name][k].Labels == s.Labels {
						out[name][k].Value += s.Value
						found = true
					}
				}
				if !found {
					out[name] = append(out[name], s)
				}
			}
		}
	}
	return out
}

// layerMetrics computes the traced run's per-layer metrics: deltas of the
// daemons' own instruments over the load phase, then probes that replay the
// run's recorded inputs through each layer's public functions.
func layerMetrics(st *runState, sh shape, w *world, mr *mirror, e *engine, o *observer,
	epochs []epochLog, sched *schedule) error {
	b, a := o.merged(0), o.merged(1)
	delta := func(name string, match ...string) float64 { return a.sum(name, match...) - b.sum(name, match...) }
	const hist = "dgserve_http_request_duration_seconds"
	route := func(r string) string { return fmt.Sprintf("route=%q", r) }
	L := st.layer
	// Handler times mostly fall in the histogram's first bucket (100µs),
	// where interpolated quantiles read the same on every run; the mean
	// comes from _sum/_count, and the tail is the share above 1ms.
	handlerMean := func(b, a exposition, r string) float64 {
		return 1000 * ratio(a.sum(hist+"_sum", route(r))-b.sum(hist+"_sum", route(r)),
			a.sum(hist+"_count", route(r))-b.sum(hist+"_count", route(r)))
	}
	slow := func(r string) float64 {
		le := fmt.Sprintf(`le="%g"`, 0.001)
		n := a.sum(hist+"_count", route(r)) - b.sum(hist+"_count", route(r))
		fast := a.sum(hist+"_bucket", route(r), le) - b.sum(hist+"_bucket", route(r), le)
		return ratio(n-fast, n)
	}
	L["httpapi.feedback_mean_ms"] = handlerMean(b, a, "/v1/feedback")
	L["httpapi.feedback_slow_ratio"] = slow("/v1/feedback")
	// Batches reach every workload through seeding, so this one spans the
	// daemon's whole life rather than the load phase alone.
	L["httpapi.batch_mean_ms"] = handlerMean(exposition{}, a, "/v1/feedback/batch")
	L["httpapi.read_mean_ms"] = handlerMean(b, a, "/v1/reputation")
	L["httpapi.read_slow_ratio"] = slow("/v1/reputation")
	L["httpapi.not_modified_ratio"] = ratio(delta("dgserve_http_not_modified_total"), float64(e.rec.condReads.Load()))
	L["httpapi.refused"] = ratio(delta("dgserve_http_refused_total"), float64(e.rec.attempted.Load()))
	const fsync = "diffgossip_store_wal_fsync_duration_seconds"
	L["store.fsync_p50_ms"] = 1000 * histQuantile(b, a, fsync, 0.5)
	L["store.fsync_p99_ms"] = 1000 * histQuantile(b, a, fsync, 0.99)
	entries := delta("diffgossip_store_ledger_entries_total")
	L["store.fsyncs_per_1k_ratings"] = 1000 * ratio(delta("diffgossip_store_wal_fsyncs_total"), entries)
	L["store.wal_bytes_per_rating"] = ratio(o.walBytes, o.expo[1][0].sum("diffgossip_store_ledger_entries_total"))

	// Epoch attribution: each forced epoch's POST wall time against the
	// daemon's own trace row for that epoch. Campaign time is summed over the
	// epoch's shards, which fold in parallel on the daemon's fold workers, so
	// it is worker time and can exceed the compute phase's wall time.
	var persist, compute, campaign, segBytes, dirty, folded []float64
	var warm, total, useful, foldedAll float64
	var probeRows []traceEpoch
	nEpochs := 0.0
	for _, ep := range epochs {
		if !ep.ran {
			continue
		}
		nEpochs++
		rows := o.traces[ep.node]
		k := sort.Search(len(rows), func(k int) bool { return rows[k].Epoch >= ep.epoch })
		if k == len(rows) || rows[k].Epoch != ep.epoch {
			continue
		}
		row := rows[k]
		c, camp, sb, f := float64(row.DurationNs)/1e6, 0.0, 0.0, 0.0
		for _, s := range row.Shards {
			camp += float64(s.DurationNs) / 1e6
			sb += o.segmentBytes[ep.node][s.Shard]
			f += float64(s.Computed)
			warm += float64(s.WarmStarts)
			total += float64(s.WarmStarts + s.ColdStarts)
		}
		compute = append(compute, c)
		persist = append(persist, ep.wallMs-c)
		campaign = append(campaign, camp)
		segBytes = append(segBytes, sb)
		dirty = append(dirty, float64(row.DirtyShards))
		folded = append(folded, f)
		if k > 0 {
			seen := map[int]bool{}
			e.rec.mu.Lock()
			for seq := rows[k-1].Seq + 1; seq <= row.Seq; seq++ {
				if j, ok := e.rec.acked[ep.node][seq]; ok {
					seen[j] = true
				}
			}
			e.rec.mu.Unlock()
			useful += float64(len(seen))
			foldedAll += f
		}
		if ep.node == 0 && len(probeRows) < maxProbeEpochs {
			probeRows = append(probeRows, row)
		}
	}
	if nEpochs == 0 || len(compute) == 0 {
		return fmt.Errorf("no forced epoch matched a /v1/trace row")
	}
	L["store.persist_ms"] = median(persist)
	L["store.segment_bytes_per_epoch"] = median(segBytes)
	L["service.epoch_compute_ms"] = median(compute)
	L["service.campaign_ms"] = median(campaign)
	L["service.dirty_shards_per_epoch"] = mean(dirty)
	L["service.folded_subjects_per_epoch"] = mean(folded)
	L["service.campaign_steps_per_epoch"] = delta("diffgossip_service_campaign_steps_sum") / nEpochs
	L["service.warm_start_ratio"] = ratio(warm, total)
	L["service.fold_useful_ratio"] = ratio(useful, foldedAll)
	L["service.pending_peak"] = o.pendingPeak
	var alloc, pause float64
	for i := range o.nodes {
		alloc += o.mem[1][i].fields["TotalAlloc"] - o.mem[0][i].fields["TotalAlloc"]
		pause += o.mem[1][i].pauseSince(o.mem[0][i])
	}
	L["service.alloc_mb_per_epoch"] = alloc / 1e6 / nEpochs
	L["service.gc_pause_ms_per_s"] = pause / 1e6 / o.t1.Sub(o.t0).Seconds()

	var applied, dup, gapped float64
	for i := range o.nodes {
		applied += float64(o.cstats[1][i].EntriesApplied - o.cstats[0][i].EntriesApplied)
		dup += float64(o.cstats[1][i].EntriesDuplicate - o.cstats[0][i].EntriesDuplicate)
		gapped += float64(o.cstats[1][i].BatchesGapped - o.cstats[0][i].BatchesGapped)
	}
	L["cluster.entries_applied"] = applied
	L["cluster.duplicate_ratio"] = ratio(dup, applied+dup)
	L["cluster.batches_gapped"] = gapped
	L["cluster.mark_gap_peak"] = o.markGapPeak

	if err := probes(st, sh, w, mr, e, sched, probeRows); err != nil {
		return err
	}
	// Each term is a median over the run's epochs, so the terms need not add
	// up; what they leave over is stated as the gap.
	epochMs, computeMs, persistMs := st.e2e["epoch_s"]*1000, median(compute), median(persist)
	st.notes = append(st.notes, fmt.Sprintf(
		"epoch attribution: epoch_s %.1fms = compute %.1fms + persist %.1fms + gap %.1fms; "+
			"campaigns %.1fms summed over shards; probes: freeze %.1fms, cold campaigns %.1fms",
		epochMs, computeMs, persistMs, epochMs-computeMs-persistMs, median(campaign),
		L["trust.freeze_ms"], L["core.cold_campaign_ms"]))
	return nil
}

// maxProbeEpochs caps how many recorded epochs the freeze probe replays.
const maxProbeEpochs = 4

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probes replays the run's recorded inputs through each layer's public
// functions once the load phase is over, so they cannot perturb the live
// timings.
func probes(st *runState, sh shape, w *world, mr *mirror, e *engine, sched *schedule, rows []traceEpoch) error {
	L := st.layer
	tr := e.tr
	root, start := tr.reserve(), time.Now()
	defer func() { tr.record(root, "bench probes", 0, start, time.Now()) }()
	timed := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.span(name, root, t0, t1)
		return float64(t1.Sub(t0).Nanoseconds()) / 1e6, err
	}

	// httpapi: decode every batch body the run sent.
	var decodeMs float64
	var ratings int
	var decoded [][]store.Feedback
	for _, body := range sched.batchBodies {
		var fbs []store.Feedback
		ms, err := timed("httpapi.DecodeBatch", func() error {
			var err error
			fbs, err = httpapi.DecodeBatch(bytes.NewReader(body), httpapi.DefaultMaxBatch)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe DecodeBatch: %w", err)
		}
		decodeMs += ms
		ratings += len(fbs)
		decoded = append(decoded, fbs)
	}
	L["httpapi.decode_us_per_rating"] = 1000 * decodeMs / float64(max(1, ratings))

	// store: replay the single writes and batches into a private ledger.
	dir, err := os.MkdirTemp(filepath.Dir(e.nodes[0].dataDir), "probe-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var singles []rating
	for _, o := range sched.singles {
		singles = append(singles, o.rs...)
	}
	for _, r := range sched.rounds {
		for _, o := range r {
			singles = append(singles, o.rs...)
		}
	}
	singles = singles[:min(len(singles), 20000)]
	led, _, err := store.OpenLedger(filepath.Join(dir, "single.jsonl"), sh.n)
	if err != nil {
		return err
	}
	appendMs, err := timed("store.Ledger.Append", func() error {
		for _, r := range singles {
			if _, err := led.Append(r.rater, r.subject, r.value, r.ts); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe Append: %w", err)
	}
	L["store.append_us"] = 1000 * appendMs / float64(max(1, len(singles)))
	led, _, err = store.OpenLedger(filepath.Join(dir, "batch.jsonl"), sh.n)
	if err != nil {
		return err
	}
	var batchMs []float64
	for _, fbs := range decoded[:min(len(decoded), 200)] {
		ms, err := timed("store.Ledger.AppendBatch", func() error { _, _, err := led.AppendBatch(fbs); return err })
		if err != nil {
			led.Close()
			return fmt.Errorf("probe AppendBatch: %w", err)
		}
		batchMs = append(batchMs, ms)
	}
	if err := led.Close(); err != nil {
		return err
	}
	L["store.append_batch_ms"] = median(batchMs)

	// trust and core: freeze each recorded epoch's dirty shards from the
	// mirror, as the fold does, then run the last one's campaigns cold.
	var freeze []float64
	var entries, cells float64
	var lastCols []*trust.Columns
	var lastSubjects [][]int
	for _, row := range rows {
		lastCols, lastSubjects = nil, nil
		var epochMs float64
		for _, s := range row.Shards {
			subjects := store.ShardSubjects(sh.n, s.Shard, sh.shards)
			var cols *trust.Columns
			ms, err := timed("trust.ColumnsOf", func() error {
				var err error
				cols, err = trust.ColumnsOf(mr.m, subjects)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe ColumnsOf: %w", err)
			}
			epochMs += ms
			entries += float64(cols.NumEntries())
			cells += float64(sh.n * len(subjects))
			lastCols = append(lastCols, cols)
			lastSubjects = append(lastSubjects, subjects)
		}
		freeze = append(freeze, epochMs)
	}
	if len(freeze) == 0 {
		return fmt.Errorf("no epoch rows to replay")
	}
	L["trust.freeze_ms"] = median(freeze)
	L["trust.freeze_useful_ratio"] = ratio(entries, cells)
	var campaignMs, steps float64
	// dgserve's default -epsilon and -seed, and the service's sparse fraction.
	p := core.Params{Epsilon: 1e-6, Seed: 1, Workers: 1, SparseRaterFrac: 0.25}
	for k, cols := range lastCols {
		var res *core.SubjectsResult
		ms, err := timed("core.GlobalSubjects", func() error {
			var err error
			res, err = core.GlobalSubjects(w.g, cols, lastSubjects[k], p)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe GlobalSubjects: %w", err)
		}
		campaignMs += ms
		steps += float64(res.TotalSteps)
	}
	L["core.cold_campaign_ms"] = campaignMs
	L["core.ns_per_step"] = 1e6 * ratio(campaignMs, steps)

	// graph: build the workload's overlay.
	var build []float64
	for k := 0; k < 3; k++ {
		ms, err := timed("graph.PreferentialAttachment", func() error {
			_, err := graph.PreferentialAttachment(graph.PAConfig{N: sh.n, M: 2, Seed: overlaySeed})
			return err
		})
		if err != nil {
			return err
		}
		build = append(build, ms)
	}
	L["graph.build_ms"] = median(build)
	return nil
}
