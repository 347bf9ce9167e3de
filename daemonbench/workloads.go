package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"diffgossip/internal/rng"
)

// shape is one workload: the overlay and seeded trust, the daemon flags it
// names beyond production defaults, and its traffic. Epochs run only when
// the benchmark forces them (-epoch 0 everywhere), so every workload times
// epochs the same way: the wall time of POST /v1/epoch.
type shape struct {
	why        string
	n, shards  int
	meanRaters float64
	flags      []string
	replicas   int
	// Open-loop streams, in requests per second with uniform spacing.
	singleRate, batchRate, readRate float64
	batchSize                       int
	condShare                       float64 // share of reads sent with If-None-Match
	watchEvery                      int     // watch one in this many single writes
	// epochEvery forces an epoch on every daemon at this cadence; zero runs
	// rounds instead: re-rate roundShare of the subjects at roundRate, then
	// force one epoch, back to back.
	epochEvery            time.Duration
	roundShare, roundRate float64
	killReboot            bool // ingest's durability gate
}

// shapes are the benchmark's workloads; BENCHMARK.json carries the same
// names and reasons.
var shapes = map[string]shape{
	"ingest": {
		why: "durable write path: HTTP decode/validate and WAL append+fsync dominate; epochs are small (N=1000)",
		n:   1000, shards: 8, meanRaters: 16, flags: []string{"-epoch", "0"}, replicas: 1,
		singleRate: 1000, batchRate: 10, batchSize: 256, readRate: 200, condShare: 0.5,
		watchEvery: 10, epochEvery: 500 * time.Millisecond, killReboot: true,
	},
	"epoch": {
		why: "headline compute path: warm 5%-dirty epoch at N=5000, S=20, where column freeze and fold dominate",
		n:   5000, shards: 20, meanRaters: 48, flags: []string{"-epoch", "0", "-max-pending", "400000"}, replicas: 1,
		readRate: 200, condShare: 0.5, watchEvery: 1, roundShare: 0.05, roundRate: 1000,
	},
	"replicated": {
		why: "two cluster-mode replicas: writes alternate front doors and are watched on the other replica (cluster, cold folds)",
		n:   1000, shards: 8, meanRaters: 16, flags: []string{"-epoch", "0", "-anti-entropy", "50ms"},
		replicas: 2, singleRate: 120, readRate: 200, condShare: 0.5, watchEvery: 1,
		epochEvery: time.Second,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// smokeShape shrinks a shape for the benchmark's own tests.
func smokeShape(sh shape) shape {
	scale := 300.0 / float64(sh.n)
	sh.n = 300
	if sh.shards > 8 {
		sh.shards = 8
	}
	sh.meanRaters = min(sh.meanRaters, 12)
	sh.singleRate *= scale
	sh.batchRate *= scale
	sh.readRate *= scale
	sh.roundRate *= scale
	if sh.batchSize > 64 {
		sh.batchSize = 64
	}
	return sh
}

// schedule is a workload's pre-generated traffic.
type schedule struct {
	singles, batches, reads []op
	rounds                  [][]op
	batchBodies             [][]byte // every batch body sent, seeding included, for the decode probe
	tail                    []op     // gate (c): sent after the load, unfolded when the daemon is killed
}

// maxRounds caps the pre-generated rounds of the epoch workload.
const maxRounds = 200

// tailSingles is how many single writes gate (c)'s tail holds beside its one
// batch.
const tailSingles = 32

func buildSchedule(sh shape, w *world, seconds float64, seed uint64) *schedule {
	src := rng.New(seed + 2)
	s := &schedule{}
	every := func(rate float64) (int, time.Duration) {
		if rate <= 0 {
			return 0, 0
		}
		count := int(rate * seconds)
		return count, time.Duration(float64(time.Second) / rate)
	}
	// Replicated writes add a rater to subjects in a seeded permutation
	// order, so each subject's writes are far apart in time and the other
	// replica's rater count tells exactly which have arrived.
	perm := src.Perm(sh.n)
	count, gap := every(sh.singleRate)
	for k := 0; k < count; k++ {
		o := op{due: time.Duration(k) * gap, kind: opSingle, node: k % sh.replicas, watch: -1}
		var r rating
		if sh.replicas > 1 {
			o.subject = perm[k%sh.n]
			var ok bool
			if r, ok = w.newRater(o.subject); !ok {
				r = w.rerate(o.subject)
			}
			o.raters = len(w.raters[o.subject])
		} else {
			o.subject = src.Intn(sh.n)
			r = w.rerate(o.subject)
		}
		o.rs = []rating{r}
		o.body = appendRatingJSON(nil, r)
		if sh.watchEvery > 0 && k%sh.watchEvery == 0 {
			o.watch = (o.node + 1) % sh.replicas
		}
		s.singles = append(s.singles, o)
	}
	count, gap = every(sh.batchRate)
	for k := 0; k < count; k++ {
		rs := make([]rating, sh.batchSize)
		for i := range rs {
			rs[i] = w.rerate(src.Intn(sh.n))
		}
		body := batchJSON(rs)
		s.batches = append(s.batches, op{due: time.Duration(k) * gap, kind: opBatch, node: k % sh.replicas, rs: rs, body: body, watch: -1})
		s.batchBodies = append(s.batchBodies, body)
	}
	count, gap = every(sh.readRate)
	for k := 0; k < count; k++ {
		s.reads = append(s.reads, op{due: time.Duration(k) * gap, kind: opRead, node: k % sh.replicas,
			subject: src.Intn(sh.n), cond: src.Bool(sh.condShare), watch: -1})
	}
	if sh.epochEvery == 0 {
		dirty := max(1, int(sh.roundShare*float64(sh.n)))
		gap := time.Duration(float64(time.Second) / sh.roundRate)
		for r := 0; r < maxRounds; r++ {
			round := make([]op, dirty)
			for k, j := range src.Sample(sh.n, dirty) {
				rt := w.rerate(j)
				round[k] = op{due: time.Duration(k) * gap, kind: opSingle, subject: j, rs: []rating{rt},
					body: appendRatingJSON(nil, rt), watch: 0}
			}
			s.rounds = append(s.rounds, round)
		}
	}
	if sh.killReboot {
		for k := 0; k < tailSingles; k++ {
			r := w.rerate(src.Intn(sh.n))
			s.tail = append(s.tail, op{kind: opSingle, rs: []rating{r}, body: appendRatingJSON(nil, r), watch: -1})
		}
		rs := make([]rating, sh.batchSize)
		for i := range rs {
			rs[i] = w.rerate(src.Intn(sh.n))
		}
		s.tail = append(s.tail, op{kind: opBatch, rs: rs, body: batchJSON(rs), watch: -1})
	}
	return s
}

// cluster is the set of daemons one setup produced.
type cluster struct {
	nodes []*daemon
}

func (cl *cluster) kill() {
	for _, d := range cl.nodes {
		d.kill()
	}
}

func (cl *cluster) stop() {
	for _, d := range cl.nodes {
		d.stop()
	}
}

// setupOnce is one timed set-up: spawn the daemons, seed the trust cells
// through batch POSTs, replicate, run the cold fold and wait for /readyz.
func setupOnce(c config, sh shape, w *world, dir string, conns int, pprof bool, bodies *[][]byte) (*cluster, float64, error) {
	cl := &cluster{}
	var addrs []string
	if sh.replicas > 1 {
		for i := 0; i < sh.replicas; i++ {
			a, err := freeAddr()
			if err != nil {
				return nil, 0, err
			}
			addrs = append(addrs, a)
		}
	}
	start := time.Now()
	for i := 0; i < sh.replicas; i++ {
		o := daemonOpts{n: sh.n, shards: sh.shards, flags: sh.flags, pprof: pprof,
			dataDir: filepath.Join(dir, "data-"+strconv.Itoa(i))}
		if sh.replicas > 1 {
			// Each replica joins only those already listening, so no first
			// dial fails into the transport's redial backoff; gossiped
			// membership tells the earlier ones about it.
			o.cluster, o.join = addrs[i], addrs[:i]
		}
		d, err := startDaemon(c.dgserve, o)
		if err != nil {
			cl.kill()
			return nil, 0, err
		}
		cl.nodes = append(cl.nodes, d)
	}
	last, err := seed(cl.nodes[0], w.seedCells, conns, bodies)
	if err != nil {
		cl.kill()
		return nil, 0, err
	}
	if sh.replicas > 1 {
		if err := awaitMarks(cl.nodes, []uint64{last, 0}, 60*time.Second); err != nil {
			cl.kill()
			return nil, 0, err
		}
	}
	for _, d := range cl.nodes {
		if _, _, err := d.forceEpoch(); err != nil {
			cl.kill()
			return nil, 0, err
		}
	}
	for _, d := range cl.nodes {
		if err := d.waitReady(30 * time.Second); err != nil {
			cl.kill()
			return nil, 0, err
		}
	}
	return cl, time.Since(start).Seconds(), nil
}

// seedBatch is the seeding batch size: well inside the daemon's -max-batch.
const seedBatch = 1024

// seed sends the seeded trust cells as batch POSTs over conns connections,
// closed loop, and returns the last acknowledged seq.
func seed(d *daemon, cells []rating, conns int, bodies *[][]byte) (uint64, error) {
	client := loadClient(conns)
	defer client.CloseIdleConnections()
	var chunks [][]rating
	for k := 0; k < len(cells); k += seedBatch {
		chunks = append(chunks, cells[k:min(k+seedBatch, len(cells))])
	}
	encoded := make([][]byte, len(chunks))
	for k, ch := range chunks {
		encoded[k] = batchJSON(ch)
	}
	if bodies != nil {
		*bodies = append(*bodies, encoded...)
	}
	var mu sync.Mutex
	var last uint64
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan []byte)
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range next {
				resp, err := client.Post(d.base+"/v1/feedback/batch", jsonCT, bytes.NewReader(body))
				var b []byte
				if err == nil {
					b, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != 202 {
						err = fmt.Errorf("seed batch: status %d: %s", resp.StatusCode, b)
					}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if seq := jsonUint(b, `"last_seq":`); seq > last {
					last = seq
				}
				mu.Unlock()
			}
		}()
	}
	for _, body := range encoded {
		next <- body
	}
	close(next)
	wg.Wait()
	return last, firstErr
}

// awaitMarks waits until every replica holds every other replica's stream
// up to want[i] (0 = whatever the origin has) and all replicas agree.
func awaitMarks(nodes []*daemon, want []uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ok, err := marksAgree(nodes, want)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type clusterStats struct {
	Self             string            `json:"self"`
	Marks            map[string]uint64 `json:"marks"`
	EntriesApplied   uint64            `json:"entries_applied"`
	EntriesDuplicate uint64            `json:"entries_duplicate"`
	BatchesGapped    uint64            `json:"batches_gapped"`
}

type statsResp struct {
	Pending int           `json:"pending"`
	Cluster *clusterStats `json:"cluster"`
}

func clusterMarks(nodes []*daemon) ([]clusterStats, error) {
	out := make([]clusterStats, len(nodes))
	for i, d := range nodes {
		var st statsResp
		if err := d.getJSON("/v1/stats", &st); err != nil {
			return nil, err
		}
		if st.Cluster == nil {
			return nil, fmt.Errorf("node %d: /v1/stats has no cluster section", i)
		}
		out[i] = *st.Cluster
	}
	return out, nil
}

func marksAgree(nodes []*daemon, want []uint64) (bool, error) {
	cs, err := clusterMarks(nodes)
	if err != nil {
		return false, err
	}
	for i := range cs {
		if cs[i].Marks[cs[i].Self] < want[i] {
			return false, nil
		}
		for k := range cs {
			if len(cs[k].Marks) != len(cs[i].Marks) {
				return false, nil
			}
			for o, s := range cs[i].Marks {
				if cs[k].Marks[o] != s {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// epochLog is one forced epoch.
type epochLog struct {
	node   int
	epoch  uint64
	wallMs float64
	ran    bool
}

// A run sets up at least minSetups times and until minSetupTime has passed
// (at most maxSetups), and reports the median: cheap set-ups repeat more, so
// their median is as steady as an expensive one's. The load then runs on
// the last set-up.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 4 * time.Second
)

// runShape runs one workload end to end: inputs, set-ups, load, gates and
// metrics.
func runShape(sh shape, c config, dir string, st *runState) error {
	if c.smoke {
		sh = smokeShape(sh)
	}
	conns := max(1, runtime.NumCPU()/sh.replicas)
	if err := checkCaps(conns * sh.replicas); err != nil {
		return err
	}
	st.conns = conns
	w, err := newWorld(sh.n, sh.meanRaters, c.seed)
	if err != nil {
		return err
	}
	mr := newMirror(sh.n)
	if err := mr.apply(w.seedCells); err != nil {
		return err
	}
	sched := buildSchedule(sh, w, c.seconds, c.seed)
	tr := newTracer(c.trace)

	var cl *cluster
	var setupTimes, bootMs []float64
	setupStart := time.Now()
	for k := 0; k < maxSetups; k++ {
		if k >= minSetups && (c.smoke || time.Since(setupStart) >= minSetupTime) {
			break
		}
		if cl != nil {
			cl.kill()
		}
		sdir := filepath.Join(dir, "setup-"+strconv.Itoa(k))
		var secs float64
		t0 := time.Now()
		var bodies *[][]byte
		if k == 0 {
			bodies = &sched.batchBodies
		}
		cl, secs, err = setupOnce(c, sh, w, sdir, conns, c.trace, bodies)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		tr.span("bench setup", 0, t0, time.Now())
		setupTimes = append(setupTimes, secs)
		for _, d := range cl.nodes {
			bootMs = append(bootMs, d.bootMs)
		}
	}
	defer func() { cl.kill() }()
	st.e2e["setup_s"] = median(setupTimes)
	st.layer["service.boot_ms"] = median(bootMs)

	e := newEngine(cl.nodes, conns, sh.shards, mr, tr, sh.replicas > 1)
	defer e.close()
	obsv := newObserver(cl.nodes, c.trace)
	obsv.backlog = e.rec.backlog
	if err := obsv.before(); err != nil {
		return err
	}
	defer obsv.halt()
	epochs, err := drive(sh, c, e, sched)
	if err != nil {
		return err
	}
	if err := obsv.after(); err != nil {
		return err
	}
	rss := 0.0
	for _, d := range cl.nodes {
		v, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		rss += v
	}
	st.e2e["peak_rss_mb"] = rss
	st.attempted = e.rec.attempted.Load()
	st.failed = e.rec.failed.Load()
	if st.failed > 0 {
		return fmt.Errorf("%d of %d requests failed: %v", st.failed, st.attempted, e.rec.errs)
	}

	// Gates.
	if sh.killReboot {
		rebooted, err := killReboot(c, sh, cl, e, sched.tail)
		if err != nil {
			return err
		}
		cl = rebooted
	}
	for _, d := range cl.nodes {
		if _, _, err := d.forceEpoch(); err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
	}
	if sh.replicas > 1 {
		if err := awaitMarks(cl.nodes, e.rec.maxAcked, 30*time.Second); err != nil {
			return err
		}
		for _, d := range cl.nodes {
			if _, _, err := d.forceEpoch(); err != nil {
				return fmt.Errorf("final epoch: %w", err)
			}
		}
	}
	repErr, err := checkMirror(cl.nodes, mr)
	if err != nil {
		return err
	}
	st.layer["service.rep_err_max"] = repErr

	if err := endToEndMetrics(st, e.rec, epochs); err != nil {
		return err
	}
	if c.trace {
		if err := layerMetrics(st, sh, w, mr, e, obsv, epochs, sched); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(c.work, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))); err != nil {
			return err
		}
	}
	cl.stop()
	return nil
}

// drive runs the load phase: the open-loop streams, forced epochs (on a
// cadence or in rounds) and the visibility watcher, then lets epochs
// continue until every watched write is visible.
func drive(sh shape, c config, e *engine, sched *schedule) ([]epochLog, error) {
	var mu sync.Mutex
	var epochs []epochLog
	var epochErr error
	// Cadence epochs forced after the load phase, while watched writes drain, fold
	// little and are not counted in epoch_s.
	var end time.Time
	force := func() {
		inLoad := sh.epochEvery == 0 || time.Now().Before(end)
		for i, d := range e.nodes {
			t0 := time.Now()
			er, wall, err := d.forceEpoch()
			mu.Lock()
			if err != nil {
				if epochErr == nil {
					epochErr = err
				}
			} else {
				epochs = append(epochs, epochLog{node: i, epoch: er.Epoch, wallMs: ms(wall), ran: er.Ran && inLoad})
			}
			mu.Unlock()
			e.tr.span("httpapi POST /v1/epoch", 0, t0, time.Now())
		}
	}
	stopWatch := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); e.watch.run(stopWatch) }()

	base := time.Now().Add(20 * time.Millisecond)
	end = base.Add(time.Duration(c.seconds * float64(time.Second)))
	var streams sync.WaitGroup
	for _, ops := range [][]op{sched.singles, sched.batches, sched.reads} {
		if len(ops) == 0 {
			continue
		}
		streams.Add(1)
		go func() { defer streams.Done(); e.runStream(ops, 4, base) }()
	}
	stopEpochs := make(chan struct{})
	epochsDone := make(chan struct{})
	if sh.epochEvery > 0 {
		go func() {
			defer close(epochsDone)
			for k := 1; ; k++ {
				select {
				case <-stopEpochs:
					return
				case <-time.After(time.Until(base.Add(time.Duration(k) * sh.epochEvery))):
				}
				force()
			}
		}()
	} else {
		go func() {
			defer close(epochsDone)
			for r := 0; r < len(sched.rounds); r++ {
				if r >= 3 && time.Now().After(end) {
					break
				}
				e.runStream(sched.rounds[r], 4, time.Now())
				force()
			}
		}()
		<-epochsDone
	}
	streams.Wait()
	// Drain: epochs keep running until every watched write is visible.
	deadline := time.Now().Add(30 * time.Second)
	for e.watch.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sh.epochEvery > 0 {
		close(stopEpochs)
		<-epochsDone
	}
	close(stopWatch)
	bg.Wait()
	if n := e.watch.outstanding(); n > 0 {
		e.rec.failed.Add(int64(n))
		e.rec.fail("%d watched writes never became visible", n)
	}
	mu.Lock()
	defer mu.Unlock()
	return epochs, epochErr
}
