package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// The schema-v9 http-front-door rows measure the production ingress path
// (internal/httpapi — the exact handler stack cmd/dgserve serves, not a
// bench-only mux) over a real loopback socket:
//
//   - ingest=single / ingest=batch: accepted ratings per second for the same
//     workload arriving as one-rating POSTs versus 256-rating batches, both
//     against a WAL-backed service under the production durability policy
//     (per-entry flush for singles, one amortized fsync per batch). The ratio
//     is the batch-ingest claim: one request and one disk barrier per few
//     hundred ratings beats per-rating HTTP round trips by well over 5×.
//   - overload=nobp / overload=bp: p99 read latency under an open-loop
//     flood of batch writes. The nobp run admits everything (MaxPending
//     unlimited), so reads queue behind JSON decode and fsync work; the bp
//     run sheds with 429 before the body is read once the pending window
//     fills, so the same reader workload sees a far shorter tail. The p99
//     ratio is the backpressure claim.
//   - reads=conditional: If-None-Match pollers against folded state —
//     requests, 304 ratio, and the latency of the ETag short-circuit path.
//   - cluster=3: three federated replicas behind three front doors, a mixed
//     single/batch workload with pinned LWW stamps split across them,
//     anti-entropy to watermark convergence, then an epoch forced through
//     each door and every replica's NDJSON dump compared bit-for-bit.
const frontDoorBatch = 256

// benchFrontDoor runs the four schema-v9 row families above.
func benchFrontDoor(cfg BenchConfig) ([]BenchResult, error) {
	var rows []BenchResult
	for _, batch := range []int{1, frontDoorBatch} {
		row, err := benchFrontDoorIngest(cfg, batch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, bp := range []bool{false, true} {
		row, err := benchFrontDoorOverload(cfg, bp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	row, err := benchFrontDoorConditional(cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	if row, err = benchFrontDoorCluster(cfg); err != nil {
		return nil, err
	}
	return append(rows, row), nil
}

// frontDoorServe binds srv to a loopback listener and returns the base URL
// plus a shutdown func.
func frontDoorServe(srv *httpapi.Server) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// frontDoorClient returns an HTTP client with enough idle connections that
// every bench worker keeps one alive.
func frontDoorClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// frontDoorWorkers is the closed-loop rows' client concurrency: every hardware
// thread, but at least 4 so they saturate even a 1-CPU CI host.
func frontDoorWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return w
}

// drainStatus discards a response body and checks the status.
func drainStatus(resp *http.Response, wantStatus int) error {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("bench: http status %d, want %d", resp.StatusCode, wantStatus)
	}
	return nil
}

// appendRatingJSON appends one feedback object (without LWW stamp) to buf.
func appendRatingJSON(buf *bytes.Buffer, src *rng.Source, n int) {
	fmt.Fprintf(buf, `{"rater":%d,"subject":%d,"value":%.6f}`, src.Intn(n), src.Intn(n), src.Float64())
}

// benchFrontDoorIngest measures accepted ratings per second for one ingest
// shape — batch=1 single POSTs, batch>1 array bodies — against a WAL-backed
// service, so both rows pay the production durability policy and the ratio
// between them isolates the per-request overhead batching amortizes.
func benchFrontDoorIngest(cfg BenchConfig, batch int) (BenchResult, error) {
	n := cfg.VectorN
	g, err := buildPA(n, cfg.Seed+90)
	if err != nil {
		return BenchResult{}, err
	}
	dir, err := os.MkdirTemp("", "dgbench-frontdoor-*")
	if err != nil {
		return BenchResult{}, err
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: cfg.Epsilon, Seed: cfg.Seed + 91, Workers: -1},
		Dir:    dir,
	})
	if err != nil {
		return BenchResult{}, err
	}
	defer svc.Close()
	// MaxPending is lifted: this row measures accepted throughput, and the
	// whole workload fits far inside the default window anyway.
	base, stop, err := frontDoorServe(httpapi.New(httpapi.Config{Service: svc, MaxPending: -1}))
	if err != nil {
		return BenchResult{}, err
	}
	defer stop()

	workers := frontDoorWorkers()
	client := frontDoorClient(workers)
	total := 8 * n
	perWorker := total / workers
	if perWorker < batch {
		perWorker = batch
	}
	hist := obs.NewHistogram(obs.ExponentialBuckets(10e-6, 1.5, 32)...)
	var accepted, requests atomic.Int64
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(cfg.Seed + 92 + uint64(w))
			var body bytes.Buffer
			for sent := 0; sent < perWorker; sent += batch {
				body.Reset()
				url := base + "/v1/feedback"
				if batch > 1 {
					url = base + "/v1/feedback/batch"
					body.WriteByte('[')
					for i := 0; i < batch; i++ {
						if i > 0 {
							body.WriteByte(',')
						}
						appendRatingJSON(&body, src, n)
					}
					body.WriteByte(']')
				} else {
					appendRatingJSON(&body, src, n)
				}
				reqStart := time.Now()
				resp, err := client.Post(url, "application/json", &body)
				if err != nil {
					errCh <- err
					return
				}
				if err := drainStatus(resp, http.StatusAccepted); err != nil {
					errCh <- err
					return
				}
				hist.Observe(time.Since(reqStart).Seconds())
				requests.Add(1)
				accepted.Add(int64(batch))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return BenchResult{}, err
	default:
	}

	shape := "single"
	if batch > 1 {
		shape = "batch"
	}
	return BenchResult{
		Name:            "http-front-door/ingest=" + shape,
		N:               n,
		Converged:       true,
		IngestPerSec:    float64(accepted.Load()) / elapsed.Seconds(),
		AcceptedRatings: accepted.Load(),
		Requests:        requests.Load(),
		P50Ns:           int64(hist.Quantile(0.50) * 1e9),
		P95Ns:           int64(hist.Quantile(0.95) * 1e9),
		P99Ns:           int64(hist.Quantile(0.99) * 1e9),
	}, nil
}

// frontDoorOverloadPending is the bp row's pending-window cap: small enough
// that the flood fills it within its first few batches, so nearly every
// subsequent write is refused before its body is read.
const frontDoorOverloadPending = 2048

// frontDoorFloodRate is the overload rows' offered write load, in batch POSTs
// per second, and frontDoorFloodInFlight caps how many of them may be
// outstanding at once. The flood is open-loop: it arrives on schedule
// however slowly the server answers, so a server that admits every batch
// falls behind and keeps the whole cap in flight, while one that sheds
// answers each request in microseconds and keeps almost nothing queued. A
// closed-loop flood would instead slow down with the server it measures, and
// hand the shedding run the larger request rate.
const (
	frontDoorFloodRate     = 4000
	frontDoorFloodInFlight = 64
)

// benchFrontDoorOverload measures read tail latency under an open-loop flood
// of batch writes. bp=false admits every batch (decode + WAL append + fsync
// on the server, with readers competing for the same cores); bp=true caps the
// pending window so the same flood is answered 429 from one atomic load.
// Identical reader workload, identical offered write load — only the
// admission policy differs, so the p99 ratio isolates what shedding buys.
func benchFrontDoorOverload(cfg BenchConfig, bp bool) (BenchResult, error) {
	n := cfg.VectorN
	g, err := buildPA(n, cfg.Seed+95)
	if err != nil {
		return BenchResult{}, err
	}
	dir, err := os.MkdirTemp("", "dgbench-overload-*")
	if err != nil {
		return BenchResult{}, err
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: cfg.Epsilon, Seed: cfg.Seed + 96, Workers: -1},
		Dir:    dir,
	})
	if err != nil {
		return BenchResult{}, err
	}
	defer svc.Close()
	// Seed folded state so reads serve real reputations.
	src := rng.New(cfg.Seed + 97)
	for j := 0; j < n; j++ {
		if _, err := svc.Submit(src.Intn(n), j, src.Float64()); err != nil {
			return BenchResult{}, err
		}
	}
	if _, _, err := svc.RunEpoch(); err != nil {
		return BenchResult{}, err
	}
	maxPending := -1
	if bp {
		maxPending = frontDoorOverloadPending
	}
	base, stop, err := frontDoorServe(httpapi.New(httpapi.Config{
		Service: svc, MaxPending: maxPending, EpochEvery: time.Second,
	}))
	if err != nil {
		return BenchResult{}, err
	}
	defer stop()

	const writeBatch = 128
	const readers = 2
	client := frontDoorClient(frontDoorFloodInFlight + readers)
	readsPerReader := 6 * n
	hist := obs.NewHistogram(obs.ExponentialBuckets(10e-6, 1.5, 32)...)
	var accepted, shed, reads atomic.Int64
	var stopFlood atomic.Bool
	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	// A few pre-encoded bodies keep the client's own encoding work small and
	// the same in both runs.
	bodies := make([][]byte, 16)
	bsrc := rng.New(cfg.Seed + 98)
	for k := range bodies {
		var body bytes.Buffer
		body.WriteByte('[')
		for i := 0; i < writeBatch; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			appendRatingJSON(&body, bsrc, n)
		}
		body.WriteByte(']')
		bodies[k] = body.Bytes()
	}
	post := func(body []byte) {
		resp, err := client.Post(base+"/v1/feedback/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			fail(err)
			return
		}
		status := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case status == http.StatusAccepted:
			accepted.Add(writeBatch)
		case status == http.StatusTooManyRequests && bp:
			shed.Add(1)
		default:
			fail(fmt.Errorf("bench: overload write status %d (bp=%v)", status, bp))
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		slots := make(chan struct{}, frontDoorFloodInFlight)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for sent := 0; !stopFlood.Load(); <-tick.C {
			// Dispatch every request now due; one that finds every slot
			// busy is dropped, never delayed.
			for due := int(time.Since(start).Seconds() * frontDoorFloodRate); sent < due; sent++ {
				select {
				case slots <- struct{}{}:
				default:
					continue
				}
				wg.Add(1)
				go func(body []byte) {
					defer wg.Done()
					post(body)
					<-slots
				}(bodies[sent%len(bodies)])
			}
		}
	}()
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			src := rng.New(cfg.Seed + 99 + uint64(r))
			for i := 0; i < readsPerReader; i++ {
				reqStart := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/v1/reputation/%d", base, src.Intn(n)))
				if err != nil {
					fail(err)
					return
				}
				if err := drainStatus(resp, http.StatusOK); err != nil {
					fail(err)
					return
				}
				hist.Observe(time.Since(reqStart).Seconds())
				reads.Add(1)
			}
		}(r)
	}
	rwg.Wait()
	stopFlood.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return BenchResult{}, err
	default:
	}
	if bp && shed.Load() == 0 {
		return BenchResult{}, fmt.Errorf("bench: backpressure run shed nothing — the flood never filled the window")
	}

	name := "http-front-door/overload=nobp"
	if bp {
		name = "http-front-door/overload=bp"
	}
	return BenchResult{
		Name:            name,
		N:               n,
		Converged:       true,
		IngestPerSec:    float64(accepted.Load()) / elapsed.Seconds(),
		AcceptedRatings: accepted.Load(),
		ShedRequests:    shed.Load(),
		Requests:        reads.Load(),
		P50Ns:           int64(hist.Quantile(0.50) * 1e9),
		P95Ns:           int64(hist.Quantile(0.95) * 1e9),
		P99Ns:           int64(hist.Quantile(0.99) * 1e9),
	}, nil
}

// benchFrontDoorConditional measures the conditional-read path: pollers that
// remember each subject's ETag and send If-None-Match. With no fold in
// between, every repeat poll of a subject is a 304 served from one atomic
// load and a string compare — the row records how much of the workload
// short-circuited and what the 304 path costs.
func benchFrontDoorConditional(cfg BenchConfig) (BenchResult, error) {
	n := cfg.VectorN
	g, err := buildPA(n, cfg.Seed+100)
	if err != nil {
		return BenchResult{}, err
	}
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: cfg.Epsilon, Seed: cfg.Seed + 101, Workers: -1},
	})
	if err != nil {
		return BenchResult{}, err
	}
	defer svc.Close()
	src := rng.New(cfg.Seed + 102)
	for j := 0; j < n; j++ {
		if _, err := svc.Submit(src.Intn(n), j, src.Float64()); err != nil {
			return BenchResult{}, err
		}
	}
	if _, _, err := svc.RunEpoch(); err != nil {
		return BenchResult{}, err
	}
	base, stop, err := frontDoorServe(httpapi.New(httpapi.Config{Service: svc}))
	if err != nil {
		return BenchResult{}, err
	}
	defer stop()

	workers := frontDoorWorkers()
	client := frontDoorClient(workers)
	perWorker := 10 * n / workers
	if perWorker < 1 {
		perWorker = 1
	}
	hist := obs.NewHistogram(obs.ExponentialBuckets(10e-6, 1.5, 32)...)
	var requests, notModified atomic.Int64
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(cfg.Seed + 103 + uint64(w))
			etags := make(map[int]string)
			for i := 0; i < perWorker; i++ {
				subject := src.Intn(n)
				req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/reputation/%d", base, subject), nil)
				if err != nil {
					errCh <- err
					return
				}
				tag, cached := etags[subject]
				if cached {
					req.Header.Set("If-None-Match", tag)
				}
				reqStart := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errCh <- err
					return
				}
				status := resp.StatusCode
				etag := resp.Header.Get("ETag")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case status == http.StatusOK:
					etags[subject] = etag
				case status == http.StatusNotModified && cached:
					notModified.Add(1)
				default:
					errCh <- fmt.Errorf("bench: conditional read status %d (cached=%v)", status, cached)
					return
				}
				hist.Observe(time.Since(reqStart).Seconds())
				requests.Add(1)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return BenchResult{}, err
	default:
	}
	if notModified.Load() == 0 {
		return BenchResult{}, fmt.Errorf("bench: conditional readers never hit a 304")
	}
	return BenchResult{
		Name:        "http-front-door/reads=conditional",
		N:           n,
		Converged:   true,
		Requests:    requests.Load(),
		NotModified: notModified.Load(),
		P50Ns:       int64(hist.Quantile(0.50) * 1e9),
		P95Ns:       int64(hist.Quantile(0.95) * 1e9),
		P99Ns:       int64(hist.Quantile(0.99) * 1e9),
	}, nil
}

// benchFrontDoorCluster drives the sustained mixed workload through three
// federated replicas, each behind its own front door: ratings with pinned
// LWW stamps arrive as a deterministic single/batch mix split across the
// doors, anti-entropy runs to watermark agreement (timed — the converge_ns
// of the row), an epoch is forced through each door's POST /v1/epoch, and
// every replica's full NDJSON reputation dump must agree bit-for-bit.
func benchFrontDoorCluster(cfg BenchConfig) (BenchResult, error) {
	const n = 256
	const replicas = 3
	const clusterBatch = 64
	g, err := buildPA(n, cfg.Seed+105)
	if err != nil {
		return BenchResult{}, err
	}
	hub := transport.NewHub()
	origins := [replicas]string{"fd-0", "fd-1", "fd-2"}
	var svcs [replicas]*service.Service
	var nodes [replicas]*cluster.Node
	var bases [replicas]string
	for i := 0; i < replicas; i++ {
		svc, err := service.New(service.Config{
			Graph:          g,
			Params:         core.Params{Epsilon: cfg.Epsilon, Seed: cfg.Seed + 106, Workers: 1},
			Shards:         4,
			Replicate:      true,
			FixedEpochSeed: true,
			Origin:         origins[i],
		})
		if err != nil {
			return BenchResult{}, err
		}
		defer svc.Close()
		ep, err := hub.Endpoint(origins[i])
		if err != nil {
			return BenchResult{}, err
		}
		defer ep.Close()
		var peers []string
		for j := 0; j < replicas; j++ {
			if j != i {
				peers = append(peers, origins[j])
			}
		}
		node, err := cluster.New(cluster.Config{Service: svc, Transport: ep, Peers: peers})
		if err != nil {
			return BenchResult{}, err
		}
		defer node.Close()
		base, stop, err := frontDoorServe(httpapi.New(httpapi.Config{Service: svc, Node: node}))
		if err != nil {
			return BenchResult{}, err
		}
		defer stop()
		svcs[i], nodes[i], bases[i] = svc, node, base
	}

	// Mixed ingest: every fifth rating goes out as a single POST, the rest
	// buffer into per-door JSON-lines batches. Stamps are the rating index,
	// so LWW resolves identically on every replica regardless of arrival.
	client := frontDoorClient(replicas)
	src := rng.New(cfg.Seed + 107)
	total := 10 * n
	var requests, accepted int64
	var batchBufs [replicas]bytes.Buffer
	var batchLens [replicas]int
	flush := func(door int) error {
		if batchLens[door] == 0 {
			return nil
		}
		resp, err := client.Post(bases[door]+"/v1/feedback/batch", "application/json", &batchBufs[door])
		if err != nil {
			return err
		}
		if err := drainStatus(resp, http.StatusAccepted); err != nil {
			return err
		}
		requests++
		accepted += int64(batchLens[door])
		batchBufs[door].Reset()
		batchLens[door] = 0
		return nil
	}
	ingestStart := time.Now()
	for k := 0; k < total; k++ {
		door := k % replicas
		line := fmt.Sprintf(`{"rater":%d,"subject":%d,"value":%.6f,"unix_nano":%d}`,
			src.Intn(n), src.Intn(n), src.Float64(), k+1)
		if k%5 == 0 {
			resp, err := client.Post(bases[door]+"/v1/feedback", "application/json", bytes.NewReader([]byte(line)))
			if err != nil {
				return BenchResult{}, err
			}
			if err := drainStatus(resp, http.StatusAccepted); err != nil {
				return BenchResult{}, err
			}
			requests++
			accepted++
			continue
		}
		batchBufs[door].WriteString(line)
		batchBufs[door].WriteByte('\n')
		if batchLens[door]++; batchLens[door] == clusterBatch {
			if err := flush(door); err != nil {
				return BenchResult{}, err
			}
		}
	}
	for door := 0; door < replicas; door++ {
		if err := flush(door); err != nil {
			return BenchResult{}, err
		}
	}
	ingestElapsed := time.Since(ingestStart)

	// Anti-entropy to watermark agreement: every replica must reach every
	// other's last local sequence number (origin streams share the ledger's
	// global sequence space, so the target is the stream mark, not a count).
	var want [replicas]uint64
	for i := range svcs {
		want[i] = svcs[i].LocalStreamMark()
	}
	converged := func() bool {
		for i := range nodes {
			marks := nodes[i].Stats().Marks
			for j := range origins {
				if j != i && marks[origins[j]] < want[j] {
					return false
				}
			}
		}
		return true
	}
	rounds := 0
	convStart := time.Now()
	for !converged() {
		for i := range nodes {
			nodes[i].Exchange()
		}
		for pass := 0; pass < 2; pass++ {
			for i := range nodes {
				nodes[i].Drain()
			}
		}
		if rounds++; rounds > 128 {
			return BenchResult{}, fmt.Errorf("bench: 3-replica cluster never converged")
		}
	}
	convergeNs := time.Since(convStart).Nanoseconds()

	// Fold through each door, then demand bit-identical dumps: same pinned
	// stamps, same fixed epoch seed — any divergence is an ingress bug.
	var dumps [replicas][]float64
	for i := range bases {
		resp, err := client.Post(bases[i]+"/v1/epoch", "application/json", nil)
		if err != nil {
			return BenchResult{}, err
		}
		if err := drainStatus(resp, http.StatusOK); err != nil {
			return BenchResult{}, err
		}
		if dumps[i], err = frontDoorDump(client, bases[i], n); err != nil {
			return BenchResult{}, err
		}
	}
	for i := 1; i < replicas; i++ {
		for j := 0; j < n; j++ {
			if dumps[i][j] != dumps[0][j] {
				return BenchResult{}, fmt.Errorf("bench: replica %d disagrees on subject %d: %v vs %v",
					i, j, dumps[i][j], dumps[0][j])
			}
		}
	}
	return BenchResult{
		Name:            "http-front-door/cluster=3",
		N:               n,
		Steps:           rounds,
		Converged:       true,
		IngestPerSec:    float64(accepted) / ingestElapsed.Seconds(),
		AcceptedRatings: accepted,
		Requests:        requests,
		ConvergeNs:      float64(convergeNs),
		NsPerStep:       float64(convergeNs) / float64(rounds),
	}, nil
}

// frontDoorDump streams GET /v1/reputations and returns the per-subject
// reputations, verifying the dump covers exactly [0, n) in order.
func frontDoorDump(client *http.Client, base string, n int) ([]float64, error) {
	resp, err := client.Get(base + "/v1/reputations")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: dump status %d", resp.StatusCode)
	}
	reps := make([]float64, 0, n)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line httpapi.ReputationResponse
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bench: bad dump line %q: %w", sc.Text(), err)
		}
		if line.Subject != len(reps) {
			return nil, fmt.Errorf("bench: dump out of order: subject %d at line %d", line.Subject, len(reps))
		}
		reps = append(reps, line.Reputation)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reps) != n {
		return nil, fmt.Errorf("bench: dump covered %d subjects, want %d", len(reps), n)
	}
	return reps, nil
}
