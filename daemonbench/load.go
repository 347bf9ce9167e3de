package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opSingle opKind = iota // POST /v1/feedback
	opBatch                // POST /v1/feedback/batch
	opRead                 // GET /v1/reputation/{subject}
)

// op is one pre-generated request with the time it is due, relative to the
// start of the load phase.
type op struct {
	due     time.Duration
	kind    opKind
	node    int // daemon the request goes to
	subject int
	body    []byte
	rs      []rating // ratings a write carries, applied to the mirror on 202
	cond    bool     // conditional read: send the last ETag seen for the shard
	watch   int      // for sampled writes, the daemon whose reads must show it; -1 = none
	raters  int      // replicated watches: the subject's rater count once this write is visible
}

// recorder collects the samples of one run. Latencies are in milliseconds,
// each measured from the request's due time.
type recorder struct {
	mu                    sync.Mutex
	ack, batch, read, vis []float64
	late                  []float64
	attempted, failed     atomic.Int64
	condReads             atomic.Int64
	errs                  []string
	// acked[node] maps each acknowledged seq to its subject, for the
	// fold-usefulness ratio.
	acked    []map[uint64]int
	maxAcked []uint64
}

func newRecorder(nodes int) *recorder {
	r := &recorder{acked: make([]map[uint64]int, nodes), maxAcked: make([]uint64, nodes)}
	for i := range r.acked {
		r.acked[i] = make(map[uint64]int)
	}
	return r
}

func (r *recorder) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *recorder) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

func (r *recorder) noteAck(node int, first, last uint64, rs []rating) {
	r.mu.Lock()
	for k, seq := 0, first; seq <= last && k < len(rs); k, seq = k+1, seq+1 {
		r.acked[node][seq] = rs[k].subject
	}
	if last > r.maxAcked[node] {
		r.maxAcked[node] = last
	}
	r.mu.Unlock()
}

// backlog counts node's acknowledged writes with a seq above after.
func (r *recorder) backlog(node int, after uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for seq := range r.acked[node] {
		if seq > after {
			n++
		}
	}
	return n
}

// engine drives the daemons of one run from a single process. Each daemon
// has its own load client, capped at the run's connection count.
type engine struct {
	nodes   []*daemon
	clients []*http.Client
	shards  int
	rec     *recorder
	mirror  *mirror
	tr      *tracer
	watch   *watcher
	etags   []sync.Map // per node: shard → last ETag seen
}

func newEngine(nodes []*daemon, conns, shards int, mr *mirror, tr *tracer, byRaters bool) *engine {
	e := &engine{nodes: nodes, shards: shards, rec: newRecorder(len(nodes)), mirror: mr, tr: tr,
		etags: make([]sync.Map, len(nodes))}
	for range nodes {
		e.clients = append(e.clients, loadClient(conns))
	}
	e.watch = newWatcher(e, byRaters)
	return e
}

func (e *engine) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

// runStream sends ops (sorted by due time) from senders goroutines, each
// taking the next op and sleeping until it is due, and returns when all are
// done. A sender that falls behind sends at once: its lateness is recorded
// and the wait it caused counts in the request's latency.
func (e *engine) runStream(ops []op, senders int, base time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ops) {
					return
				}
				o := &ops[k]
				due := base.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				e.do(o, due)
			}
		}()
	}
	wg.Wait()
}

const jsonCT = "application/json"

// do sends one op and records its outcome.
func (e *engine) do(o *op, due time.Time) {
	e.rec.attempted.Add(1)
	sent := time.Now()
	e.rec.add(&e.rec.late, ms(sent.Sub(due)))
	node := e.nodes[o.node]
	var req *http.Request
	var err error
	switch o.kind {
	case opSingle:
		req, err = http.NewRequest(http.MethodPost, node.base+"/v1/feedback", bytes.NewReader(o.body))
	case opBatch:
		req, err = http.NewRequest(http.MethodPost, node.base+"/v1/feedback/batch", bytes.NewReader(o.body))
	case opRead:
		req, err = http.NewRequest(http.MethodGet, node.base+"/v1/reputation/"+strconv.Itoa(o.subject), nil)
		if err == nil && o.cond {
			if tag, ok := e.etags[o.node].Load(o.subject % e.shards); ok {
				req.Header.Set("If-None-Match", tag.(string))
				e.rec.condReads.Add(1)
			}
		}
	}
	if err != nil {
		e.rec.fail("build request: %v", err)
		return
	}
	if o.kind != opRead {
		req.Header.Set("Content-Type", jsonCT)
	}
	resp, err := e.clients[o.node].Do(req)
	if err != nil {
		e.rec.fail("%s: %v", req.URL.Path, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		e.rec.fail("%s: read body: %v", req.URL.Path, err)
		return
	}
	lat := ms(done.Sub(due))
	id := e.tr.span(spanName(o.kind), 0, sent, done)
	switch o.kind {
	case opSingle, opBatch:
		if resp.StatusCode != http.StatusAccepted {
			e.rec.fail("%s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
			return
		}
		first, last := jsonUint(body, `"seq":`), jsonUint(body, `"seq":`)
		if o.kind == opBatch {
			first, last = jsonUint(body, `"first_seq":`), jsonUint(body, `"last_seq":`)
		}
		if err := e.mirror.apply(o.rs); err != nil {
			e.rec.fail("mirror: %v", err)
			return
		}
		e.rec.noteAck(o.node, first, last, o.rs)
		if o.kind == opSingle {
			e.rec.add(&e.rec.ack, lat)
			if o.watch >= 0 {
				e.watch.add(watch{node: o.watch, subject: o.subject, seq: last, raters: o.raters, due: due, span: id})
			}
		} else {
			e.rec.add(&e.rec.batch, lat)
		}
	case opRead:
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
			e.rec.fail("%s: status %d", req.URL.Path, resp.StatusCode)
			return
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			e.etags[o.node].Store(o.subject%e.shards, tag)
		}
		e.rec.add(&e.rec.read, lat)
	}
}

func spanName(k opKind) string {
	switch k {
	case opSingle:
		return "httpapi POST /v1/feedback"
	case opBatch:
		return "httpapi POST /v1/feedback/batch"
	}
	return "httpapi GET /v1/reputation"
}

// jsonUint reads the unsigned integer following key in a flat JSON object.
func jsonUint(b []byte, key string) uint64 {
	k := bytes.Index(b, []byte(key))
	if k < 0 {
		return 0
	}
	b = b[k+len(key):]
	end := 0
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	v, _ := strconv.ParseUint(string(b[:end]), 10, 64)
	return v
}

// etagSeq reads the fold-point seq out of a reputation ETag,
// "<shard>-<epoch>-<seq>".
func etagSeq(tag string) uint64 {
	k := bytes.LastIndexByte([]byte(tag), '-')
	if k < 0 {
		return 0
	}
	v, _ := strconv.ParseUint(tag[k+1:len(tag)-1], 10, 64)
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// watch is one acknowledged write whose visibility the watcher measures.
type watch struct {
	node, subject int
	seq           uint64
	raters        int
	due           time.Time
	span          uint64
}

// watcher re-reads watched writes at a fixed cadence until a read covers
// them. Standalone runs judge coverage by the shard fold point's seq (the
// ETag), so one read per shard with pending watches per tick covers them
// all; replicated runs read the other replica, whose seqs differ, and judge
// coverage by the subject's rater count.
type watcher struct {
	e        *engine
	byRaters bool
	cadence  time.Duration
	mu       sync.Mutex
	pending  map[[2]int][]watch // (node, shard or subject) → watches, in ack order
	known    map[[2]int]int     // replicated: last rater count seen per (node, subject)
	tags     map[[2]int]string
}

func newWatcher(e *engine, byRaters bool) *watcher {
	return &watcher{e: e, byRaters: byRaters, cadence: 50 * time.Millisecond,
		pending: map[[2]int][]watch{}, known: map[[2]int]int{}, tags: map[[2]int]string{}}
}

func (w *watcher) key(node, subject int) [2]int {
	if w.byRaters {
		return [2]int{node, subject}
	}
	return [2]int{node, subject % w.e.shards}
}

func (w *watcher) add(wt watch) {
	w.mu.Lock()
	k := w.key(wt.node, wt.subject)
	w.pending[k] = append(w.pending[k], wt)
	w.mu.Unlock()
}

func (w *watcher) outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, ws := range w.pending {
		n += len(ws)
	}
	return n
}

// run polls until stop is closed.
func (w *watcher) run(stop <-chan struct{}) {
	t := time.NewTicker(w.cadence)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		keys := make([][2]int, 0, len(w.pending))
		for k, ws := range w.pending {
			if len(ws) > 0 {
				keys = append(keys, k)
			}
		}
		w.mu.Unlock()
		sort.Slice(keys, func(a, b int) bool {
			return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
		})
		for _, k := range keys {
			w.poll(k)
		}
	}
}

// poll reads the subject of the oldest watch under k once and resolves every
// watch the read covers.
func (w *watcher) poll(k [2]int) {
	w.mu.Lock()
	ws := w.pending[k]
	if len(ws) == 0 {
		w.mu.Unlock()
		return
	}
	first := ws[0]
	tag := w.tags[k]
	w.mu.Unlock()

	e := w.e
	e.rec.attempted.Add(1)
	node := e.nodes[first.node]
	req, err := http.NewRequest(http.MethodGet, node.base+"/v1/reputation/"+strconv.Itoa(first.subject), nil)
	if err != nil {
		e.rec.fail("watch request: %v", err)
		return
	}
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
		e.rec.condReads.Add(1)
	}
	sent := time.Now()
	resp, err := e.clients[first.node].Do(req)
	if err != nil {
		e.rec.fail("watch read: %v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified) {
		e.rec.fail("watch read: status %d %v", resp.StatusCode, err)
		return
	}
	newTag := resp.Header.Get("ETag")
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tags[k] = newTag
	if resp.StatusCode == http.StatusOK && w.byRaters {
		w.known[k] = int(jsonUint(body, `"raters":`))
	}
	covered := func(wt watch) bool {
		if w.byRaters {
			return w.known[k] >= wt.raters
		}
		return etagSeq(newTag) >= wt.seq
	}
	ws = w.pending[k]
	keep := ws[:0]
	for _, wt := range ws {
		if covered(wt) {
			e.rec.add(&e.rec.vis, ms(done.Sub(wt.due)))
			e.tr.span("bench watch visible", wt.span, sent, done)
			continue
		}
		keep = append(keep, wt)
	}
	w.pending[k] = keep
}
