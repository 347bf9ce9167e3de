// Command daemonbench is the repository's benchmark: it builds inputs from a
// seed, starts the dgserve daemon as a child process, drives it over HTTP
// from a single open-loop load generator, checks the daemon's answers
// against an exact mirror of every acknowledged rating, and prints one JSON
// result line.
//
//	daemonbench -dgserve ./dgserve -work ./work -workload ingest -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, read from the daemon's own /metrics,
// /v1/stats, /v1/trace and pprof MemStats, and from probes that replay the
// run's recorded inputs through the layers' public functions after the load
// phase. Use run.sh to build both binaries from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. Bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression; it is
// zero for per-layer metrics, which carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the daemon sees. Every workload reports
// every one of them: each workload sends single ratings, reads reputations,
// watches a sample of its writes become visible, and runs epochs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"epoch_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// module they measure; "bench" is the load generator itself.
var perLayer = []metricDef{
	{"httpapi.feedback_mean_ms", "ms", "lower", 0},
	{"httpapi.feedback_slow_ratio", "ratio", "lower", 0},
	{"httpapi.batch_mean_ms", "ms", "lower", 0},
	{"httpapi.read_mean_ms", "ms", "lower", 0},
	{"httpapi.read_slow_ratio", "ratio", "lower", 0},
	{"httpapi.not_modified_ratio", "ratio", "higher", 0},
	{"httpapi.refused", "ratio", "lower", 0},
	{"httpapi.decode_us_per_rating", "us", "lower", 0},
	{"store.fsync_p50_ms", "ms", "lower", 0},
	{"store.fsync_p99_ms", "ms", "lower", 0},
	{"store.fsyncs_per_1k_ratings", "count", "lower", 0},
	{"store.wal_bytes_per_rating", "B", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.append_batch_ms", "ms", "lower", 0},
	{"store.persist_ms", "ms", "lower", 0},
	{"store.segment_bytes_per_epoch", "B", "lower", 0},
	{"service.epoch_compute_ms", "ms", "lower", 0},
	{"service.campaign_ms", "ms", "lower", 0},
	{"service.dirty_shards_per_epoch", "count", "lower", 0},
	{"service.folded_subjects_per_epoch", "count", "lower", 0},
	{"service.campaign_steps_per_epoch", "count", "lower", 0},
	{"service.warm_start_ratio", "ratio", "higher", 0},
	{"service.fold_useful_ratio", "ratio", "higher", 0},
	{"service.pending_peak", "count", "lower", 0},
	{"service.alloc_mb_per_epoch", "MB", "lower", 0},
	{"service.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"service.boot_ms", "ms", "lower", 0},
	{"service.rep_err_max", "ratio", "lower", 0},
	{"trust.freeze_ms", "ms", "lower", 0},
	{"trust.freeze_useful_ratio", "ratio", "higher", 0},
	{"core.cold_campaign_ms", "ms", "lower", 0},
	{"core.ns_per_step", "ns", "lower", 0},
	{"cluster.entries_applied", "count", "higher", 0},
	{"cluster.duplicate_ratio", "ratio", "lower", 0},
	{"cluster.batches_gapped", "count", "lower", 0},
	{"cluster.mark_gap_peak", "count", "lower", 0},
	{"graph.build_ms", "ms", "lower", 0},
	{"bench.ack_p99_ms", "ms", "lower", 0},
	{"bench.read_p99_ms", "ms", "lower", 0},
	{"bench.visible_p99_ms", "ms", "lower", 0},
	{"bench.late_p99_ms", "ms", "lower", 0},
}

// maxLateMs is the open-loop validity bound: a run whose generator sent its
// 99th-percentile request more than this far behind schedule measured the
// generator, not the daemon, and is refused.
const maxLateMs = 250

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dgserve  string
	work     string
	// smoke shrinks every workload to a few hundred nodes and a short load
	// phase; the benchmark's own tests use it.
	smoke bool
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the measured load phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&c.dgserve, "dgserve", "", "path to the dgserve binary under test")
	flag.StringVar(&c.work, "work", "", "scratch directory for daemon data and span files")
	flag.Parse()
	c.trace = traceFlag == 1
	if err := c.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: FAIL: %v\n", err)
		if res != nil {
			printResult(os.Stdout, &result{Correct: false, Attempted: res.attempted, Failed: res.failed,
				Metrics: map[string]metricValue{}})
		}
		os.Exit(1)
	}
	out, err := res.finish(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: FAIL: %v\n", err)
		os.Exit(1)
	}
	printResult(os.Stdout, out)
}

func (c *config) validate() error {
	if _, ok := shapes[c.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if c.dgserve == "" || c.work == "" {
		return fmt.Errorf("-dgserve and -work are required")
	}
	if _, err := os.Stat(c.dgserve); err != nil {
		return fmt.Errorf("dgserve binary: %w", err)
	}
	var err error
	if c.dgserve, err = filepath.Abs(c.dgserve); err != nil {
		return err
	}
	c.work, err = filepath.Abs(c.work)
	return err
}

func printResult(f *os.File, r *result) {
	b, _ := json.Marshal(r)
	fmt.Fprintln(f, string(b))
}

// runInfo is printed as the line before the result: what the numbers were
// measured on, and how many samples stand behind each percentile.
type runInfo struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	CPUs       int            `json:"cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Conns      int            `json:"conns_per_daemon"`
	GoVersion  string         `json:"go_version"`
	Seconds    float64        `json:"seconds"`
	Samples    map[string]int `json:"samples"`
	// Tails are each latency class's percentiles, for reading beside the
	// end-to-end metrics.
	Tails    map[string]map[string]float64 `json:"tails"`
	EndToEnd map[string]float64            `json:"end_to_end,omitempty"`
	Notes    []string                      `json:"notes,omitempty"`
}

// runState accumulates one run's outcome.
type runState struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int
	tails             map[string]map[string]float64
	notes             []string
	conns             int
}

func newRunState() *runState {
	return &runState{
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
		tails: map[string]map[string]float64{},
	}
}

// finish checks every declared metric of the run's mode was measured and
// builds the result line, after printing the run-info line.
func (r *runState) finish(c config) (*result, error) {
	info := runInfo{
		Workload: c.workload, Seed: c.seed, Trace: c.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: r.conns,
		GoVersion: runtime.Version(), Seconds: c.seconds, Samples: r.samples, Tails: r.tails, Notes: r.notes,
	}
	defs, vals := endToEnd, r.e2e
	if c.trace {
		defs, vals = perLayer, r.layer
		info.EndToEnd = r.e2e
	}
	b, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(b))
	out := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func run(c config) (*runState, error) {
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.work, c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newRunState()
	start := time.Now()
	err = runShape(shapes[c.workload], c, dir, st)
	st.notes = append(st.notes, fmt.Sprintf("wall %.1fs", time.Since(start).Seconds()))
	return st, err
}

// checkCaps asserts the generator's resource caps: neither its GOMAXPROCS
// nor its load connections, summed over daemons, may exceed the host's cpus.
func checkCaps(conns int) error {
	cpus := runtime.NumCPU()
	if got := runtime.GOMAXPROCS(0); got > cpus {
		return fmt.Errorf("GOMAXPROCS %d exceeds %d cpus", got, cpus)
	}
	if conns > cpus {
		return fmt.Errorf("%d load connections exceed %d cpus", conns, cpus)
	}
	return nil
}
