package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dgserve child process.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string
	base    string // http://host:port of the service listener
	pprof   string // http://host:port of the pprof listener, "" when off
	exited  chan struct{}
	logTail *tailBuffer
	// bootMs is spawn → first 200 from /healthz.
	bootMs float64
	ctl    *http.Client
}

// tailBuffer keeps the last lines of the daemon's log for failure reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// daemonOpts are the flags the benchmark passes to dgserve beyond the
// production defaults.
type daemonOpts struct {
	n, shards int
	flags     []string
	pprof     bool
	cluster   string   // -cluster-listen, "" = standalone
	join      []string // -join seeds
	dataDir   string
}

// startLimit bounds how long a daemon may take to report its address and
// answer /healthz.
const startLimit = 60 * time.Second

// startDaemon spawns dgserve with the production flags plus opts and waits
// until /healthz answers. The listen address is chosen by the kernel and
// read back from the daemon's JSON log.
func startDaemon(bin string, o daemonOpts) (*daemon, error) {
	args := []string{
		"-listen", "127.0.0.1:0", "-log-format", "json",
		"-n", strconv.Itoa(o.n), "-m", "2", "-graph-seed", strconv.FormatUint(overlaySeed, 10),
		"-shards", strconv.Itoa(o.shards), "-data", o.dataDir,
	}
	if o.pprof {
		args = append(args, "-pprof-addr", "127.0.0.1:0")
	}
	if o.cluster != "" {
		args = append(args, "-cluster-listen", o.cluster)
		if len(o.join) > 0 {
			args = append(args, "-join", strings.Join(o.join, ","))
		}
	}
	args = append(args, o.flags...)
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	spawn := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd: cmd, dataDir: o.dataDir, exited: make(chan struct{}),
		logTail: &tailBuffer{}, ctl: controlClient(),
	}
	addrs := make(chan [2]string, 4) // (msg, addr) pairs of the listener log lines
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.logTail.add(line)
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Addr != "" &&
				(rec.Msg == "listening" || rec.Msg == "pprof enabled") {
				select {
				case addrs <- [2]string{rec.Msg, rec.Addr}:
				default:
				}
			}
		}
	}()
	go func() {
		<-logDone
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(startLimit)
	for d.base == "" || (o.pprof && d.pprof == "") {
		select {
		case a := <-addrs:
			if a[0] == "listening" {
				d.base = "http://" + a[1]
			} else {
				d.pprof = "http://" + a[1]
			}
		case <-d.exited:
			return nil, fmt.Errorf("dgserve exited during start: %s", d.tail())
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("dgserve did not report its address within %v", startLimit)
		}
	}
	for {
		if code, _, err := d.get("/healthz"); err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("dgserve exited before /healthz: %s", d.tail())
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("dgserve /healthz not ready within %v", startLimit)
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.bootMs = float64(time.Since(spawn).Nanoseconds()) / 1e6
	return d, nil
}

func (d *daemon) tail() string { return d.logTail.String() }

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.ctl.CloseIdleConnections()
}

// stop asks the daemon to shut down cleanly and waits for it; a daemon that
// has not exited within ten seconds is killed.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
	d.ctl.CloseIdleConnections()
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// controlClient is the benchmark's control connections to one daemon:
// forced epochs, scrapes and gate checks. It is not part of the load.
func controlClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// loadClient is the load generator's connection pool to one daemon, capped
// at conns connections.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
			DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
		Timeout: 60 * time.Second,
	}
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.ctl.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) getJSON(path string, v any) error {
	code, b, err := d.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// epochResp is the part of the POST /v1/epoch answer the benchmark reads.
type epochResp struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	Ran   bool   `json:"ran"`
}

// forceEpoch runs one epoch through POST /v1/epoch and returns its wall time.
func (d *daemon) forceEpoch() (epochResp, time.Duration, error) {
	start := time.Now()
	resp, err := d.ctl.Post(d.base+"/v1/epoch", "application/json", nil)
	if err != nil {
		return epochResp{}, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	wall := time.Since(start)
	if err != nil {
		return epochResp{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return epochResp{}, 0, fmt.Errorf("POST /v1/epoch: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var er epochResp
	return er, wall, json.Unmarshal(b, &er)
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, b, err := d.get("/readyz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not ready within %v: %d %s %v", limit, code, bytes.TrimSpace(b), err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago; the
// cluster flags need each replica's replication address before it starts.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
