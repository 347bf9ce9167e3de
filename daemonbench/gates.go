package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	"diffgossip/internal/core"
	"diffgossip/internal/trust"
)

// repErrGate is the largest relative error gate (a) accepts between a
// published reputation and the exact mean of the mirror's ratings. Push-sum
// with the default ξ lands about a hundred times closer; one cell folded with
// a wrong value moves a subject's mean by far more.
const repErrGate = 1e-3

// dumpLine is one line of GET /v1/reputations.
type dumpLine struct {
	Subject    int     `json:"subject"`
	Reputation float64 `json:"reputation"`
	Raters     int     `json:"raters"`
}

func dump(d *daemon) ([]dumpLine, error) {
	code, b, err := d.get("/v1/reputations")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/reputations: status %d", code)
	}
	var out []dumpLine
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var l dumpLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("dump line: %w", err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// checkMirror is gates (a) and (b): on every daemon, every published
// reputation matches core.GlobalRef on the mirror within repErrGate and every
// rater count equals the mirror's; with several replicas, their dumps agree
// bit for bit. It returns the largest relative error seen.
func checkMirror(nodes []*daemon, mr *mirror) (float64, error) {
	n := mr.n
	subjects := make([]int, n)
	for j := range subjects {
		subjects[j] = j
	}
	cols, err := trust.ColumnsOf(mr.m, subjects)
	if err != nil {
		return 0, err
	}
	var dumps [][]dumpLine
	worst := 0.0
	for i, d := range nodes {
		lines, err := dump(d)
		if err != nil {
			return 0, err
		}
		if len(lines) != n {
			return 0, fmt.Errorf("gate a: node %d dumped %d subjects, want %d", i, len(lines), n)
		}
		for j, got := range lines {
			_, cnt := cols.ColumnSum(j)
			if got.Subject != j || got.Raters != cnt {
				return 0, fmt.Errorf("gate a: node %d subject %d has %d raters, mirror has %d", i, j, got.Raters, cnt)
			}
			if cnt == 0 {
				if got.Reputation != 0 {
					return 0, fmt.Errorf("gate a: node %d unrated subject %d has reputation %v", i, j, got.Reputation)
				}
				continue
			}
			want := core.GlobalRef(cols, j)
			rel := math.Abs(got.Reputation-want) / math.Max(math.Abs(want), 1e-12)
			if !(rel <= repErrGate) {
				return 0, fmt.Errorf("gate a: node %d subject %d reputation %v, mirror %v (relative error %.3g)", i, j, got.Reputation, want, rel)
			}
			worst = math.Max(worst, rel)
		}
		dumps = append(dumps, lines)
	}
	for i := 1; i < len(dumps); i++ {
		for j := range dumps[0] {
			a, b := dumps[0][j], dumps[i][j]
			if a.Raters != b.Raters || math.Float64bits(a.Reputation) != math.Float64bits(b.Reputation) {
				return 0, fmt.Errorf("gate b: replicas 0 and %d differ at subject %d: %v vs %v", i, j, a, b)
			}
		}
	}
	return worst, nil
}

// killReboot is gate (c). The tail is sent after the load with no epoch
// forced, so its writes are acknowledged but unfolded; the daemon must report
// them pending when it is SIGKILLed. It is then rebooted on the same data
// directory, must report the replayed tail pending again, and its first
// epoch must fold up to the highest acknowledged seq. The rebooted daemon
// replaces the killed one, so gate (a) checks the tail's values.
func killReboot(c config, sh shape, cl *cluster, e *engine, tail []op) (*cluster, error) {
	last, err := writeTail(e, tail)
	if err != nil {
		return nil, err
	}
	maxAcked := max(e.rec.maxAcked[0], last)
	tailRatings := 0
	for _, o := range tail {
		tailRatings += len(o.rs)
	}
	if err := checkPending(cl.nodes[0], tailRatings, "before the kill"); err != nil {
		return nil, err
	}
	cl.kill()
	d, err := startDaemon(c.dgserve, daemonOpts{n: sh.n, shards: sh.shards, flags: sh.flags,
		dataDir: cl.nodes[0].dataDir})
	if err != nil {
		return nil, fmt.Errorf("gate c: reboot: %w", err)
	}
	rebooted := &cluster{nodes: []*daemon{d}}
	if err := checkPending(d, tailRatings, "after the reboot"); err != nil {
		rebooted.kill()
		return nil, err
	}
	er, _, err := d.forceEpoch()
	if err != nil {
		rebooted.kill()
		return nil, fmt.Errorf("gate c: epoch after reboot: %w", err)
	}
	if !er.Ran || er.Seq < maxAcked {
		rebooted.kill()
		return nil, fmt.Errorf("gate c: first epoch after reboot (ran=%v) folds up to seq %d, but seq %d was acknowledged",
			er.Ran, er.Seq, maxAcked)
	}
	return rebooted, nil
}

// writeTail sends gate (c)'s tail to the first daemon one write at a time,
// applies each acknowledged write to the mirror, and returns the highest
// acknowledged seq.
func writeTail(e *engine, tail []op) (uint64, error) {
	d := e.nodes[0]
	var last uint64
	for _, o := range tail {
		path, key := "/v1/feedback", `"seq":`
		if o.kind == opBatch {
			path, key = "/v1/feedback/batch", `"last_seq":`
		}
		e.rec.attempted.Add(1)
		resp, err := e.clients[0].Post(d.base+path, jsonCT, bytes.NewReader(o.body))
		if err != nil {
			e.rec.fail("gate c: tail %s: %v", path, err)
			return 0, fmt.Errorf("gate c: tail %s: %w", path, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		if err != nil {
			e.rec.fail("gate c: tail %s: %v", path, err)
			return 0, fmt.Errorf("gate c: tail %s: %w", path, err)
		}
		if err := e.mirror.apply(o.rs); err != nil {
			return 0, err
		}
		last = max(last, jsonUint(b, key))
	}
	return last, nil
}

// checkPending fails unless d reports at least want ratings pending.
func checkPending(d *daemon, want int, when string) error {
	var st statsResp
	if err := d.getJSON("/v1/stats", &st); err != nil {
		return fmt.Errorf("gate c: stats %s: %w", when, err)
	}
	if st.Pending < want {
		return fmt.Errorf("gate c: %d ratings pending %s, want at least the tail's %d", st.Pending, when, want)
	}
	return nil
}
