package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"diffgossip/internal/obs"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentiles are the percentiles the tail helper may report, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, its value, and the sample count. With fewer than twenty
// samples no percentile qualifies and ok is false.
func tail(xs []float64) (p, v float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if (1-p/100)*float64(n) >= 10-1e-9 {
			return p, percentile(xs, p), n, true
		}
	}
	return 0, 0, n, false
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// exposition is one parsed /metrics scrape, indexed by sample name.
type exposition map[string][]obs.Sample

func parseExposition(b []byte) (exposition, error) {
	fams, err := obs.ParseExposition(b)
	if err != nil {
		return nil, err
	}
	ex := exposition{}
	for _, f := range fams {
		for _, s := range f.Samples {
			ex[s.Name] = append(ex[s.Name], s)
		}
	}
	return ex, nil
}

// sum adds the samples named name whose labels contain every key=value pair
// in match (e.g. `route="/v1/feedback"`).
func (ex exposition) sum(name string, match ...string) float64 {
	total := 0.0
	for _, s := range ex[name] {
		if labelsMatch(s.Labels, match) {
			total += s.Value
		}
	}
	return total
}

func labelsMatch(labels string, match []string) bool {
	for _, m := range match {
		if !strings.Contains(labels, m) {
			return false
		}
	}
	return true
}

// histQuantile interpolates quantile q (0..1) of the observations a
// histogram gained between two scrapes, linearly inside the bucket the rank
// falls in, as Prometheus' histogram_quantile does. It returns 0 when the
// histogram gained nothing.
func histQuantile(before, after exposition, name string, q float64, match ...string) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range after[name+"_bucket"] {
		if !labelsMatch(s.Labels, match) {
			continue
		}
		le := s.Label("le")
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		prev := 0.0
		for _, p := range before[name+"_bucket"] {
			if p.Labels == s.Labels {
				prev = p.Value
			}
		}
		bs = append(bs, bucket{bound, s.Value - prev})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prevN {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prevN)/(b.n-prevN)
		}
		lo, prevN = b.le, b.n
	}
	return lo
}

// memStats reads the scalar runtime.MemStats fields from a pprof
// heap?debug=1 dump, plus the PauseNs ring of recent GC pauses.
type memStats struct {
	fields map[string]float64
	pauses []float64
}

func parseMemStats(b []byte) memStats {
	m := memStats{fields: map[string]float64{}}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		k, v, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		if k == "PauseNs" {
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				p, _ := strconv.ParseFloat(f, 64)
				m.pauses = append(m.pauses, p)
			}
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			m.fields[k] = f
		}
	}
	return m
}

// pauseSince sums the GC pauses after the before dump: collections
// NumGC(before)+1 .. NumGC(m), as far back as the 256-entry ring reaches.
func (m memStats) pauseSince(before memStats) float64 {
	n0, n1 := int(before.fields["NumGC"]), int(m.fields["NumGC"])
	if len(m.pauses) == 0 {
		return 0
	}
	total := 0.0
	for k := max(n0+1, n1-len(m.pauses)+1); k <= n1; k++ {
		total += m.pauses[(k+len(m.pauses)-1)%len(m.pauses)]
	}
	return total
}
