package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one benchmark call into a layer. Times are nanoseconds since the
// run's start; a watcher read carries its write's span as parent, and probe
// calls carry their probe's span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled tracer
// records nothing and hands out id 0.
type tracer struct {
	on    bool
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span records a finished call and returns its id.
func (t *tracer) span(name string, parent uint64, start, end time.Time) uint64 {
	id := t.reserve()
	t.record(id, name, parent, start, end)
	return id
}

// reserve hands out a span id before the span ends, so its children can
// name it as their parent.
func (t *tracer) reserve() uint64 {
	if t == nil || !t.on {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id uint64, name string, parent uint64, start, end time.Time) {
	if id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTime is one span name's total and self time: a span's self time is its
// duration minus the part of it its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		d := s.End - s.Start
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for k, v := range ivs {
		if k == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// write stores the spans and their self-time summary as one JSON file.
func (t *tracer) write(path string) error {
	summary := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"self_time": summary, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
