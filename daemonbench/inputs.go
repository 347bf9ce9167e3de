package main

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// rating is one generated feedback entry. Every rating carries an explicit
// unix_nano, unique and increasing in generation order, so the mirror
// resolves last-writer-wins exactly as the daemon does.
type rating struct {
	rater, subject int
	value          float64
	ts             int64
}

// tsBase is the first generated unix_nano (2020-09-13): far from zero, and
// fixed, so the inputs depend on the seed alone.
const tsBase = int64(1_600_000_000_000_000_000)

// overlaySeed is dgserve's default -graph-seed. Every run uses the same
// overlay, so the seed varies the ratings and the traffic, not the topology
// whose degree spread alone would move epoch cost from seed to seed.
const overlaySeed = 42

// world is one workload's generated inputs: the overlay, the seeded trust
// cells, and each subject's raters after seeding.
type world struct {
	n         int
	g         *graph.Graph
	seedCells []rating
	raters    [][]int // raters[j], ascending
	src       *rng.Source
	nextTS    int64
}

// newWorld generates the overlay the daemon will build (-n, -m 2,
// -graph-seed overlaySeed) and seeds trust from trust.GenerateWorkload on
// it, with neighbours far likelier to rate each other (paper §3);
// meanRaters sets the expected raters per subject.
func newWorld(n int, meanRaters float64, seed uint64) (*world, error) {
	w := &world{n: n, src: rng.New(seed), nextTS: tsBase}
	var err error
	if w.g, err = graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: overlaySeed}); err != nil {
		return nil, err
	}
	const neighbour = 0.5
	avgDeg := 2 * float64(w.g.M()) / float64(n)
	density := (meanRaters - neighbour*avgDeg) / float64(n-1)
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("mean raters %.1f out of range for n=%d", meanRaters, n)
	}
	wl, err := trust.GenerateWorkload(trust.WorkloadConfig{
		N: n, Density: density, NeighborDensity: neighbour, Adjacent: w.g.HasEdge, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	w.raters = make([][]int, n)
	for i := 0; i < n; i++ {
		row := wl.Matrix.Row(i)
		subjects := make([]int, 0, len(row))
		for j := range row {
			subjects = append(subjects, j)
		}
		sort.Ints(subjects)
		for _, j := range subjects {
			w.seedCells = append(w.seedCells, w.newRating(i, j, row[j]))
			w.raters[j] = append(w.raters[j], i)
		}
	}
	return w, nil
}

func (w *world) newRating(rater, subject int, value float64) rating {
	w.nextTS++
	return rating{rater: rater, subject: subject, value: value, ts: w.nextTS}
}

// rerate draws a fresh value for an existing (rater, subject) cell of j, so
// live state stays flat however long the load runs.
func (w *world) rerate(j int) rating {
	rs := w.raters[j]
	if len(rs) == 0 {
		// A subject nobody rated gets one fixed rater, which then rates it
		// for the rest of the run.
		w.raters[j] = append(w.raters[j], (j+1)%w.n)
		rs = w.raters[j]
	}
	return w.newRating(rs[w.src.Intn(len(rs))], j, w.src.Float64())
}

// newRater adds a rater j has not had yet, so the subject's rater count
// grows by one; replicated visibility is judged by that count.
func (w *world) newRater(j int) (rating, bool) {
	rs := w.raters[j]
	if len(rs) >= w.n-1 {
		return rating{}, false
	}
	for {
		i := w.src.Intn(w.n)
		if i == j {
			continue
		}
		k := sort.SearchInts(rs, i)
		if k < len(rs) && rs[k] == i {
			continue
		}
		w.raters[j] = slices.Insert(rs, k, i)
		return w.newRating(i, j, w.src.Float64()), true
	}
}

// appendRatingJSON encodes one rating as a POST /v1/feedback body. The
// shortest round-trip float format makes the daemon parse the exact value
// the mirror holds.
func appendRatingJSON(b []byte, r rating) []byte {
	b = append(b, `{"rater":`...)
	b = strconv.AppendInt(b, int64(r.rater), 10)
	b = append(b, `,"subject":`...)
	b = strconv.AppendInt(b, int64(r.subject), 10)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, r.value, 'g', -1, 64)
	b = append(b, `,"unix_nano":`...)
	b = strconv.AppendInt(b, r.ts, 10)
	return append(b, '}')
}

func batchJSON(rs []rating) []byte {
	b := make([]byte, 0, 80*len(rs)+2)
	b = append(b, '[')
	for k, r := range rs {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendRatingJSON(b, r)
	}
	return append(b, ']')
}

// mirror holds every acknowledged rating, resolved last-writer-wins by
// unix_nano: the exact trust matrix the daemon must have folded.
type mirror struct {
	mu sync.Mutex
	m  *trust.Matrix
	ts map[int64]int64
	n  int
}

func newMirror(n int) *mirror {
	return &mirror{m: trust.NewMatrix(n), ts: make(map[int64]int64), n: n}
}

func (mr *mirror) apply(rs []rating) error {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	for _, r := range rs {
		key := int64(r.rater)*int64(mr.n) + int64(r.subject)
		if r.ts <= mr.ts[key] {
			continue
		}
		mr.ts[key] = r.ts
		if err := mr.m.Set(r.rater, r.subject, r.value); err != nil {
			return err
		}
	}
	return nil
}
