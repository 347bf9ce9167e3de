package trust

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"diffgossip/internal/rng"
	"diffgossip/internal/wire"
)

func randomMatrix(t testing.TB, n int, density float64, seed uint64) *Matrix {
	t.Helper()
	src := rng.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && src.Bool(density) {
				if err := m.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// TestRatersOfIntoMatchesRatersOf: the append-style form returns exactly
// what RatersOf does, already sorted, reusing the caller's buffers.
func TestRatersOfIntoMatchesRatersOf(t *testing.T) {
	m := randomMatrix(t, 50, 0.3, 7)
	ids := make([]int, 0, 64)
	vals := make([]float64, 0, 64)
	for j := 0; j < 50; j++ {
		wantIds, wantVals := m.RatersOf(j)
		ids, vals = m.RatersOfInto(j, ids[:0], vals[:0])
		if len(ids) != len(wantIds) {
			t.Fatalf("subject %d: %d raters, want %d", j, len(ids), len(wantIds))
		}
		for k := range ids {
			if ids[k] != wantIds[k] || vals[k] != wantVals[k] {
				t.Fatalf("subject %d rater %d: (%d,%v) != (%d,%v)", j, k, ids[k], vals[k], wantIds[k], wantVals[k])
			}
			if k > 0 && ids[k] <= ids[k-1] {
				t.Fatalf("subject %d: raters not strictly ascending", j)
			}
		}
	}
}

// TestColumnsReaderMatchesMatrix: a frozen column set answers every Reader
// query identically to the matrix it was cut from, for covered subjects.
func TestColumnsReaderMatchesMatrix(t *testing.T) {
	const n = 40
	m := randomMatrix(t, n, 0.25, 11)
	subjects := []int{0, 3, 7, 21, 39}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != n || len(c.Subjects()) != len(subjects) {
		t.Fatalf("shape: n=%d subjects=%v", c.N(), c.Subjects())
	}
	covered := map[int]bool{}
	for _, j := range subjects {
		covered[j] = true
	}
	for i := 0; i < n; i++ {
		for _, j := range subjects {
			a, aok := m.Get(i, j)
			b, bok := c.Get(i, j)
			if a != b || aok != bok {
				t.Fatalf("entry (%d,%d): columns (%v,%v) != matrix (%v,%v)", i, j, b, bok, a, aok)
			}
		}
		// Row restricted to the covered subjects.
		want := 0
		for _, j := range m.InteractedWith(i) {
			if covered[j] {
				want++
			}
		}
		if got := len(c.InteractedWith(i)); got != want {
			t.Fatalf("row %d: %d covered interactions, want %d", i, got, want)
		}
	}
	for _, j := range subjects {
		aSum, aCnt := m.ColumnSum(j)
		bSum, bCnt := c.ColumnSum(j)
		if aSum != bSum || aCnt != bCnt {
			t.Fatalf("column %d: (%v,%d) != (%v,%d)", j, bSum, bCnt, aSum, aCnt)
		}
	}
	// Uncovered subjects read as empty.
	if v, ok := c.Get(1, 2); v != 0 || ok {
		t.Fatal("uncovered subject has entries")
	}
	if sum, cnt := c.ColumnSum(2); sum != 0 || cnt != 0 {
		t.Fatal("uncovered subject has a column sum")
	}
	if c.Covers(2) || !c.Covers(21) {
		t.Fatal("Covers wrong")
	}
	// WeightedColumn over the Reader interface agrees for covered columns.
	for _, o := range []int{0, 13, 39} {
		for _, j := range subjects {
			a := WeightedColumn(m, o, j, c.InteractedWith(o), DefaultWeightParams, true)
			b := WeightedColumn(c, o, j, c.InteractedWith(o), DefaultWeightParams, true)
			if a != b {
				t.Fatalf("WeightedColumn(%d,%d): %v != %v", o, j, b, a)
			}
		}
	}
}

// TestColumnsSaveLoadRoundTrip pins the gob wire format.
func TestColumnsSaveLoadRoundTrip(t *testing.T) {
	m := randomMatrix(t, 30, 0.3, 13)
	subjects := []int{2, 5, 8, 11, 29}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.NumEntries() != c.NumEntries() {
		t.Fatalf("reload shape: n=%d entries=%d", got.N(), got.NumEntries())
	}
	for i := 0; i < 30; i++ {
		for _, j := range subjects {
			a, aok := c.Get(i, j)
			b, bok := got.Get(i, j)
			if a != b || aok != bok {
				t.Fatalf("entry (%d,%d) drifted through the wire", i, j)
			}
		}
	}
	// Corruption fails loudly.
	if _, err := LoadColumns(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage columns accepted")
	}
}

// TestNewColumnsValidates rejects malformed raw column data.
func TestNewColumnsValidates(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		subjects []int
		raters   [][]int
		vals     [][]float64
	}{
		{"dup subject", 5, []int{1, 1}, [][]int{{0}, {0}}, [][]float64{{0.5}, {0.5}}},
		{"subject range", 5, []int{5}, [][]int{{0}}, [][]float64{{0.5}}},
		{"rater range", 5, []int{1}, [][]int{{5}}, [][]float64{{0.5}}},
		{"not ascending", 5, []int{1}, [][]int{{2, 2}}, [][]float64{{0.5, 0.5}}},
		{"value range", 5, []int{1}, [][]int{{0}}, [][]float64{{1.5}}},
		{"length mismatch", 5, []int{1}, [][]int{{0, 1}}, [][]float64{{0.5}}},
		{"column count", 5, []int{1, 2}, [][]int{{0}}, [][]float64{{0.5}}},
	}
	for _, tc := range cases {
		if _, err := NewColumns(tc.n, tc.subjects, tc.raters, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// BenchmarkRatersOf vs BenchmarkRatersOfInto: the satellite's alloc+sort
// churn comparison — Into reuses buffers and skips the redundant sort.
func BenchmarkRatersOf(b *testing.B) {
	m := randomMatrix(b, 1000, 0.1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RatersOf(i % 1000)
	}
}

func BenchmarkRatersOfInto(b *testing.B) {
	m := randomMatrix(b, 1000, 0.1, 3)
	ids := make([]int, 0, 256)
	vals := make([]float64, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, vals = m.RatersOfInto(i%1000, ids[:0], vals[:0])
	}
}

// FuzzColumnsLoad hammers the columns decoder (the flat format and the
// version-1 gob one): arbitrary bytes must be rejected with an error —
// never a panic or a hostile allocation — and any accepted column set must
// satisfy the Columns invariants.
func FuzzColumnsLoad(f *testing.F) {
	m := NewMatrix(6)
	m.Set(0, 2, 0.5)
	m.Set(4, 2, 1)
	m.Set(1, 5, 0.25)
	c, err := ColumnsOf(m, []int{2, 5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(columnsWire{
		N: 6, Subjects: []int{2, 5}, Counts: []int{2, 1}, I: []int{0, 4, 1}, V: []float64{0.5, 1, 0.25}, Version: 1,
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadColumns(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, j := range got.Subjects() {
			if j < 0 || j >= got.N() {
				t.Fatalf("accepted columns with out-of-range subject %d", j)
			}
			ids, vals := got.Column(j)
			prev := -1
			for k, i := range ids {
				if i <= prev || i >= got.N() {
					t.Fatalf("accepted column %d with bad rater order", j)
				}
				if vals[k] < 0 || vals[k] > 1 {
					t.Fatalf("accepted column %d with value %v", j, vals[k])
				}
				prev = i
			}
		}
	})
}

// TestColumnsRowIndexConcurrentFirstReaders: the row index is built lazily,
// on the first row read. Readers racing to be first — through every
// accessor that needs it — must all see one index, equal to the matrix the
// columns came from, and GCLR evaluations over it must not change.
func TestColumnsRowIndexConcurrentFirstReaders(t *testing.T) {
	const n = 60
	m := randomMatrix(t, n, 0.2, 23)
	subjects := []int{1, 4, 9, 16, 25, 36, 49}
	// The reference GCLR: the observer's neighbourhood restricted to the
	// column set, read off the matrix.
	want := make(map[[2]int]float64)
	for _, o := range []int{0, 7, 33, 59} {
		var rated []int
		for _, j := range subjects {
			if _, ok := m.Get(o, j); ok {
				rated = append(rated, j)
			}
		}
		for _, j := range subjects {
			want[[2]int{o, j}] = WeightedColumn(m, o, j, rated, DefaultWeightParams, true)
		}
	}
	for round := 0; round < 20; round++ {
		c, err := ColumnsOf(m, subjects)
		if err != nil {
			t.Fatal(err)
		}
		const readers = 8
		rows := make([][]map[int]float64, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// Each reader opens with a different accessor, so every one
				// of them gets to trigger the build.
				switch r % 4 {
				case 0:
					c.Get(r, subjects[r%len(subjects)])
				case 1:
					c.Value(r, subjects[r%len(subjects)])
				case 2:
					c.InteractedWith(r)
				case 3:
					c.RowOf(r)
				}
				rows[r] = make([]map[int]float64, n)
				for i := 0; i < n; i++ {
					rows[r][i] = c.RowOf(i)
					for _, j := range subjects {
						a, aok := m.Get(i, j)
						b, bok := c.Get(i, j)
						if a != b || aok != bok {
							t.Errorf("reader %d: entry (%d,%d) = (%v,%v), matrix (%v,%v)", r, i, j, b, bok, a, aok)
							return
						}
					}
				}
				for key, w := range want {
					o, j := key[0], key[1]
					if got := WeightedColumn(c, o, j, c.InteractedWith(o), DefaultWeightParams, true); got != w {
						t.Errorf("reader %d: GCLR(%d,%d) = %v, matrix %v", r, o, j, got, w)
					}
				}
			}(r)
		}
		wg.Wait()
		for r := 1; r < readers; r++ {
			for i := 0; i < n; i++ {
				if reflect.ValueOf(rows[r][i]).Pointer() != reflect.ValueOf(rows[0][i]).Pointer() {
					t.Fatalf("round %d: readers 0 and %d hold different row maps for node %d", round, r, i)
				}
			}
		}
	}
}

// TestColumnsFlatRoundTrip pins the flat columns encoding: empty columns,
// an empty set and a populated set all decode to the same columns, the
// output opens with the format magic, and the version-1 gob encoding still
// decodes.
func TestColumnsFlatRoundTrip(t *testing.T) {
	m := randomMatrix(t, 30, 0.3, 17)
	for name, subjects := range map[string][]int{
		"populated": {2, 5, 8, 11, 29},
		"none":      {},
	} {
		c, err := ColumnsOf(m, subjects)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), columnsMagic) {
			t.Fatalf("%s: encoding does not open with the flat-format magic", name)
		}
		got, err := LoadColumns(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameColumns(t, name, got, c)
	}
	// A column set with unrated subjects between rated ones.
	empty := NewMatrix(10)
	empty.Set(3, 4, 0.5)
	c, err := ColumnsOf(empty, []int{1, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, "sparse", got, c)

	// Version 1 (gob) still decodes.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(columnsWire{
		N: 10, Subjects: []int{1, 4, 7}, Counts: []int{0, 1, 0}, I: []int{3}, V: []float64{0.5}, Version: 1,
	}); err != nil {
		t.Fatal(err)
	}
	got, err = LoadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameColumns(t, "gob v1", got, c)
}

func assertSameColumns(t *testing.T, name string, got, want *Columns) {
	t.Helper()
	if got.N() != want.N() || !reflect.DeepEqual(append([]int{}, got.Subjects()...), append([]int{}, want.Subjects()...)) {
		t.Fatalf("%s: shape n=%d subjects=%v, want n=%d subjects=%v", name, got.N(), got.Subjects(), want.N(), want.Subjects())
	}
	for s := range want.Subjects() {
		_, gi, gv := got.ColumnAt(s)
		_, wi, wv := want.ColumnAt(s)
		if len(gi) != len(wi) || len(gv) != len(wv) {
			t.Fatalf("%s: slot %d has %d raters, want %d", name, s, len(gi), len(wi))
		}
		for k := range wi {
			if gi[k] != wi[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				t.Fatalf("%s: slot %d entry %d drifted", name, s, k)
			}
		}
	}
}

// flatColumns hand-encodes a flat columns payload, so tests can feed the
// decoder inputs Save would never write.
func flatColumns(n int, subjects, counts, ids []int, vals []float64) []byte {
	var buf bytes.Buffer
	e := wire.NewEncoder(&buf)
	e.Raw(columnsMagic)
	e.Uint64(uint64(n))
	e.Uint32s(subjects)
	e.Uint32s(counts)
	e.Uint32s(ids)
	e.Float64s(vals)
	if err := e.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestColumnsFlatDecodeValidates: the flat decoder applies every check
// NewColumns applies, rejects truncated input at every cut, and refuses an
// oversized length prefix before allocating for it.
func TestColumnsFlatDecodeValidates(t *testing.T) {
	valid := flatColumns(5, []int{1, 3}, []int{2, 1}, []int{0, 2, 4}, []float64{0.5, 0.25, 1})
	if _, err := LoadColumns(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	for name, b := range map[string][]byte{
		"NaN value":            flatColumns(5, []int{1}, []int{1}, []int{0}, []float64{math.NaN()}),
		"value above one":      flatColumns(5, []int{1}, []int{1}, []int{0}, []float64{1.5}),
		"not ascending":        flatColumns(5, []int{1}, []int{2}, []int{2, 2}, []float64{0.5, 0.5}),
		"descending":           flatColumns(5, []int{1}, []int{2}, []int{3, 2}, []float64{0.5, 0.5}),
		"rater out of range":   flatColumns(5, []int{1}, []int{1}, []int{5}, []float64{0.5}),
		"subject range":        flatColumns(5, []int{5}, []int{0}, nil, nil),
		"duplicate subject":    flatColumns(5, []int{1, 1}, []int{0, 0}, nil, nil),
		"count overruns ids":   flatColumns(5, []int{1}, []int{2}, []int{0}, []float64{0.5}),
		"ids left over":        flatColumns(5, []int{1}, []int{1}, []int{0, 1}, []float64{0.5, 0.5}),
		"counts mismatch":      flatColumns(5, []int{1, 2}, []int{1}, []int{0}, []float64{0.5}),
		"ids/values differ":    flatColumns(5, []int{1}, []int{1}, []int{0}, []float64{0.5, 0.5}),
		"more subjects than n": flatColumns(2, []int{0, 1, 2}, []int{0, 0, 0}, nil, nil),
		"trailing bytes":       append(append([]byte{}, valid...), 0),
	} {
		if _, err := LoadColumns(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for cut := len(columnsMagic); cut < len(valid); cut++ {
		if _, err := LoadColumns(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes accepted", cut, len(valid))
		}
	}
	// The value array's length prefix sits 8·3+4 bytes before the end; make
	// it claim 2^20 floats (8 MiB) with 24 bytes left.
	huge := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(huge[len(huge)-8*3-8:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadColumns(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a prefix the input cannot back", grew)
	}
}
