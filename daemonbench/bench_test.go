package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		p, v, n, ok := tail(xs)
		if ok != tc.ok || p != tc.wantP || n != tc.n {
			t.Errorf("tail(%d samples) = p%g, n=%d, ok=%v; want p%g, n=%d, ok=%v", tc.n, p, n, ok, tc.wantP, tc.n, tc.ok)
			continue
		}
		if ok {
			if beyond := float64(tc.n) * (1 - p/100); beyond < 10-1e-9 {
				t.Errorf("p%g of %d samples has only %.1f beyond it", p, tc.n, beyond)
			}
			if want := percentile(xs, p); v != want {
				t.Errorf("tail value %v, percentile %v", v, want)
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := percentile(xs, 90); got < 4.59 || got > 4.61 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		byName := map[string]metricDef{}
		for _, d := range got {
			byName[d.Name] = d
		}
		for _, d := range want {
			if g, ok := byName[d.Name]; !ok {
				t.Errorf("%s: %s is emitted but not declared", kind, d.Name)
			} else if g != d {
				t.Errorf("%s: declared %+v, emitted %+v", kind, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if sh, ok := shapes[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		} else if sh.why != w.Why {
			t.Errorf("workload %s: declared why %q, benchmark says %q", w.Name, w.Why, sh.why)
		}
	}
	sort.Strings(names)
	if got, want := len(names), len(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json declares workloads %v, benchmark has %v", names, workloadNames())
	}
}

// TestSmokeEveryWorkload runs each workload at reduced size, untraced and
// traced, against a dgserve built from this checkout, and checks each run
// emits every declared metric with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dgserve and starts daemons")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "dgserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dgserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dgserve: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := config{workload: name, seed: 5, seconds: 3, trace: traced, dgserve: bin,
				work: filepath.Join(tmp, "work"), smoke: true}
			st, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			res, err := st.finish(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d metrics, correct=%v, attempted=%d", name, traced, len(res.Metrics), res.Correct, res.Attempted)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}
