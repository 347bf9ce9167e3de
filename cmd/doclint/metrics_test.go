package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays files out under a temp root and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestMetricsLintCatchesViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a.go": `package a

func register(reg registry) {
	reg.Counter("diffgossip_good_total", "", "A fine counter.", nil)
	reg.Counter("badprefix_total", "", "Wrong namespace.", nil)
	reg.Gauge("diffgossip_helpless", "", "", nil)
	reg.Histogram("diffgossip_good_total", "", "Duplicate of the counter.", nil)
	reg.CounterFunc("diffgossip_"+"concat_total", "", "Literal concat still checked.", nil)
}
`,
	})
	problems, err := lintMetricRegistrations(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		`"badprefix_total" violates the naming contract`,
		`"diffgossip_helpless" has empty help text`,
		`diffgossip_good_total{} already registered`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("problems = %d, want 3:\n%s", len(problems), joined)
	}
}

// TestMetricsLintRequiresCatalogue: with a catalogue document present, every
// literal registration must be named inside its metric catalogue section — a
// mention elsewhere in the document does not count.
func TestMetricsLintRequiresCatalogue(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a.go": `package a

func register(reg registry) {
	reg.Histogram("diffgossip_listed_seconds", "", "In the catalogue.", nil)
	reg.Counter("diffgossip_unlisted_total", "", "Only mentioned in prose.", nil)
}
`,
		catalogueDoc: "# Doc\n\nProse mentions `diffgossip_unlisted_total`.\n\n" +
			catalogueHeading + "\n\n| `diffgossip_listed_seconds{shard}` | histogram | listed |\n\n" +
			"### Next section\n\n`diffgossip_unlisted_total` again, outside.\n",
	})
	problems, err := lintMetricRegistrations(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `"diffgossip_unlisted_total" is missing from the docs/ARCHITECTURE.md metric catalogue`) {
		t.Fatalf("problems = %v, want exactly the unlisted metric", problems)
	}
}

func TestMetricsLintIgnoresComputedNamesAndTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a.go": `package a

func register(reg registry, prefix string) {
	reg.Counter(prefix+"_requests_total", "", "Computed name: -scrape covers it.", nil)
}
`,
		"a_test.go": `package a

func testRegister(reg registry) {
	reg.Counter("not_even_close", "", "", nil)
}
`,
	})
	problems, err := lintMetricRegistrations(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("problems = %v, want none", problems)
	}
}

func TestLintScrape(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.prom")
	if err := os.WriteFile(good, []byte(
		"# HELP diffgossip_widgets_total Widgets made.\n"+
			"# TYPE diffgossip_widgets_total counter\n"+
			"diffgossip_widgets_total 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := LintScrape(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("good scrape: problems = %v", problems)
	}

	bad := filepath.Join(t.TempDir(), "bad.prom")
	if err := os.WriteFile(bad, []byte(
		"# HELP widgets_total \n"+
			"# TYPE widgets_total counter\n"+
			"widgets_total 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err = LintScrape(bad)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "naming contract") || !strings.Contains(joined, "empty help") {
		t.Fatalf("bad scrape: problems = %v", problems)
	}

	garbled := filepath.Join(t.TempDir(), "garbled.prom")
	if err := os.WriteFile(garbled, []byte("diffgossip_no_header 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err = LintScrape(garbled)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "does not parse") {
		t.Fatalf("garbled scrape: problems = %v", problems)
	}
}
