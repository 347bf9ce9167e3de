package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"diffgossip/internal/obs"
)

// metricMethods are the obs.Registry registration methods whose call sites
// the metrics lint inspects. All of them take (name, labels-or-labelKey,
// help, collector), so the name is argument 0 and the help argument 2.
var metricMethods = map[string]bool{
	"Counter": true, "CounterFunc": true,
	"Gauge": true, "GaugeFunc": true, "GaugeMapFunc": true,
	"Histogram": true,
}

// metricNameRe is the repository's metric naming contract: every metric is
// namespaced under dgserve_ (the server layer) or diffgossip_ (the library
// layers), lowercase with underscores.
var metricNameRe = regexp.MustCompile(`^(dgserve|diffgossip)_[a-z][a-z0-9_]*$`)

// catalogueDoc is the document, relative to the lint root, whose metric
// catalogue section must name every metric registered under a literal name.
const catalogueDoc = "docs/ARCHITECTURE.md"

// catalogueHeading opens that section; it runs to the next heading of the
// same or a higher level.
const catalogueHeading = "### Metric catalogue"

// catalogueNameRe matches a metric name opening a backticked span, so
// `name{labels}` entries count by their bare name.
var catalogueNameRe = regexp.MustCompile("`((?:dgserve|diffgossip)_[a-z0-9_]+)")

// lintMetricRegistrations walks every non-test Go file under root and checks
// the obs registration call sites whose metric name is a string literal:
// the name must match the dgserve_/diffgossip_ naming contract, the help
// string must be a non-empty literal, no (name, labels) pair may be
// registered twice, and — when root has a catalogueDoc — the name must appear
// in its metric catalogue. Call sites with computed names (the HTTP
// middleware's per-prefix metrics) are covered by the -scrape mode instead,
// which applies the naming contract to a live exposition.
func lintMetricRegistrations(root string) ([]string, error) {
	var problems []string
	seen := map[string]string{}  // (name, labels) → first registration site
	sites := map[string]string{} // name → first registration site
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !metricMethods[sel.Sel.Name] || len(call.Args) < 3 {
				return true
			}
			name, ok := stringLit(call.Args[0])
			if !ok {
				return true // computed name; the -scrape mode covers it
			}
			pos := fset.Position(call.Args[0].Pos())
			rel, rerr := filepath.Rel(root, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			at := fmt.Sprintf("%s:%d", rel, pos.Line)
			if !metricNameRe.MatchString(name) {
				problems = append(problems, fmt.Sprintf(
					"%s: metric %q violates the naming contract (want %s)", at, name, metricNameRe))
			}
			if help, ok := stringLit(call.Args[2]); ok && strings.TrimSpace(help) == "" {
				problems = append(problems, fmt.Sprintf("%s: metric %q has empty help text", at, name))
			}
			labels := "?"
			if l, ok := stringLit(call.Args[1]); ok {
				labels = l
			}
			if _, ok := sites[name]; !ok {
				sites[name] = at
			}
			key := name + "{" + labels + "}"
			if first, dup := seen[key]; dup {
				problems = append(problems, fmt.Sprintf(
					"%s: metric %s already registered at %s", at, key, first))
			} else {
				seen[key] = at
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	catalogued, err := metricCatalogue(filepath.Join(root, catalogueDoc))
	if err != nil {
		return nil, err
	}
	if catalogued != nil {
		for name, at := range sites {
			if !catalogued[name] {
				problems = append(problems, fmt.Sprintf(
					"%s: metric %q is missing from the %s metric catalogue", at, name, catalogueDoc))
			}
		}
	}
	return problems, nil
}

// metricCatalogue returns the metric names listed in path's catalogue
// section, or nil when path does not exist.
func metricCatalogue(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			level := len(line) - len(strings.TrimLeft(line, "#"))
			switch {
			case strings.TrimSpace(line) == catalogueHeading:
				in = true
				continue
			case in && level <= 3:
				in = false
			}
		}
		if in {
			for _, m := range catalogueNameRe.FindAllStringSubmatch(line, -1) {
				names[m[1]] = true
			}
		}
	}
	return names, nil
}

// stringLit unwraps an expression to its string-literal value, following
// constant concatenations of literals.
func stringLit(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, lok := stringLit(v.X)
		r, rok := stringLit(v.Y)
		return l + r, lok && rok
	default:
		return "", false
	}
}

// LintScrape lints a live Prometheus exposition (a saved GET /metrics body):
// it must parse — well-ordered HELP/TYPE headers, monotone histograms — and
// every family must carry non-empty help and obey the naming contract.
// Unlike the source-level lint this also covers metrics registered under
// computed names. CI boots dgserve, scrapes it, and runs this over the
// result.
func LintScrape(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(data)
	if err != nil {
		return []string{fmt.Sprintf("%s: exposition does not parse: %v", path, err)}, nil
	}
	var problems []string
	for _, f := range fams {
		if !metricNameRe.MatchString(f.Name) {
			problems = append(problems, fmt.Sprintf(
				"%s: metric %q violates the naming contract (want %s)", path, f.Name, metricNameRe))
		}
		if strings.TrimSpace(f.Help) == "" {
			problems = append(problems, fmt.Sprintf("%s: metric %q has empty help text", path, f.Name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}
