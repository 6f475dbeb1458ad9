package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dctraffic/internal/lint"
)

// writeModule lays out a throwaway module so Load's `go list` + source
// type-checking path runs against controlled inputs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func fileNames(pkg *lint.Package) []string {
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	return names
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestLoadBuildTagsAndTestPackages pins three loader behaviors the
// analyzers depend on: build-constrained files follow the build
// context (a satisfied constraint is loaded, an impossible one is
// skipped), in-package _test.go files type-check together with the
// compiled files, and external _test packages become their own unit
// with a "_test"-suffixed path.
func TestLoadBuildTagsAndTestPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module loadprobe\n\ngo 1.23\n",
		"p/p.go": `package p

func Double(x int) int { return 2 * x }
`,
		// Satisfied constraint: !neverset holds in the default context,
		// so this file (and its seeded violation) must be analyzed.
		"p/tagged_on.go": `//go:build !neverset

package p

func MapAccum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`,
		// Impossible constraint: the file is excluded by go list. It
		// would not even parse, which makes silent inclusion loud.
		"p/tagged_off.go": `//go:build neverset

package p

this is not Go
`,
		// In-package test file: checked with the compiled files, so its
		// helpers resolve against unexported declarations.
		"p/p_test.go": `package p

func doubleTwice(x int) int { return Double(Double(x)) }
`,
		// External test package: a separate unit importing the real one.
		"p/x_test.go": `package p_test

import "loadprobe/p"

var _ = p.Double
`,
	})

	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*lint.Package)
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	main, ok := byPath["loadprobe/p"]
	if !ok {
		t.Fatalf("package loadprobe/p not loaded; got %v", pathsOf(pkgs))
	}
	ext, ok := byPath["loadprobe/p_test"]
	if !ok {
		t.Fatalf("external test package not loaded as its own unit; got %v", pathsOf(pkgs))
	}

	names := fileNames(main)
	if !hasName(names, "tagged_on.go") {
		t.Errorf("satisfied build constraint excluded: files %v", names)
	}
	if hasName(names, "tagged_off.go") {
		t.Errorf("impossible build constraint loaded: files %v", names)
	}
	if !hasName(names, "p_test.go") {
		t.Errorf("in-package test file not in the compiled unit: files %v", names)
	}
	if extNames := fileNames(ext); !hasName(extNames, "x_test.go") || len(extNames) != 1 {
		t.Errorf("external test unit files = %v, want exactly [x_test.go]", extNames)
	}

	// The seeded violation lives in the build-tagged file: the analyzers
	// must see exactly what the build context sees.
	diags, err := lint.RunPackage(main, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, d := range diags {
		if d.Analyzer == "mapiter" && filepath.Base(d.Pos.Filename) == "tagged_on.go" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("seeded mapiter violation in tagged_on.go not found; diags: %v", diags)
	}
}

// TestLoadAppliesToGating pins the driver-side gate: walltime runs on
// internal/ simulation packages and nowhere else, so an identical
// time.Now call is a finding in one package and silence in another.
func TestLoadAppliesToGating(t *testing.T) {
	const clockSrc = `package %s

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	dir := writeModule(t, map[string]string{
		"go.mod":                 "module gateprobe\n\ngo 1.23\n",
		"internal/netsim/sim.go": strings.Replace(clockSrc, "%s", "netsim", 1),
		"cmd/tool/tool.go":       strings.Replace(clockSrc, "%s", "main", 1),
	})
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[string]int)
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if d.Analyzer == "walltime" {
				hits[pkg.Path]++
			}
		}
	}
	if hits["gateprobe/internal/netsim"] != 1 {
		t.Errorf("walltime must fire once in the simulation package, got %v", hits)
	}
	if hits["gateprobe/cmd/tool"] != 0 {
		t.Errorf("walltime must stay gated off outside internal/, got %v", hits)
	}
}

func pathsOf(pkgs []*lint.Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}
