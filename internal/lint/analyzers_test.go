package lint_test

import (
	"testing"

	"dctraffic/internal/lint"
	"dctraffic/internal/lint/linttest"
)

func TestMapIter(t *testing.T)    { linttest.Run(t, "testdata/mapiter", lint.MapIter) }
func TestWallTime(t *testing.T)   { linttest.Run(t, "testdata/walltime", lint.WallTime) }
func TestGlobalRand(t *testing.T) { linttest.Run(t, "testdata/globalrand", lint.GlobalRand) }
func TestFloatSum(t *testing.T)   { linttest.Run(t, "testdata/floatsum", lint.FloatSum) }
func TestGoStmt(t *testing.T)     { linttest.Run(t, "testdata/gostmt", lint.GoStmt) }

// The tier-1 acceptance guard: the tree itself must be clean under the
// full suite, with each analyzer's AppliesTo gate honoured — exactly
// what `make lint` enforces from the command line.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing most of the tree", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
