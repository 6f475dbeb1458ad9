package lint_test

import (
	"testing"

	"dctraffic/internal/lint"
)

// BenchmarkRunPackage times the analyzer suite (the per-statement
// checks, floatsum's walk of each go statement's body, and gostmt) over
// the whole module, with loading and type-checking hoisted out of the
// loop. This is the analysis cost `make lint` adds on top of `go list`
// and type-checking, which dominate the command's wall clock.
func BenchmarkRunPackage(b *testing.B) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		b.Fatal(err)
	}
	analyzers := lint.Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			diags, err := lint.RunPackage(pkg, analyzers)
			if err != nil {
				b.Fatal(err)
			}
			if len(diags) != 0 {
				b.Fatalf("repo must be lint-clean during the bench, got %v", diags)
			}
		}
	}
}
