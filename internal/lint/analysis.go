// Package lint is dctlint's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface that this
// repo's determinism analyzers are written against.
//
// The paper's measurements are reproducible only because a simulation run
// is a pure function of its seed: the same configuration must produce a
// byte-identical trace on every run, on every machine, at every
// GOMAXPROCS. The analyzers in this package mechanically enforce the
// invariants that keep that true: per-statement checks (mapiter,
// walltime, globalrand), floatsum's check of float reductions inside
// goroutine bodies and over channels, and gostmt, which makes every go
// statement a registered, reviewed site. See DESIGN.md, "Determinism".
//
// The framework mirrors go/analysis deliberately — Analyzer has the same
// Name/Doc/Run shape, Pass carries the same per-package state — so that
// if golang.org/x/tools ever becomes an acceptable dependency the
// analyzers port over with trivial edits. We do not import x/tools
// because the repo is intentionally stdlib-only.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one determinism check. It is the unit the driver and
// the test harness operate on.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dctlint:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// AppliesTo optionally restricts which package import paths the
	// driver runs this analyzer on. A nil AppliesTo means every package.
	// The test harness ignores this field and always runs the analyzer.
	AppliesTo func(pkgPath string) bool

	// Run performs the check and reports findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzers returns the full dctlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, WallTime, GlobalRand, FloatSum, GoStmt}
}
