package lint

import "go/ast"

// GoStmt makes every goroutine a reviewed decision. A run is a pure
// function of its seed only while nothing it computes depends on how
// the scheduler interleaves goroutines, and the way to keep that
// checkable is to keep the goroutines few and known. Every `go`
// statement outside _test.go files is a finding until an ignore
// directive naming gostmt, with a reason, registers it from its line or
// the line above; the registered sites are listed in DESIGN.md §5, and
// each reason says why its goroutine cannot change a result. A
// registration whose go statement moves or goes away is reported as
// stale, like any other unused directive. Test goroutines feed no
// result, so test files are skipped.
var GoStmt = &Analyzer{
	Name: "gostmt",
	Doc:  "go statement without a gostmt registration (an ignore directive with a reason); every goroutine is reviewed and listed in DESIGN.md §5",
	Run:  runGoStmt,
}

func runGoStmt(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "unregistered go statement: add it to DESIGN.md §5's goroutine table and register it with %s gostmt <why it cannot change a result>", ignorePrefix)
			}
			return true
		})
	}
	return nil
}
