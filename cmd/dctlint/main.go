// Command dctlint runs dctraffic's determinism analyzers over the
// module: a multichecker in the style of go vet -vettool, built on the
// stdlib-only framework in internal/lint.
//
// The paper's results are reproducible only because a simulation run is
// a pure function of its seed; dctlint mechanically enforces the
// invariants behind that (no map-order-dependent sinks, no wall-clock
// reads in sim packages, no global rand, no scheduler-ordered float
// reductions) and keeps every goroutine a reviewed decision: gostmt
// fails on a go statement that no ignore directive naming gostmt
// registers with a reason. See DESIGN.md, "Determinism".
//
// Usage:
//
//	go run ./cmd/dctlint [-list] [-json] [-github] [packages]
//
// With no package patterns it checks ./... relative to the current
// directory, which must be inside the module. -json prints the findings
// as a JSON array instead of text; -github prints GitHub Actions
// workflow commands so findings surface as inline PR annotations. Exit
// status is 1 when any finding survives //dctlint:ignore suppression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dctraffic/internal/lint"
)

// finding is the stable JSON shape for one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub Actions error annotations")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	var findings []finding
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			findings = append(findings, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			switch {
			case *asJSON:
				// collected; printed as one array below
			case *github:
				fmt.Println(annotation(findings[len(findings)-1]))
			default:
				fmt.Println(d)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dctlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// annotation renders one finding as a GitHub Actions workflow command:
//
//	::error file=F,line=L,col=C,title=dctlint/NAME::MESSAGE
//
// Property values and the message use the Actions escaping rules (%,
// CR, LF; plus comma and colon inside properties).
func annotation(f finding) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		escapeProp(f.File), f.Line, f.Column,
		escapeProp("dctlint/"+f.Analyzer), escapeData(f.Message))
}

func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func escapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dctlint:", err)
	os.Exit(2)
}
