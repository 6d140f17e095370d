// Command corec-lint runs the project's invariant analyzers over Go
// packages and reports violations as file:line:col diagnostics, exiting
// non-zero when any survive suppression. It is stdlib-only and offline:
// packages resolve through `go list -export` against the local build cache.
//
// Usage:
//
//	corec-lint [-list] [packages...]
//
// With no package patterns, ./... is analyzed. Suppress a diagnostic with
// a justified directive on the flagged line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// Stale suppressions (matching nothing) are themselves errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"corec/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: corec-lint [-list] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corec-lint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, analyzers)
	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: %s: %s\n", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "corec-lint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
