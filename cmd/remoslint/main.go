// Command remoslint runs the Remos invariant analyzers over the module
// containing the working directory. It is dependency-free (stdlib
// go/parser, go/types, go/importer only) and exits 1 when findings
// survive, so `make lint` and CI fail on regressions.
//
// Usage:
//
//	remoslint [-allows] [./...]
//
// -allows audits every live //remoslint:allow directive (file, line,
// check, reason) and exits 0 — directive creep is reviewed, not gated.
//
// The package pattern is accepted for familiarity but the linter always
// audits the whole module: the invariants (duplicate metric names, one
// registration site per family) are whole-program properties.
package main

import (
	"flag"
	"fmt"
	"os"

	"remos/internal/lint"
)

func main() {
	allows := flag.Bool("allows", false, "list every live //remoslint:allow directive and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: remoslint [-allows] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "remoslint: unsupported pattern %q (the linter audits the whole module)\n", arg)
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	// The audit rides the diagnostic shape — file:line: [check] reason —
	// so both listings relativize and print the same way.
	var rows []lint.Diagnostic
	if *allows {
		for _, a := range lint.Allows(pkgs) {
			rows = append(rows, lint.Diagnostic{File: a.File, Line: a.Line, Check: a.Check, Message: a.Reason})
		}
	} else {
		rows = lint.Run(pkgs, lint.DefaultPolicy())
	}
	lint.Relativize(rows, cwd)
	if err := lint.WriteText(os.Stdout, rows); err != nil {
		fatal(err)
	}
	switch {
	case *allows:
		fmt.Fprintf(os.Stderr, "remoslint: %d live allow directive(s)\n", len(rows))
	case len(rows) > 0:
		fmt.Fprintf(os.Stderr, "remoslint: %d finding(s)\n", len(rows))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "remoslint:", err)
	os.Exit(2)
}
