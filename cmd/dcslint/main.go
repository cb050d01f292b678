// Command dcslint runs the repo's determinism lint suite — a
// multichecker over internal/lint's analyzers.
//
// Per-package analyzers:
//
//	nowallclock       no wall-clock time or global math/rand in sim packages
//	maporder          no map-range bodies that leak iteration order
//	nogoroutine       no goroutines or raw channels outside the DES kernel, no Env.Spawn in device packages
//	nochainrecursion  no continuations that re-enter sim.Env.Chain
//	simtime           no raw integer literals in sim.Time arithmetic
//
// Whole-module (interprocedural) analyzers:
//
//	noalloc           //dcslint:hotpath functions transitively allocation-free
//	shardsafe         no state mutably shared across shard domains
//
// Usage:
//
//	go run ./cmd/dcslint ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 failed to load.
// Suppress a single finding with a justified directive:
//
//	//dcslint:allow <analyzer> <reason>
//
// on the offending line or the line directly above. See the
// "Determinism rules" and "Static analysis architecture" sections of
// DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"dcsctrl/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (file/line/analyzer/message/chain)")
	hotpaths := flag.Bool("hotpaths", false, "emit the //dcslint:hotpath roots as JSON and exit (no linting)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dcslint [-list] [-json] [-hotpaths] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		for _, ma := range lint.ModuleAnalyzers() {
			fmt.Printf("%-12s %s (module)\n", ma.Name, firstLine(ma.Doc))
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *hotpaths {
		roots, err := lint.Hotpaths("", patterns...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcslint:", err)
			os.Exit(2)
		}
		if err := lint.PrintHotpaths(os.Stdout, roots); err != nil {
			fmt.Fprintln(os.Stderr, "dcslint:", err)
			os.Exit(2)
		}
		return
	}

	findings, err := lint.Run("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcslint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := lint.PrintJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "dcslint:", err)
			os.Exit(2)
		}
	} else {
		lint.Print(os.Stdout, findings)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dcslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
