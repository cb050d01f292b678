// Package lint is dcslint: a static-analysis suite that enforces the
// determinism invariants the whole reproduction rests on. Golden
// figures (Fig 11a/11b/12), fault-recovery fingerprints, and the
// parallel runner's byte-identical-at-any-worker-count guarantee all
// assume model code never consults wall-clock time, unseeded
// randomness, goroutines of its own, or Go map iteration order.
// dcslint turns those conventions into checked properties.
//
// The analyzer API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) so analyzers read like standard
// go/analysis code and could be ported to the real framework verbatim.
// The repo builds with zero third-party dependencies, so the driver
// (load.go) and the analysistest-style harness (analysistest.go) are
// small stdlib-only reimplementations of the corresponding x/tools
// machinery.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one dcslint check, in the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dcslint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description: first line is a summary,
	// the rest explains the invariant being enforced.
	Doc string

	// Run applies the analyzer to one package and reports
	// diagnostics via pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. Filled in by the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // analyzer name; filled by the driver if empty
	Message  string

	// Chain is the interprocedural call chain that makes the position
	// relevant (root first); only module analyzers set it.
	Chain []ChainLink
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModuleAnalyzer is a whole-module check: unlike Analyzer, whose Run
// sees one package at a time, a module analyzer runs once over every
// loaded target package plus the interprocedural facts layer
// (per-function summaries + call graph). noalloc and shardsafe are
// module analyzers — their invariants ("transitively allocation-free",
// "no state mutably shared across shard domains") only exist at
// whole-module scope.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass) error
}

// ModulePass carries one module analyzer's view of the whole module.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Facts    *Facts

	// Report records one diagnostic. Filled in by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos with a call chain.
func (p *ModulePass) Reportf(pos token.Pos, chain []ChainLink, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Chain: chain, Message: fmt.Sprintf(format, args...)})
}

// calleeFunc resolves the called function of call, seeing through
// parentheses and both ident (dot-import / package-local) and
// selector (pkg.Fn, recv.Method) callees. Returns nil for calls of
// function-typed values, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isSimType reports whether t (or the named type it points to) is the
// named type `name` declared in the simulation kernel package.
func isSimType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == SimKernelPath && obj.Name() == name
}
