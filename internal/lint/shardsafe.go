package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardSafe proves the state-isolation invariant the conservative-
// parallel shard kernel (internal/sim/shard) depends on: inside a
// lookahead window, domains run concurrently with no synchronization,
// which is only sound if no state reachable from one domain's
// sim.Env is mutably reachable from another. Two mechanisms can
// break that silently:
//
//  1. Package-level variables written from simulated-timeline code
//     (proc bodies, scheduled callbacks, write hooks, MSI handlers,
//     delivery sinks). Every domain shares the process address space,
//     so such a write is a data race the -race matrix can only sample.
//
//  2. Cross-domain pointer captures at Rack wiring time: the sink
//     passed to shard.Kernel.AddNode delivers frames into a domain,
//     so a sink that closes over (or binds, for method values) state
//     declared outside the per-node wiring loop aliases one object
//     into every domain.
//
// The analyzer seeds reachability at every kernel-callback
// registration (sim.Env Spawn/Schedule/Chain, the functions of
// sim.NewDeferred/NewCoalesced/NewPool, mem write hooks, pcie MSI
// handlers, shard sinks), walks the static call graph, and flags
// both mechanisms. Simulation-model packages and out-of-module code
// (testdata models) are checked; host-side packages (bench, cmd) are
// exempt — their procs run single-domain experiments. Suppress a
// deliberate site with //dcslint:allow shardsafe <reason>.
//
// Soundness caveats (DESIGN.md §15): dynamic calls do not extend
// reachability, func values stored in fields and invoked later are
// not traced to their definitions, and AddNode calls outside a wiring
// loop are not capture-checked — the flattening of function literals
// into their enclosing summaries covers the common registration
// idioms, and the parallel-equivalence -race matrix remains the
// backstop for the rest.
var ShardSafe = &ModuleAnalyzer{
	Name: "shardsafe",
	Doc: "prove shard domains share no mutable state\n\n" +
		"Flags package-level variables written from code reachable from " +
		"kernel callbacks (Spawn/Schedule/Chain/write hooks/MSI/sinks) " +
		"and shard.Kernel.AddNode sinks that capture state declared " +
		"outside the per-node wiring loop. Both are cross-domain races " +
		"under the conservative-parallel kernel. Suppress a proven-safe " +
		"site with //dcslint:allow shardsafe <reason>.",
	Run: runShardSafe,
}

func runShardSafe(pass *ModulePass) error {
	facts := pass.Facts

	// Check 1: global writes reachable from simulated-timeline code.
	r := facts.newReach()
	seedCallbacks := func(ff *FuncFacts) {
		for _, cb := range ff.Callbacks {
			roots, _ := facts.CallbackRoots(ff, cb)
			for _, root := range roots {
				r.addRoot(root)
			}
		}
	}
	for _, ff := range facts.All {
		seedCallbacks(ff)
	}
	r.grow(seedCallbacks) // code reached from a proc can register more callbacks

	for _, ff := range r.order {
		if !modelCode(ff.Pkg.Path) {
			continue
		}
		for _, gw := range ff.GlobalWrites {
			chain := r.chain(ff)
			pass.Reportf(gw.Pos, chain,
				"package-level variable %s %s from simulated-timeline code: shard domains share it without synchronization [%s]",
				varName(gw.Var), gw.Desc, chainString(chain))
		}
	}

	// Check 2: AddNode sink captures at wiring time.
	for _, ff := range facts.All {
		for _, cb := range ff.Callbacks {
			if cb.Kind != CallbackSink || cb.Loop == nil {
				continue
			}
			checkSinkCaptures(pass, ff, cb)
		}
	}
	return nil
}

// checkSinkCaptures verifies that a sink registered inside a per-node
// wiring loop only references state created in that loop iteration.
func checkSinkCaptures(pass *ModulePass, ff *FuncFacts, cb Callback) {
	chain := []ChainLink{{Func: ff.Name()}}
	switch {
	case cb.Lit != nil:
		for _, v := range freeVarObjs(ff.Pkg.Info, cb.Lit) {
			if declaredInside(v, cb.Loop) {
				continue
			}
			pass.Reportf(cb.Pos, chain,
				"shard sink captures %q declared outside the per-node wiring loop: cross-domain pointer capture [%s]",
				v.Name(), ff.Name())
		}
	case cb.Target != nil && isMethodValueExpr(ff.Pkg.Info, cb.ArgExpr):
		sel, ok := ast.Unparen(cb.ArgExpr).(*ast.SelectorExpr)
		if !ok {
			return
		}
		root := rootIdent(sel.X)
		if root == nil {
			pass.Reportf(cb.Pos, chain,
				"shard sink binds a receiver dcslint cannot trace to a per-node variable [%s]", ff.Name())
			return
		}
		v, isVar := ff.Pkg.Info.Uses[root].(*types.Var)
		if !isVar || isPackageLevel(v) || !declaredInside(v, cb.Loop) {
			pass.Reportf(cb.Pos, chain,
				"shard sink binds receiver %q declared outside the per-node wiring loop: cross-domain pointer capture [%s]",
				root.Name, ff.Name())
		}
	case cb.Target != nil:
		// A plain package-level function captures nothing: safe.
	default:
		pass.Reportf(cb.Pos, chain,
			"shard sink is an opaque func value dcslint cannot check for cross-domain captures [%s]", ff.Name())
	}
}

// modelCode reports whether pkgPath holds simulated-timeline model
// code for shardsafe purposes: the module's sim packages, or any
// out-of-module package (testdata models compile under synthetic
// import paths). Host packages are exempt — their procs drive
// single-domain experiments and own their globals.
func modelCode(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, ModulePath) {
		return true
	}
	return IsSimPackage(pkgPath)
}

func declaredInside(v *types.Var, node ast.Node) bool {
	return v.Pos() >= node.Pos() && v.Pos() <= node.End()
}

func isMethodValueExpr(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}

func varName(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}
