package lint

import (
	"go/ast"
	"go/types"
)

// NoGoroutine flags `go` statements and raw channel makes in model
// code. The DES kernel owns all concurrency: exactly one goroutine
// (the Run caller or the current process) executes model code at any
// instant, and park/resume hands control directly between processes.
// A stray goroutine or ad-hoc channel in a device model reintroduces
// scheduler nondeterminism and can deadlock the single-runnable-
// process handoff. Models spawn concurrent activities with
// sim.Env.Spawn / SpawnHandler and synchronise through sim.Queue /
// sim.Resource / sim.Signal.
//
// In the device packages (devicePumpPackages) it also flags every
// reference to (*sim.Env).Spawn: their procs are flat pumps, which are
// run-to-completion handler procs (DESIGN.md §16), so a goroutine proc
// there brings back the park/resume handoff the conversion removed.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements and channel makes outside the DES kernel\n\n" +
		"Model concurrency must go through sim.Env.Spawn/SpawnHandler and " +
		"the kernel's synchronisation types; raw goroutines break the single-" +
		"runnable-process invariant the park/resume handoff depends on. The " +
		"device packages (nic, pcie, ether, hostos, nvme, hdc, ndp) may not " +
		"spawn goroutine procs at all: their loops and stages are handler procs.",
	Run: runNoGoroutine,
}

// devicePumpPackages are the device-model packages whose every proc is
// a handler proc: the flat pumps, the NVMe queue and exec machines, and
// the HDC Engine's loops and per-command stages. Goroutine procs stay
// legal in the apps, the core host paths, and the bench and test
// drivers.
var devicePumpPackages = []string{
	"internal/nic",
	"internal/pcie",
	"internal/ether",
	"internal/hostos",
	"internal/nvme",
	"internal/hdc",
	"internal/ndp",
}

func runNoGoroutine(pass *Pass) error {
	noSpawn := inList(pass.Pkg.Path(), devicePumpPackages)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in model code; spawn simulated processes with "+
						"sim.Env.Spawn — the kernel's park/resume handoff requires "+
						"exactly one runnable goroutine")
			case *ast.CallExpr:
				if isChanMake(pass.TypesInfo, n) {
					pass.Reportf(n.Pos(),
						"raw channel make in model code; synchronise through the "+
							"kernel's sim.Queue / sim.Resource / sim.Signal so event "+
							"ordering stays deterministic")
				}
			case *ast.SelectorExpr:
				if noSpawn && isEnvSpawn(pass.TypesInfo, n) {
					pass.Reportf(n.Pos(),
						"goroutine proc spawned in device package %s; device pumps are "+
							"handler procs — use sim.Env.SpawnHandler with a Start/Step "+
							"machine (DESIGN.md §16)", pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

// isEnvSpawn reports whether sel refers to the kernel's goroutine-proc
// spawn, (*sim.Env).Spawn — called or taken as a method value.
func isEnvSpawn(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Spawn" && fn.Pkg() != nil &&
		fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "Env"
}

// isChanMake reports whether call is make(chan ...). The builtin make
// has no types.Func object, so detect it as an ident named "make"
// that types resolved to the universe builtin, with a channel type
// argument.
func isChanMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || !tv.IsType() {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
