package lint

import "strings"

// ModulePath is the module all linted packages live in.
const ModulePath = "dcsctrl"

// SimKernelPath is the DES kernel package — the one place goroutines
// and channels are allowed, and the home of the sim.Time type.
const SimKernelPath = ModulePath + "/internal/sim"

// SnapCodecPath is the checkpoint codec package. Its Writer appends
// to a position-significant byte stream, so every encode call made
// while ranging a map leaks the randomized iteration order straight
// into the snapshot bytes — and snapshot bytes must be identical run
// to run (DESIGN.md §17).
const SnapCodecPath = SimKernelPath + "/snap"

// ShardKernelPath is the conservative-parallel shard kernel. It is
// kernel infrastructure, not model code: its worker pool dispatches
// whole domains between lookahead barriers, and its determinism is
// enforced by the parallel-equivalence suite (byte-identical
// fingerprints at every worker count), not by the goroutine ban.
const ShardKernelPath = SimKernelPath + "/shard"

// simPackages are the simulation-model packages where every
// determinism invariant is load-bearing: their code runs on the
// simulated timeline and feeds golden figures and fault fingerprints.
var simPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/hdc",
	"internal/nvme",
	"internal/nic",
	"internal/pcie",
	"internal/ether",
	"internal/fault",
	"internal/workload",
	"internal/hostos",
	"internal/gpu",
	"internal/ndp",
	"internal/fpga",
	"internal/mem",
	"internal/apps",
}

// orderExempt are the packages even maporder/simtime skip: pure
// driver/tooling code whose output never feeds a golden file.
// Reporting and trace code stay covered — their output IS the golden
// data.
var orderExempt = []string{
	"internal/bench",
	"cmd/",
	"examples/",
}

func inList(pkgPath string, list []string) bool {
	rel, ok := strings.CutPrefix(pkgPath, ModulePath+"/")
	if !ok {
		// The module root package itself ("dcsctrl").
		rel = ""
		if pkgPath != ModulePath {
			return false
		}
	}
	for _, p := range list {
		if rel == p || strings.HasPrefix(rel, p+"/") ||
			(strings.HasSuffix(p, "/") && strings.HasPrefix(rel, p)) {
			return true
		}
	}
	return false
}

// IsSimPackage reports whether pkgPath is simulation-model code.
func IsSimPackage(pkgPath string) bool { return inList(pkgPath, simPackages) }

// Applies reports whether analyzer a should run over pkgPath.
//
//   - nowallclock: simulation packages only — bench/report/cmd
//     legitimately time real execution.
//   - nogoroutine: simulation packages except the kernel itself and
//     the shard kernel, which own all concurrency.
//   - nochainrecursion: all simulation packages including the kernel —
//     a self-chaining continuation is a stack bomb wherever it lives.
//   - maporder and simtime: everywhere in the module except the
//     orderExempt tooling packages — reporting and facade code feed
//     golden output too, and sim.Time hygiene is global.
func Applies(a *Analyzer, pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, ModulePath) {
		return false
	}
	switch a.Name {
	case "nowallclock":
		return IsSimPackage(pkgPath)
	case "nogoroutine":
		return IsSimPackage(pkgPath) && pkgPath != SimKernelPath && pkgPath != ShardKernelPath
	case "nochainrecursion":
		return IsSimPackage(pkgPath)
	case "maporder", "simtime":
		return !inList(pkgPath, orderExempt)
	}
	return true
}

// Analyzers returns the per-package dcslint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoWallClock, MapOrder, NoGoroutine, NoChainRecursion, SimTime}
}

// ModuleAnalyzers returns the whole-module (interprocedural) suite.
// Module analyzers scope themselves — noalloc walks only from
// //dcslint:hotpath roots, shardsafe only from kernel-callback
// registrations — so they have no Applies entry.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{NoAlloc, ShardSafe, NoBlockHandler}
}

// byName returns the per-package analyzer with the given name, or nil.
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// knownAnalyzer reports whether name identifies any analyzer in the
// suite (per-package or module) — the namespace //dcslint:allow
// directives may target.
func knownAnalyzer(name string) bool {
	if byName(name) != nil {
		return true
	}
	for _, ma := range ModuleAnalyzers() {
		if ma.Name == name {
			return true
		}
	}
	return false
}
