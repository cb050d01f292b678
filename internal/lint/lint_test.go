package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"dcsctrl/internal/lint"
	"dcsctrl/internal/lint/analysistest"
)

func TestNoWallClock(t *testing.T) {
	analysistest.Run(t, lint.NoWallClock, filepath.Join("testdata", "src", "nowallclock"))
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, lint.MapOrder, filepath.Join("testdata", "src", "maporder"))
}

func TestNoGoroutine(t *testing.T) {
	analysistest.Run(t, lint.NoGoroutine, filepath.Join("testdata", "src", "nogoroutine"))
}

// The device-package Spawn ban depends on the package path, so its
// fixture is checked as the NIC package it stands in for.
func TestNoGoroutineDevicePumps(t *testing.T) {
	analysistest.RunAs(t, lint.NoGoroutine,
		filepath.Join("testdata", "src", "nogoroutine", "nic"), lint.ModulePath+"/internal/nic")
	analysistest.RunAs(t, lint.NoGoroutine,
		filepath.Join("testdata", "src", "nogoroutine", "hdc"), lint.ModulePath+"/internal/hdc")
}

func TestNoChainRecursion(t *testing.T) {
	analysistest.Run(t, lint.NoChainRecursion, filepath.Join("testdata", "src", "nochainrecursion"))
}

func TestSimTime(t *testing.T) {
	analysistest.Run(t, lint.SimTime, filepath.Join("testdata", "src", "simtime"))
}

func TestNoAlloc(t *testing.T) {
	analysistest.RunModule(t, lint.NoAlloc, filepath.Join("testdata", "src", "noalloc"))
}

func TestShardSafe(t *testing.T) {
	analysistest.RunModule(t, lint.ShardSafe, filepath.Join("testdata", "src", "shardsafe"))
}

func TestNoBlockHandler(t *testing.T) {
	// The kernel package joins the facts set: park-capability is
	// reverse reachability from (*sim.Proc).park, which needs the
	// kernel's own bodies, not just its API surface.
	analysistest.RunModule(t, lint.NoBlockHandler,
		filepath.Join("testdata", "src", "noblockhandler"), "dcsctrl/internal/sim")
}

// TestRepoIsClean is the property CI enforces: the whole module passes
// the suite with zero findings. A regression here means either new
// code broke a determinism invariant or an analyzer grew a false
// positive — both need fixing before merge.
func TestRepoIsClean(t *testing.T) {
	findings, err := lint.Run("", "dcsctrl/...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// The suite must report the analyzer name and a concrete fix in every
// diagnostic — that is what makes a CI failure actionable.
func TestDiagnosticsNameAnalyzerAndFix(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if a.Name == "" || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be a single lower-case word", a.Name)
		}
		if !strings.Contains(a.Doc, "\n\n") {
			t.Errorf("%s: Doc needs a summary line plus explanation", a.Name)
		}
	}
	for _, ma := range lint.ModuleAnalyzers() {
		if ma.Name == "" || strings.ContainsAny(ma.Name, " \t") {
			t.Errorf("analyzer name %q must be a single lower-case word", ma.Name)
		}
		if !strings.Contains(ma.Doc, "\n\n") {
			t.Errorf("%s: Doc needs a summary line plus explanation", ma.Name)
		}
	}
}
