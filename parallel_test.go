// Tests for the parallel experiment runner: fanning independent trial
// cells across workers must produce byte-identical figures to a serial
// run (results are keyed by cell index, never by completion order),
// and the worker pool itself must cover every index exactly once.
// CI runs this file under -race: cells share no mutable state, so the
// race detector should stay silent at any worker count.
package dcsctrl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync/atomic"
	"testing"

	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
)

// renderFingerprint hashes a figure's rendered output — the same bytes
// dcsbench prints — so equivalence failures show up as hash diffs.
func renderFingerprint(render func(w *bytes.Buffer)) (string, []byte) {
	var buf bytes.Buffer
	render(&buf)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes()
}

// TestParallelSweepEquivalence runs the full size sweep serially and
// with 8 workers: structures and rendered bytes must match exactly.
func TestParallelSweepEquivalence(t *testing.T) {
	for _, proc := range []core.Processing{core.ProcNone, core.ProcMD5} {
		serial := bench.RunSizeSweepParallel(proc, 1)
		par := bench.RunSizeSweepParallel(proc, 8)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("proc=%v: parallel sweep results differ from serial\nserial: %+v\nparallel: %+v", proc, serial, par)
		}
		sHash, sBytes := renderFingerprint(func(w *bytes.Buffer) { serial.Render(w) })
		pHash, pBytes := renderFingerprint(func(w *bytes.Buffer) { par.Render(w) })
		if sHash != pHash {
			t.Fatalf("proc=%v: rendered output differs\nserial:\n%s\nparallel:\n%s", proc, sBytes, pBytes)
		}
	}
}

// TestParallelFigure11Equivalence checks the latency-breakdown
// microbenchmarks cell-fanned vs serial.
func TestParallelFigure11Equivalence(t *testing.T) {
	a1, a8 := bench.Figure11aParallel(1), bench.Figure11aParallel(8)
	if !reflect.DeepEqual(a1, a8) {
		t.Fatal("Figure 11a parallel results differ from serial")
	}
	b1, b8 := bench.Figure11bParallel(1), bench.Figure11bParallel(8)
	if !reflect.DeepEqual(b1, b8) {
		t.Fatal("Figure 11b parallel results differ from serial")
	}
}

// TestParallelFigure12Equivalence checks the application experiment
// (six independent clusters) cell-fanned vs serial, including the
// rendered chart bytes.
func TestParallelFigure12Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config workload run")
	}
	serial := bench.RunFigure12Parallel(bench.DefaultFig12Swift(), bench.DefaultFig12HDFS(), 1)
	par := bench.RunFigure12Parallel(bench.DefaultFig12Swift(), bench.DefaultFig12HDFS(), 8)
	sHash, sBytes := renderFingerprint(func(w *bytes.Buffer) { serial.Render(w) })
	pHash, pBytes := renderFingerprint(func(w *bytes.Buffer) { par.Render(w) })
	if sHash != pHash {
		t.Fatalf("Figure 12 rendered output differs\nserial:\n%s\nparallel:\n%s", sBytes, pBytes)
	}
	if serial.CPUReduction != par.CPUReduction {
		t.Fatalf("CPU reduction differs: serial %v parallel %v", serial.CPUReduction, par.CPUReduction)
	}
}

// TestParallelFaultMatrix runs the recovery matrix with workers and
// checks it is deterministic and error-free: same injector seeds, same
// faults, zero application-visible errors in every cell.
func TestParallelFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config workload run")
	}
	serial := bench.RunFaultMatrixParallel(1)
	par := bench.RunFaultMatrixParallel(8)
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("fault matrix parallel results differ from serial")
	}
	for _, c := range par.Cells {
		if c.Errors != 0 {
			t.Errorf("%s/%s: %d application-visible errors", c.Profile, c.Config, c.Errors)
		}
		if c.Requests == 0 {
			t.Errorf("%s/%s: no requests completed", c.Profile, c.Config)
		}
		if c.Profile == "heavy" && c.Injected == 0 {
			t.Errorf("%s/%s: heavy profile injected nothing", c.Profile, c.Config)
		}
		if c.Profile == "engine-fail" && c.Config == core.DCSCtrl && !c.EngineFailed {
			t.Errorf("engine-fail/dcs-ctrl: engine not declared failed")
		}
	}
}

// TestParallelForCoversAllIndices pins the pool's contract: every
// index in [0, n) runs exactly once, for worker counts below, at, and
// above n, including the serial degenerate case.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 37
		var hits [n]atomic.Int32
		bench.ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	// n = 0 must not call fn or hang.
	bench.ParallelFor(0, 4, func(i int) { t.Fatalf("fn called for n=0 (i=%d)", i) })
}

// TestWorkersNormalization pins the -parallel flag semantics.
func TestWorkersNormalization(t *testing.T) {
	if got := bench.Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := bench.Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := bench.Workers(-1); got < 1 {
		t.Fatalf("Workers(-1) = %d, want >= 1", got)
	}
}
