package bench

import (
	"fmt"
	"io"

	"dcsctrl/internal/core"
	"dcsctrl/internal/report"
	"dcsctrl/internal/sim"
)

// SizeSweep measures single-operation latency across transfer sizes
// for every design — the crossover view behind Figure 11: hardware
// control wins big at small transfers (control dominates) and keeps a
// constant absolute edge at large ones (media/wire dominate).
type SizeSweep struct {
	Proc    core.Processing
	Sizes   []int
	Configs []core.Config
	// LatencyUs[config][i] is the warm-op latency for Sizes[i] in µs.
	LatencyUs map[core.Config][]float64
}

// DefaultSweepSizes are the measured transfer sizes.
var DefaultSweepSizes = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// RunSizeSweepParallel executes the sweep's config×size trial cells
// across up to workers goroutines, each cell in its own sim.Env.
// Results are keyed by cell index, so the output is identical to a
// serial run for any worker count.
func RunSizeSweepParallel(proc core.Processing, workers int) SizeSweep {
	sw := SizeSweep{
		Proc:      proc,
		Sizes:     DefaultSweepSizes,
		Configs:   []core.Config{core.SWOpt, core.SWP2P, core.DCSCtrl},
		LatencyUs: map[core.Config][]float64{},
	}
	lat := make([]float64, len(sw.Configs)*len(sw.Sizes))
	ParallelFor(len(lat), workers, func(i int) {
		kind := sw.Configs[i/len(sw.Sizes)]
		size := sw.Sizes[i%len(sw.Sizes)]
		lat[i] = microbench(kind, size, proc).Latency.Microseconds()
	})
	for ci, kind := range sw.Configs {
		sw.LatencyUs[kind] = lat[ci*len(sw.Sizes) : (ci+1)*len(sw.Sizes)]
	}
	return sw
}

// Render writes the sweep as a table with per-size reductions.
func (sw SizeSweep) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Latency vs transfer size (processing=%s)", sw.Proc),
		Headers: []string{"size", "sw-opt µs", "sw-p2p µs", "dcs-ctrl µs", "reduction vs sw-p2p"},
	}
	for i, size := range sw.Sizes {
		p2p := sw.LatencyUs[core.SWP2P][i]
		dcs := sw.LatencyUs[core.DCSCtrl][i]
		red := 0.0
		if p2p > 0 {
			red = 1 - dcs/p2p
		}
		t.AddRow(fmtSize(size),
			fmt.Sprintf("%.1f", sw.LatencyUs[core.SWOpt][i]),
			fmt.Sprintf("%.1f", p2p),
			fmt.Sprintf("%.1f", dcs),
			report.Pct(red))
	}
	t.Render(w)
}

// Reduction returns the DCS-vs-SW-P2P latency reduction at Sizes[i].
func (sw SizeSweep) Reduction(i int) float64 {
	p2p := sw.LatencyUs[core.SWP2P][i]
	if p2p <= 0 {
		return 0
	}
	return 1 - sw.LatencyUs[core.DCSCtrl][i]/p2p
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ProcMD5 re-exports the MD5 processing kind for harness callers that
// do not import core directly.
const ProcMD5 = core.ProcMD5

// interface check: sweeps use the shared microbench helper.
var _ = sim.Microsecond
