// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment on
// the simulated testbed and reports the figure's key quantities as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The simulations are deterministic:
// per-iteration variance is zero by construction.
package dcsctrl_test

import (
	"fmt"
	"io"
	"testing"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/sim"
)

// BenchmarkFigure2Timeline regenerates the software device-control
// timeline (Figure 2): events traced across user/kernel/driver/device.
func BenchmarkFigure2Timeline(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		events = len(bench.Figure2Timeline())
	}
	b.ReportMetric(float64(events), "timeline-events")
}

// BenchmarkFigure3Motivation regenerates Figure 3: software latency
// and normalized CPU of SSD→GPU(MD5)→NIC across the baselines.
func BenchmarkFigure3Motivation(b *testing.B) {
	var f bench.Figure3
	for i := 0; i < b.N; i++ {
		f = bench.RunFigure3Parallel(1)
	}
	b.ReportMetric(f.Lat[core.SWOpt].Latency.Microseconds(), "sw-opt-µs")
	b.ReportMetric(f.Lat[core.SWP2P].Latency.Microseconds(), "sw-p2p-µs")
	b.ReportMetric(f.Lat[core.DevIntegration].Latency.Microseconds(), "integration-µs")
	if base := f.CPU[core.SWOpt].Seconds(); base > 0 {
		b.ReportMetric(f.CPU[core.DevIntegration].Seconds()/base, "integration-cpu-norm")
	}
}

// BenchmarkFigure8KernelCPU regenerates Figure 8: kernel-side CPU of
// direct SSD→NIC transfers on stock kernel, optimized kernel, DCS-ctrl.
func BenchmarkFigure8KernelCPU(b *testing.B) {
	var f bench.Figure8
	for i := 0; i < b.N; i++ {
		f = bench.RunFigure8Parallel(1)
	}
	total := func(k core.Config) float64 {
		var t sim.Time
		for _, v := range f.Busy[k] {
			t += v
		}
		return t.Microseconds()
	}
	b.ReportMetric(total(core.Vanilla), "vanilla-kernel-µs")
	b.ReportMetric(total(core.SWOpt), "sw-opt-kernel-µs")
	b.ReportMetric(total(core.DCSCtrl), "dcs-kernel-µs")
}

// BenchmarkFigure11aSSDToNIC regenerates Figure 11a and reports the
// headline latency reduction (paper: 42%).
func BenchmarkFigure11aSSDToNIC(b *testing.B) {
	var f bench.Figure11
	for i := 0; i < b.N; i++ {
		f = bench.Figure11aParallel(1)
	}
	b.ReportMetric(f.Results[core.SWP2P].Latency.Microseconds(), "sw-p2p-µs")
	b.ReportMetric(f.Results[core.DCSCtrl].Latency.Microseconds(), "dcs-µs")
	b.ReportMetric(f.Reduction*100, "reduction-%")
}

// BenchmarkFigure11bWithProcessing regenerates Figure 11b (MD5 via
// GPU vs NDP) and reports the headline reduction (paper: 72%).
func BenchmarkFigure11bWithProcessing(b *testing.B) {
	var f bench.Figure11
	for i := 0; i < b.N; i++ {
		f = bench.Figure11bParallel(1)
	}
	b.ReportMetric(f.Results[core.SWP2P].Latency.Microseconds(), "sw-p2p-µs")
	b.ReportMetric(f.Results[core.DCSCtrl].Latency.Microseconds(), "dcs-µs")
	b.ReportMetric(f.Reduction*100, "reduction-%")
}

// fig12Once runs the Figure 12 applications once with harness-scale
// configs (shared by the Figure 12 and 13 benchmarks).
func fig12Once() bench.Figure12 {
	return bench.RunFigure12Parallel(bench.DefaultFig12Swift(), bench.DefaultFig12HDFS(), 1)
}

// BenchmarkFigure12aSwift regenerates Figure 12a: Swift server CPU at
// iso-load (paper headline: 52% reduction).
func BenchmarkFigure12aSwift(b *testing.B) {
	var f bench.Figure12
	for i := 0; i < b.N; i++ {
		f = fig12Once()
	}
	b.ReportMetric(f.Swift[core.SWP2P].ServerCPU*100, "sw-p2p-cpu-%")
	b.ReportMetric(f.Swift[core.DCSCtrl].ServerCPU*100, "dcs-cpu-%")
	b.ReportMetric(f.CPUReduction*100, "reduction-%")
	b.ReportMetric(f.Swift[core.DCSCtrl].Gbps, "dcs-gbps")
}

// BenchmarkFigure12bHDFS regenerates Figure 12b: HDFS balancer CPU at
// iso-bandwidth.
func BenchmarkFigure12bHDFS(b *testing.B) {
	var f bench.Figure12
	for i := 0; i < b.N; i++ {
		f = fig12Once()
	}
	b.ReportMetric(f.HDFS[core.SWP2P].ReceiverCPU*100, "sw-p2p-recv-cpu-%")
	b.ReportMetric(f.HDFS[core.DCSCtrl].ReceiverCPU*100, "dcs-recv-cpu-%")
	b.ReportMetric(f.HDFS[core.DCSCtrl].Gbps, "dcs-gbps")
}

// BenchmarkFigure13Scalability regenerates the 40-Gbps projection
// (paper headlines: 1.95× Swift, 2.06× HDFS iso-CPU throughput).
func BenchmarkFigure13Scalability(b *testing.B) {
	var f13 bench.Figure13
	for i := 0; i < b.N; i++ {
		f13 = bench.ProjectFigure13(fig12Once())
	}
	b.ReportMetric(f13.SwiftGain, "swift-gain-x")
	b.ReportMetric(f13.HDFSGain, "hdfs-gain-x")
	b.ReportMetric(f13.HDFSCores[core.DCSCtrl], "dcs-hdfs-cores@40G")
}

// BenchmarkTable3NDPUnits exercises every NDP unit over 1 MB of data
// (real transforms) and reports modelled aggregate bank throughput.
func BenchmarkTable3NDPUnits(b *testing.B) {
	var out int
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		for _, u := range bench.AllNDPUnits() {
			res, _, err := ndp.Transform(u, data)
			if err != nil {
				b.Fatal(err)
			}
			out += len(res)
		}
	}
	if out == 0 {
		b.Fatal("no output")
	}
}

// BenchmarkTable4EngineResources rebuilds the HDC Engine design and
// reports the Table IV resource totals.
func BenchmarkTable4EngineResources(b *testing.B) {
	var luts, brams int
	for i := 0; i < b.N; i++ {
		luts, brams = bench.EngineResourceTotals()
	}
	b.ReportMetric(float64(luts), "luts")
	b.ReportMetric(float64(brams), "brams")
}

// BenchmarkSwiftDCSThroughput measures delivered Swift throughput on
// the DCS-ctrl server (sanity: near the 10-GbE line rate).
func BenchmarkSwiftDCSThroughput(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		cl := core.NewCluster(env, core.DCSCtrl, core.DefaultParams())
		res, err := apps.RunSwift(env, cl, bench.DefaultFig12Swift())
		if err != nil {
			b.Fatal(err)
		}
		gbps = res.Gbps
	}
	b.ReportMetric(gbps, "gbps")
}

// BenchmarkTables renders the static tables (I/II) — a smoke check
// that the renderers stay wired.
func BenchmarkTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
		bench.Table2(io.Discard)
		bench.Table3(io.Discard)
		bench.Table4(io.Discard)
	}
}

// BenchmarkFigure13SimSaturation measures (rather than projects) the
// 40-GbE saturation point on the paper's Gen2 switch and on a Gen3
// fabric.
func BenchmarkFigure13SimSaturation(b *testing.B) {
	var f bench.Figure13Sim
	for i := 0; i < b.N; i++ {
		f = bench.RunFigure13SimParallel(1)
	}
	for name, gain := range f.Gains {
		metric := "gen2-gain-x"
		if name == "pcie-gen3 x16" {
			metric = "gen3-gain-x"
		}
		b.ReportMetric(gain, metric)
	}
}

// BenchmarkSizeSweep measures the latency crossover across transfer
// sizes: DCS-ctrl's edge is largest where device control dominates.
func BenchmarkSizeSweep(b *testing.B) {
	var sw bench.SizeSweep
	for i := 0; i < b.N; i++ {
		sw = bench.RunSizeSweepParallel(core.ProcNone, 1)
	}
	b.ReportMetric(sw.Reduction(0)*100, "reduction-4KB-%")
	b.ReportMetric(sw.Reduction(len(sw.Sizes)-1)*100, "reduction-1MB-%")
}

// BenchmarkSweepParallel runs the full size sweep with the worker pool
// at 1, 2, 4, and 8 workers. ns/op across the sub-benchmarks is the
// wall-clock scaling curve of the parallel runner; on a multi-core
// machine ns/op should drop roughly linearly until workers exceed
// independent trial cells or physical cores. Results are asserted
// byte-identical to serial elsewhere (TestParallelSweepEquivalence).
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sw bench.SizeSweep
			for i := 0; i < b.N; i++ {
				sw = bench.RunSizeSweepParallel(core.ProcNone, workers)
			}
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(sw.Reduction(0)*100, "reduction-4KB-%")
		})
	}
}
