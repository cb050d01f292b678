// Package bench regenerates every table and figure of the paper's
// evaluation (§V) on the simulated testbed. Each experiment returns
// structured results plus a Render method; cmd/dcsbench prints them
// and the repository's bench_test.go wraps them as Go benchmarks.
package bench

import (
	"fmt"
	"io"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/report"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
	"dcsctrl/internal/workload"
)

// microbench runs one warm SendFileOp of n bytes and returns the
// result (the first op warms queues and caches; the second is
// reported, matching steady-state measurement practice).
func microbench(kind core.Config, n int, proc core.Processing) core.OpResult {
	env := sim.NewEnv()
	cl := core.NewCluster(env, kind, core.DefaultParams())
	content := make([]byte, n)
	for i := range content {
		content[i] = byte(i * 7)
	}
	f, err := cl.Server.StageFile("obj", content)
	if err != nil {
		panic(err)
	}
	conn := cl.OpenConn(true)
	var res core.OpResult
	env.Spawn("server", func(p *sim.Proc) {
		if _, err := cl.Server.SendFileOp(p, f, 0, n, conn.ID, proc); err != nil {
			panic(err)
		}
		res, err = cl.Server.SendFileOp(p, f, 0, n, conn.ID, proc)
		if err != nil {
			panic(err)
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		cl.ClientRecv(p, conn, 2*n)
	})
	env.Run(-1)
	return res
}

// MicrobenchSize is the per-command transfer unit of the latency
// microbenchmarks (§IV-C: 4 KB per NVMe/NIC command).
const MicrobenchSize = 4096

// Figure11 is the latency-breakdown microbenchmark result.
type Figure11 struct {
	Title     string
	Configs   []core.Config
	Results   map[core.Config]core.OpResult
	Reduction float64 // DCS-ctrl vs SW-ctrl P2P
}

// Figure11aParallel runs the SSD→NIC microbenchmark's config cells
// across up to workers goroutines.
func Figure11aParallel(workers int) Figure11 {
	return figure11("Figure 11a: latency breakdown, SSD->NIC (4 KB)", core.ProcNone, workers)
}

// Figure11bParallel runs the SSD→Processing→NIC microbenchmark (MD5)
// config cells across up to workers goroutines.
func Figure11bParallel(workers int) Figure11 {
	return figure11("Figure 11b: latency breakdown, SSD->MD5->NIC (4 KB)", core.ProcMD5, workers)
}

func figure11(title string, proc core.Processing, workers int) Figure11 {
	f := Figure11{
		Title:   title,
		Configs: []core.Config{core.SWOpt, core.SWP2P, core.DCSCtrl},
		Results: map[core.Config]core.OpResult{},
	}
	results := make([]core.OpResult, len(f.Configs))
	ParallelFor(len(f.Configs), workers, func(i int) {
		results[i] = microbench(f.Configs[i], MicrobenchSize, proc)
	})
	for i, k := range f.Configs {
		f.Results[k] = results[i]
	}
	p2p := f.Results[core.SWP2P].Latency.Seconds()
	dcs := f.Results[core.DCSCtrl].Latency.Seconds()
	if p2p > 0 {
		f.Reduction = 1 - dcs/p2p
	}
	return f
}

// Render writes the figure as a stacked chart.
func (f Figure11) Render(w io.Writer) {
	chart := report.StackedChart{Title: f.Title, Unit: "µs"}
	for _, k := range f.Configs {
		chart.Bars = append(chart.Bars, report.BreakdownBar(k.String(), f.Results[k].Breakdown))
	}
	chart.Render(w)
	fmt.Fprintf(w, "  DCS-ctrl latency reduction vs SW-ctrl P2P: %s\n\n", report.Pct(f.Reduction))
}

// Figure3 is the software-overhead motivation experiment: latency and
// normalized CPU of the SSD→GPU(MD5)→NIC task across SW-opt,
// SW-ctrl P2P, and device integration.
type Figure3 struct {
	Configs []core.Config
	Lat     map[core.Config]core.OpResult
	CPU     map[core.Config]sim.Time // server CPU busy per op
}

// RunFigure3Parallel executes the motivation microbenchmark's config
// cells across up to workers goroutines.
func RunFigure3Parallel(workers int) Figure3 {
	f := Figure3{
		Configs: []core.Config{core.SWOpt, core.SWP2P, core.DevIntegration},
		Lat:     map[core.Config]core.OpResult{},
		CPU:     map[core.Config]sim.Time{},
	}
	type cellOut struct {
		res core.OpResult
		cpu sim.Time
	}
	out := make([]cellOut, len(f.Configs))
	ParallelFor(len(f.Configs), workers, func(i int) {
		k := f.Configs[i]
		env := sim.NewEnv()
		cl := core.NewCluster(env, k, core.DefaultParams())
		content := make([]byte, MicrobenchSize)
		file, _ := cl.Server.StageFile("obj", content)
		conn := cl.OpenConn(true)
		var res core.OpResult
		env.Spawn("server", func(p *sim.Proc) {
			cl.Server.SendFileOp(p, file, 0, MicrobenchSize, conn.ID, core.ProcMD5)
			cl.Server.Host.Acct.Reset()
			res, _ = cl.Server.SendFileOp(p, file, 0, MicrobenchSize, conn.ID, core.ProcMD5)
		})
		env.Spawn("client", func(p *sim.Proc) { cl.ClientRecv(p, conn, 2*MicrobenchSize) })
		env.Run(-1)
		out[i] = cellOut{res: res, cpu: cl.Server.Host.Acct.TotalBusy()}
	})
	for i, k := range f.Configs {
		f.Lat[k] = out[i].res
		f.CPU[k] = out[i].cpu
	}
	return f
}

// Render writes both panels.
func (f Figure3) Render(w io.Writer) {
	lat := report.StackedChart{Title: "Figure 3a: software latency, SSD->GPU(MD5)->NIC (4 KB)", Unit: "µs"}
	for _, k := range f.Configs {
		lat.Bars = append(lat.Bars, report.BreakdownBar(k.String(), f.Lat[k].Breakdown, trace.CatIdleWait))
	}
	lat.Render(w)
	base := f.CPU[core.SWOpt].Seconds()
	cpu := report.StackedChart{Title: "Figure 3b: normalized CPU utilization of the same task", Unit: "x (SW-opt=1)"}
	for _, k := range f.Configs {
		v := 0.0
		if base > 0 {
			v = f.CPU[k].Seconds() / base
		}
		cpu.Bars = append(cpu.Bars, report.Bar{Label: k.String(),
			Segments: []report.Segment{{Name: "cpu", Value: v}}})
	}
	cpu.Render(w)
}

// Figure8 compares kernel-side CPU utilization of the stock kernel,
// the optimized kernel, and DCS-ctrl on direct SSD→NIC transfers.
type Figure8 struct {
	Configs []core.Config
	Busy    map[core.Config]map[trace.Category]sim.Time
	Window  sim.Time
	Cores   int
}

// RunFigure8Parallel executes the kernel-overhead comparison, a fixed
// batch of 64 KB SSD→NIC transfers per configuration, with the config
// cells across up to workers goroutines.
func RunFigure8Parallel(workers int) Figure8 {
	f := Figure8{
		Configs: []core.Config{core.Vanilla, core.SWOpt, core.DCSCtrl},
		Busy:    map[core.Config]map[trace.Category]sim.Time{},
		Cores:   core.DefaultParams().Host.Cores,
	}
	const ops = 20
	const size = 64 << 10
	type cellOut struct {
		busy   map[trace.Category]sim.Time
		window sim.Time
	}
	out := make([]cellOut, len(f.Configs))
	ParallelFor(len(f.Configs), workers, func(i int) {
		k := f.Configs[i]
		env := sim.NewEnv()
		cl := core.NewCluster(env, k, core.DefaultParams())
		content := make([]byte, size)
		file, _ := cl.Server.StageFile("obj", content)
		conn := cl.OpenConn(true)
		env.Spawn("server", func(p *sim.Proc) {
			cl.Server.SendFileOp(p, file, 0, size, conn.ID, core.ProcNone)
			cl.Server.Host.Acct.Reset()
			for i := 0; i < ops; i++ {
				cl.Server.SendFileOp(p, file, 0, size, conn.ID, core.ProcNone)
			}
		})
		env.Spawn("client", func(p *sim.Proc) { cl.ClientRecv(p, conn, (ops+1)*size) })
		env.Run(-1)
		busy := map[trace.Category]sim.Time{}
		for _, cat := range cl.Server.Host.Acct.Categories() {
			if cat == trace.CatUser {
				continue // kernel-side only, as in the figure
			}
			busy[cat] = cl.Server.Host.Acct.Busy(cat)
		}
		out[i] = cellOut{busy: busy, window: cl.Server.Host.Acct.Window()}
	})
	for i, k := range f.Configs {
		f.Busy[k] = out[i].busy
		if out[i].window > f.Window {
			f.Window = out[i].window
		}
	}
	return f
}

// Render writes the kernel-CPU chart.
func (f Figure8) Render(w io.Writer) {
	chart := report.StackedChart{Title: "Figure 8: kernel-side CPU utilization, direct SSD->NIC", Unit: "% of all cores"}
	for _, k := range f.Configs {
		chart.Bars = append(chart.Bars, report.BusyBar(k.String(), f.Busy[k], f.Window, f.Cores))
	}
	chart.Render(w)
}

// Figure12 is the scale-out-application CPU comparison.
type Figure12 struct {
	Swift map[core.Config]apps.SwiftResult
	HDFS  map[core.Config]apps.HDFSResult
	Cores int
	// CPUReduction is DCS-ctrl's total-CPU saving vs SW-ctrl P2P at
	// matched throughput (Swift), the paper's 52% headline.
	CPUReduction float64
}

// SwiftConfigs and HDFSConfigs list the compared designs.
var Fig12Configs = []core.Config{core.SWOpt, core.SWP2P, core.DCSCtrl}

// RunFigure12Parallel fans the experiment's application×config cells
// (Swift and HDFS on every design, six independent clusters) across
// up to workers goroutines.
func RunFigure12Parallel(swiftCfg apps.SwiftConfig, hdfsCfg apps.HDFSConfig, workers int) Figure12 {
	f := Figure12{
		Swift: map[core.Config]apps.SwiftResult{},
		HDFS:  map[core.Config]apps.HDFSResult{},
		Cores: core.DefaultParams().Host.Cores,
	}
	n := len(Fig12Configs)
	swiftOut := make([]apps.SwiftResult, n)
	hdfsOut := make([]apps.HDFSResult, n)
	errs := make([]error, 2*n)
	ParallelFor(2*n, workers, func(i int) {
		k := Fig12Configs[i%n]
		env := sim.NewEnv()
		if i < n {
			cl := core.NewCluster(env, k, core.DefaultParams())
			swiftOut[i], errs[i] = apps.RunSwift(env, cl, swiftCfg)
		} else {
			cl := core.NewClusterWithClient(env, k, k, core.DefaultParams())
			hdfsOut[i-n], errs[i] = apps.RunHDFS(env, cl, hdfsCfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	for i, k := range Fig12Configs {
		f.Swift[k] = swiftOut[i]
		f.HDFS[k] = hdfsOut[i]
	}
	if p2p := f.Swift[core.SWP2P]; p2p.ServerCPU > 0 {
		f.CPUReduction = 1 - f.Swift[core.DCSCtrl].ServerCPU/p2p.ServerCPU
	}
	return f
}

// Render writes both application charts.
func (f Figure12) Render(w io.Writer) {
	sw := report.StackedChart{Title: "Figure 12a: Swift server CPU utilization (iso-load)", Unit: "% of all cores"}
	for _, k := range Fig12Configs {
		r := f.Swift[k]
		sw.Bars = append(sw.Bars, report.BusyBar(
			fmt.Sprintf("%s (%.1f Gbps)", k, r.Gbps), r.ServerBusy, r.Elapsed, f.Cores))
	}
	sw.Render(w)
	hd := report.StackedChart{Title: "Figure 12b: HDFS balancer CPU utilization (iso-bandwidth)", Unit: "% of all cores"}
	for _, k := range Fig12Configs {
		r := f.HDFS[k]
		hd.Bars = append(hd.Bars, report.BusyBar(
			fmt.Sprintf("%s sender (%.1f Gbps)", k, r.Gbps), r.SenderBusy, r.Elapsed, f.Cores))
		hd.Bars = append(hd.Bars, report.BusyBar(
			fmt.Sprintf("%s receiver", k), r.ReceiverBusy, r.Elapsed, f.Cores))
	}
	hd.Render(w)
	fmt.Fprintf(w, "  DCS-ctrl Swift CPU reduction vs SW-ctrl P2P: %s (paper: ~52%%)\n\n",
		report.Pct(f.CPUReduction))
}

// Figure13 projects the measured operating points to a 40-Gbps NIC
// and six SSDs on one 6-core CPU.
type Figure13 struct {
	SwiftCores map[core.Config]float64 // cores needed at 40 Gbps
	HDFSCores  map[core.Config]float64
	SwiftMax   map[core.Config]float64 // max Gbps with 6 cores
	HDFSMax    map[core.Config]float64
	// Throughput gains of DCS-ctrl over SW-ctrl P2P under the core
	// budget (paper: 1.95x Swift, 2.06x HDFS).
	SwiftGain, HDFSGain float64
}

// ProjectFigure13 derives the projection from Figure 12 measurements.
func ProjectFigure13(f12 Figure12) Figure13 {
	const targetGbps = 40
	const coreBudget = 6
	out := Figure13{
		SwiftCores: map[core.Config]float64{},
		HDFSCores:  map[core.Config]float64{},
		SwiftMax:   map[core.Config]float64{},
		HDFSMax:    map[core.Config]float64{},
	}
	for _, k := range Fig12Configs {
		s := f12.Swift[k]
		if sc, err := core.NewScalability(s.Gbps, s.ServerCPU, f12.Cores); err == nil {
			out.SwiftCores[k] = sc.CoresAt(targetGbps)
			out.SwiftMax[k] = sc.MaxGbps(coreBudget, targetGbps)
		}
		h := f12.HDFS[k]
		// The receiver is the heavier side; project its cost.
		if sc, err := core.NewScalability(h.Gbps, h.ReceiverCPU, f12.Cores); err == nil {
			out.HDFSCores[k] = sc.CoresAt(targetGbps)
			out.HDFSMax[k] = sc.MaxGbps(coreBudget, targetGbps)
		}
	}
	if v := out.SwiftMax[core.SWP2P]; v > 0 {
		out.SwiftGain = out.SwiftMax[core.DCSCtrl] / v
	}
	if v := out.HDFSMax[core.SWP2P]; v > 0 {
		out.HDFSGain = out.HDFSMax[core.DCSCtrl] / v
	}
	return out
}

// Render writes the projection tables.
func (f Figure13) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 13: projected CPU demand at 40 Gbps (6 SSDs, 6-core CPU)",
		Headers: []string{"design", "Swift cores@40G", "Swift max Gbps", "HDFS cores@40G", "HDFS max Gbps"},
	}
	for _, k := range Fig12Configs {
		t.AddRow(k.String(),
			fmt.Sprintf("%.2f", f.SwiftCores[k]),
			fmt.Sprintf("%.1f", f.SwiftMax[k]),
			fmt.Sprintf("%.2f", f.HDFSCores[k]),
			fmt.Sprintf("%.1f", f.HDFSMax[k]))
	}
	t.Render(w)
	fmt.Fprintf(w, "  iso-CPU throughput gain, DCS-ctrl vs SW-ctrl P2P: Swift %.2fx (paper 1.95x), HDFS %.2fx (paper 2.06x)\n\n",
		f.SwiftGain, f.HDFSGain)
}

// DefaultFig12Swift returns the Swift config used by the harness.
func DefaultFig12Swift() apps.SwiftConfig {
	cfg := apps.DefaultSwiftConfig()
	cfg.Conns = 8
	cfg.MeanGap = 250 * sim.Microsecond
	cfg.Duration = 25 * sim.Millisecond
	cfg.Sizes = workload.DropboxSizes()
	return cfg
}

// DefaultFig12HDFS returns the HDFS config used by the harness.
func DefaultFig12HDFS() apps.HDFSConfig {
	cfg := apps.DefaultHDFSConfig()
	cfg.Streams = 4
	cfg.Duration = 25 * sim.Millisecond
	return cfg
}
