// Command dcsbench regenerates the paper's tables and figures on the
// simulated testbed and prints them, plus a paper-vs-measured summary
// of the headline claims.
//
// Usage:
//
//	dcsbench                  # run everything, serially
//	dcsbench -parallel 8      # fan independent trial cells over 8 workers
//	dcsbench -only fig11a,table4
//	dcsbench -only warmfork   # warm-fork grid, both ways, with per-cell verdicts
//	dcsbench -list            # show available experiment ids
//	dcsbench -benchjson BENCH_kernel.json   # emit kernel + wall-time perf report
//	dcsbench -dataplanejson BENCH_dataplane.json   # emit data-plane ns/op + allocs/op report
//	dcsbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment output is byte-identical at every -parallel value:
// results are keyed by trial-cell index, never by completion order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dcsctrl/internal/bench"
	"dcsctrl/internal/sim/snap"
)

var experiments = []string{
	"table1", "table2", "table3", "table4",
	"fig2", "fig3", "fig8", "fig11a", "fig11b", "fig12", "fig13", "fig13sim", "sweep",
	"faults", "rack", "warmfork", "headlines",
}

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", 1, "worker goroutines per experiment (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file")
	benchjson := flag.String("benchjson", "", "write a kernel+wall-time perf report (BENCH_kernel.json) to this file")
	dataplanejson := flag.String("dataplanejson", "", "write the data-plane microbenchmark report (BENCH_dataplane.json) to this file")
	nodes := flag.Int("nodes", 64, "rack experiment: node count")
	domains := flag.Int("domains", 4, "rack experiment: shard domains (1 = serial reference)")
	checkpoint := flag.String("checkpoint", "", "write a warm checkpoint artifact (gzip) to this file or directory and exit")
	restore := flag.String("restore", "", "restore a checkpoint artifact, verify the round-trip byte-for-byte, and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments, "\n"))
		return
	}

	// Checkpoint artifact modes run alone: they exist for CI's
	// golden-artifact gate and for warm-forking across processes.
	if *checkpoint != "" {
		cfg := bench.DefaultWarmForkConfig()
		data, err := bench.BuildWarmCheckpoint(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: checkpoint: %v\n", err)
			os.Exit(1)
		}
		path, err := bench.WriteCheckpointArtifact(*checkpoint, cfg.Kind.String(), data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dcsbench: wrote %s (%d bytes uncompressed, hash %s)\n", path, len(data), snap.ContentHash(data))
		return
	}
	if *restore != "" {
		data, err := bench.ReadCheckpointArtifact(*restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: restore: %v\n", err)
			os.Exit(1)
		}
		if err := bench.VerifyCheckpoint(bench.DefaultWarmForkConfig(), data); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: restore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dcsbench: %s verified (%d bytes, hash %s): restore round-trips byte-for-byte and matches the regenerated warm state\n",
			*restore, len(data), snap.ContentHash(data))
		return
	}

	want := map[string]bool{}
	if *only == "" {
		for _, e := range experiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*only, ",") {
			e = strings.TrimSpace(e)
			ok := false
			for _, known := range experiments {
				if e == known {
					ok = true
				}
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "dcsbench: unknown experiment %q (try -list)\n", e)
				os.Exit(2)
			}
			want[e] = true
		}
	}
	workers := bench.Workers(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// The perf report runs the kernel microbenchmarks up front (before
	// any experiment warms the heap) and then accumulates per-figure
	// wall times as the experiments run.
	var perf *bench.PerfReport
	timed := func(name string, fn func()) {
		if perf != nil {
			perf.Time(name, fn)
		} else {
			fn()
		}
	}
	if *benchjson != "" {
		perf = bench.NewPerfReport(workers)
		perf.MeasureProtocols()
	}
	if *dataplanejson != "" {
		dp := bench.NewDataplaneReport()
		if err := dp.WriteJSON(*dataplanejson); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dcsbench: wrote data-plane report to %s\n", *dataplanejson)
	}

	w := os.Stdout

	if want["table1"] {
		bench.Table1(w)
	}
	if want["table2"] {
		bench.Table2(w)
	}
	if want["table3"] {
		bench.Table3(w)
	}
	if want["table4"] {
		bench.Table4(w)
	}
	if want["fig2"] {
		bench.RenderTimeline(w, bench.Figure2Timeline())
	}
	if want["fig3"] {
		timed("fig3", func() { bench.RunFigure3Parallel(workers).Render(w) })
	}
	if want["fig8"] {
		timed("fig8", func() { bench.RunFigure8Parallel(workers).Render(w) })
	}

	var f11a, f11b bench.Figure11
	if want["fig11a"] || want["headlines"] {
		timed("fig11a", func() { f11a = bench.Figure11aParallel(workers) })
		if want["fig11a"] {
			f11a.Render(w)
		}
	}
	if want["fig11b"] || want["headlines"] {
		timed("fig11b", func() { f11b = bench.Figure11bParallel(workers) })
		if want["fig11b"] {
			f11b.Render(w)
		}
	}

	var f12 bench.Figure12
	var f13 bench.Figure13
	if want["fig12"] || want["fig13"] || want["headlines"] {
		timed("fig12", func() {
			f12 = bench.RunFigure12Parallel(bench.DefaultFig12Swift(), bench.DefaultFig12HDFS(), workers)
		})
		if want["fig12"] {
			f12.Render(w)
		}
		f13 = bench.ProjectFigure13(f12)
		if want["fig13"] {
			f13.Render(w)
		}
	}
	if want["fig13sim"] {
		timed("fig13sim", func() { bench.RunFigure13SimParallel(workers).Render(w) })
	}
	if want["sweep"] {
		timed("sweep", func() {
			bench.RunSizeSweepParallel(0, workers).Render(w) // ProcNone
			bench.RunSizeSweepParallel(bench.ProcMD5, workers).Render(w)
		})
	}
	if want["faults"] {
		timed("faults", func() { bench.RunFaultMatrixParallel(workers).Render(w) })
	}
	if want["rack"] {
		// The rack cell is itself parallel (shard kernel); run it alone
		// and record serial-vs-sharded in the perf report when one is
		// being written, otherwise just render the sharded run.
		timed("rack", func() {
			if perf != nil {
				perf.MeasureRacks(*nodes, *domains)
				for _, rp := range perf.Racks {
					fmt.Fprintf(w, "rack %-22s wall %8.1f ms  windows %7d  par %7d  speedup %.2fx  fp %s\n",
						rp.Name, rp.WallMs, rp.Windows, rp.ParWindows, rp.SpeedupVs1, rp.Fingerprint)
				}
			} else {
				res := bench.RunRack(bench.RackConfig{
					Nodes: *nodes, Domains: *domains,
					Workers: bench.IntraRunWorkers(1, *domains),
				})
				fmt.Fprint(w, res.Render())
			}
		})
	}
	if want["warmfork"] || perf != nil {
		// The warm-fork grid renders as an experiment and doubles as
		// the perf report's checkpoint section; run it once for both.
		timed("warmfork", func() {
			cfg := bench.DefaultWarmForkConfig()
			cfg.Workers = workers
			res, err := bench.RunWarmForkGrid(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcsbench: warmfork: %v\n", err)
				os.Exit(1)
			}
			if want["warmfork"] {
				res.Render(w)
			}
			if perf != nil {
				perf.RecordCheckpoint(res)
			}
		})
	}
	if want["headlines"] {
		bench.Headlines(f11a, f11b, f12, f13).Render(w)
	}

	if perf != nil {
		perf.CompareSweep(workers)
		if err := perf.WriteJSON(*benchjson); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dcsbench: wrote perf report to %s\n", *benchjson)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
	}
}
