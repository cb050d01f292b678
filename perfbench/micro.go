package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

// dataplaneMetrics maps bench.NewDataplaneReport's benches to the
// per-layer metric that reports their ns/op.
var dataplaneMetrics = map[string]string{
	"mem_copy_same_map_4k": "mem.copy_ns",
	"mem_read_into_4k":     "mem.read_into_ns",
	"pcie_dma_4k":          "pcie.dma_ns",
	"hdc_gather_8x512":     "hdc.gather_ns",
	"nvme_read_4k":         "nvme.read_ns",
	"nic_frame_echo":       "nic.echo_ns",
	"nic_bulk_stream_64k":  "nic.bulk_ns",
}

// snapRestores is how many restores the snapshot microbenchmark times.
const snapRestores = 3

// warmSeed is bench's constant warm-phase seed.
const warmSeed uint64 = 7

// warmCell is bench's warm-fork grid cell: a settled DCS-ctrl cluster
// with a prepared Swift session.
type warmCell struct {
	cl   *core.Cluster
	sess *apps.SwiftSession
}

func buildWarmCell(p *pass, cfg bench.WarmForkConfig) (warmCell, error) {
	var c warmCell
	var err error
	p.t.call("perfbench.build_cell", catSetup, 1, func() {
		c.cl = p.newCluster(cfg.Kind, core.SWOpt, core.DefaultParams())
		scfg := apps.DefaultSwiftConfig()
		scfg.Warmup = 0
		scfg.Duration = cfg.Duration
		c.sess, err = traced2(p.t, "apps.PrepareSwift", catPrepare, func() (*apps.SwiftSession, error) {
			return apps.PrepareSwift(c.cl.Env, c.cl, scfg)
		})
		if err == nil {
			p.t.call("sim.Env.Run", catRun, 1, func() { c.cl.Env.Run(-1) })
		}
	})
	return c, err
}

func (c warmCell) runPhase(p *pass, d sim.Time, seed uint64) (apps.SwiftResult, error) {
	return traced2(p.t, "apps.SwiftSession.RunPhaseSeed", catRun, func() (apps.SwiftResult, error) {
		return c.sess.RunPhaseSeed(0, d, seed)
	})
}

// runMicro runs the isolated layer microbenchmarks: the kernel
// dispatch paths, the data-plane hot paths, and one warm-fork
// snapshot saved and restored.
func runMicro(p *pass) (map[string]float64, error) {
	t := p.t
	out := map[string]float64{}
	const events = 1 << 20

	t.cell = "kernel"
	out["sim.schedule_ns"] = traced(t, "bench.MeasureKernelSchedule", catOther, func() bench.KernelStats {
		return bench.MeasureKernelSchedule(events)
	}).NsPerEvent
	out["sim.park_resume_ns"] = traced(t, "bench.MeasureKernelParkResume", catOther, func() bench.KernelStats {
		return bench.MeasureKernelParkResume(events / 4)
	}).NsPerEvent
	out["sim.handler_ns"] = traced(t, "bench.MeasureKernelParkResumeHandler", catOther, func() bench.KernelStats {
		return bench.MeasureKernelParkResumeHandler(events)
	}).NsPerEvent

	t.cell = "dataplane"
	dp := traced(t, "bench.NewDataplaneReport", catOther, bench.NewDataplaneReport)
	for _, b := range dp.Benches {
		if name, ok := dataplaneMetrics[b.Name]; ok {
			out[name] = b.NsPerOp
		}
		if b.Name == "nic_bulk_stream_64k" {
			out["nic.bulk_allocs"] = b.AllocsPerOp
		}
	}

	t.cell = "snap"
	cfg := bench.DefaultWarmForkConfig()
	c, err := buildWarmCell(p, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := c.runPhase(p, cfg.WarmDuration, warmSeed); err != nil {
		return nil, err
	}
	out["snap.warm_s"] = time.Since(start).Seconds()
	start = time.Now()
	ckpt, err := traced2(t, "core.Cluster.Snapshot", catOther, c.cl.Snapshot)
	if err != nil {
		return nil, err
	}
	out["snap.save_s"] = time.Since(start).Seconds()
	out["snap.bytes"] = float64(len(ckpt))
	restores := make([]float64, 0, snapRestores)
	for i := 0; i < snapRestores; i++ {
		fresh, err := buildWarmCell(p, cfg)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if err := traced(t, "core.Cluster.RestoreTrusted", catOther, func() error { return fresh.cl.RestoreTrusted(ckpt) }); err != nil {
			return nil, err
		}
		restores = append(restores, time.Since(start).Seconds())
	}
	out["snap.restore_s"] = median(restores)

	for _, s := range perLayer {
		if _, ok := out[s.Name]; s.Src == srcMicro && !ok {
			return nil, fmt.Errorf("microbenchmark metric %s not measured", s.Name)
		}
	}
	return out, nil
}

func microMain(outdir string) int {
	p := newPass(defaultSeed, newTracer(true))
	out, err := runMicro(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: microbenchmarks: %v\n", err)
		return 1
	}
	p.t.finish()
	if outdir != "" {
		if err := p.t.writeSpans(outdir, fmt.Sprintf("micro-pid%d.json", os.Getpid())); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
