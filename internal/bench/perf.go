package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

// Perf tracking for the kernel fast path and the parallel runner.
// cmd/dcsbench emits this as BENCH_kernel.json so every PR leaves a
// machine-readable perf trajectory behind: if ns/event or allocs/event
// regress, the next session sees it in the artifact diff.

// KernelStats is one kernel microbenchmark measurement. The dispatch
// counters (parks, handoffs, handler dispatches) make the park/resume
// handoff tax a first-class measured quantity: HandoffsPerEvent is
// what benchdiff's regression gate watches.
type KernelStats struct {
	Events            uint64  `json:"events"`
	WallNs            int64   `json:"wall_ns"`
	NsPerEvent        float64 `json:"ns_per_event"`
	EventsPerSec      float64 `json:"events_per_sec"`
	AllocsPerEvent    float64 `json:"allocs_per_event"`
	BytesPerEvent     float64 `json:"bytes_per_event"`
	Parks             uint64  `json:"parks"`
	Handoffs          uint64  `json:"handoffs"`
	HandlerDispatches uint64  `json:"handler_dispatches"`
	HandoffsPerEvent  float64 `json:"handoffs_per_event"`
}

// measureKernel runs fn (which must dispatch through env) and derives
// per-event rates from the wall clock and allocator deltas.
func measureKernel(env *sim.Env, fn func()) KernelStats {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	events := env.Steps()
	es := env.Stats()
	st := KernelStats{Events: events, WallNs: wall.Nanoseconds(),
		Parks: es.Parks, Handoffs: es.Handoffs, HandlerDispatches: es.HandlerDispatches}
	if events > 0 {
		st.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		st.EventsPerSec = float64(events) / wall.Seconds()
		st.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		st.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
		st.HandoffsPerEvent = float64(es.Handoffs) / float64(events)
	}
	return st
}

// MeasureKernelSchedule measures the pure timer path: n callbacks at
// staggered future instants, batch-dispatched (the event-heap path).
func MeasureKernelSchedule(n int) KernelStats {
	env := sim.NewEnv()
	nop := func() {}
	return measureKernel(env, func() {
		const batch = 4096
		for done := 0; done < n; done += batch {
			for j := 0; j < batch; j++ {
				env.Schedule(sim.Time(1+(j*37)%977), nop)
			}
			env.Run(-1)
		}
	})
}

// MeasureKernelParkResume measures the process handoff path: two
// processes ping-ponging through Yield (the FIFO-lane + direct-handoff
// path).
func MeasureKernelParkResume(n int) KernelStats {
	env := sim.NewEnv()
	for k := 0; k < 2; k++ {
		env.Spawn("pp", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Yield()
			}
		})
	}
	return measureKernel(env, func() { env.Run(-1) })
}

// MeasureKernelParkResumeHandler is the same ping-pong workload as
// MeasureKernelParkResume expressed as handler procs: each Yield
// becomes a same-instant Rearm, so the event count matches and the
// wall-clock delta is pure dispatch-flavor cost — the handoff tax the
// handler kernel eliminates (DESIGN.md §16).
func MeasureKernelParkResumeHandler(n int) KernelStats {
	env := sim.NewEnv()
	for k := 0; k < 2; k++ {
		i := 0
		env.SpawnHandler("pp", func(h *sim.HandlerCtx) {
			if i >= n/2 {
				h.Exit()
				return
			}
			i++
			h.Rearm(0)
		})
	}
	return measureKernel(env, func() { env.Run(-1) })
}

// ProtocolStats is the event economy of one deterministic protocol
// cell: total dispatched kernel events, fused (inlined) continuations,
// host-visible I/O completions, and the headline events-per-I/O ratio
// the batched protocol pipelines optimize.
type ProtocolStats struct {
	Name        string  `json:"name"`
	Events      uint64  `json:"events"`
	Fused       uint64  `json:"fused"`
	IOs         uint64  `json:"ios"`
	EventsPerIO float64 `json:"events_per_io"`
}

// MeasureProtocol runs a fixed GET-style stream (ops transfers of size
// bytes over one connection) under cfg and returns the kernel's event
// accounting. The cell is deterministic, so the counts are exact and
// diffable across commits.
func MeasureProtocol(name string, cfg core.Config, ops, size int) ProtocolStats {
	env := sim.NewEnv()
	cl := core.NewCluster(env, cfg, core.DefaultParams())
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i * 7)
	}
	f, err := cl.Server.StageFile("obj", content)
	if err != nil {
		panic(err)
	}
	conn := cl.OpenConn(true)
	env.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			if _, err := cl.Server.SendFileOp(p, f, 0, size, conn.ID, core.ProcNone); err != nil {
				panic(err)
			}
		}
	})
	env.Spawn("client", func(p *sim.Proc) { cl.ClientRecv(p, conn, ops*size) })
	env.Run(-1)
	st := env.Stats()
	return ProtocolStats{
		Name:        name,
		Events:      st.Events,
		Fused:       st.Fused,
		IOs:         st.IOs,
		EventsPerIO: st.EventsPerIO(),
	}
}

// FigureTiming is the wall-clock cost of one regenerated experiment.
type FigureTiming struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
}

// SweepComparison records the serial-vs-parallel wall clock of the
// full size sweep, the headline number for the parallel runner.
type SweepComparison struct {
	Workers    int     `json:"workers"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// RackPerf is one rack workload measurement: wall-clock rates plus the
// shard kernel's synchronization counters. ParWindows is the
// knob-not-dead signal benchdiff gates on — a multi-domain entry whose
// ParWindows is zero ran silently serial. Fingerprint is the
// decomposition-invariant result digest: every rack entry with the
// same workload must carry the same fingerprint no matter its domain
// or worker count.
type RackPerf struct {
	Name              string  `json:"name"`
	Nodes             int     `json:"nodes"`
	Domains           int     `json:"domains"`
	Workers           int     `json:"workers"`
	Flows             int     `json:"flows"`
	WallMs            float64 `json:"wall_ms"`
	NsPerFlow         float64 `json:"ns_per_flow"`
	Events            uint64  `json:"events"`
	EventsPerFlow     float64 `json:"events_per_flow"`
	Windows           uint64  `json:"windows"`
	ParWindows        uint64  `json:"par_windows"`
	CrossFrames       uint64  `json:"cross_frames"`
	Parks             uint64  `json:"parks"`
	Handoffs          uint64  `json:"handoffs"`
	HandlerDispatches uint64  `json:"handler_dispatches"`
	HandoffsPerEvent  float64 `json:"handoffs_per_event"`
	MakespanNs        int64   `json:"makespan_ns"`
	Fingerprint       string  `json:"fingerprint"`
	SpeedupVs1        float64 `json:"speedup_vs_1,omitempty"`
}

// PerfReport is the BENCH_kernel.json payload.
type PerfReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`

	KernelSchedule          KernelStats      `json:"kernel_schedule"`
	KernelParkResume        KernelStats      `json:"kernel_park_resume"`
	KernelParkResumeHandler KernelStats      `json:"kernel_park_resume_handler"`
	Protocol                []ProtocolStats  `json:"protocol,omitempty"`
	Figures                 []FigureTiming   `json:"figures,omitempty"`
	Sweep                   *SweepComparison `json:"sweep,omitempty"`
	Racks                   []RackPerf       `json:"racks,omitempty"`
	Checkpoint              *CheckpointPerf  `json:"checkpoint,omitempty"`
}

// CheckpointPerf summarizes the warm-fork grid for BENCH_kernel.json:
// snapshot codec cost, the straight-vs-forked wall clock at equal
// cell count, and the fingerprint verdict. AllMatch is the
// knob-not-dead signal benchdiff gates on — a grid whose forked cells
// diverge (or that ran zero cells) means the restore path is broken
// or dead.
type CheckpointPerf struct {
	Config        string  `json:"config"`
	Cells         int     `json:"cells"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	SaveNs        int64   `json:"save_ns"`
	RestoreNs     int64   `json:"restore_ns"` // mean per-cell restore
	StraightMs    float64 `json:"straight_ms"`
	ForkedMs      float64 `json:"forked_ms"`
	Speedup       float64 `json:"speedup"`
	AllMatch      bool    `json:"all_match"`
}

// RecordCheckpoint folds a warm-fork grid result into the report.
func (r *PerfReport) RecordCheckpoint(res WarmForkResult) {
	cp := &CheckpointPerf{
		Config:        res.Config,
		Cells:         len(res.Cells),
		SnapshotBytes: res.SnapshotBytes,
		SaveNs:        res.SaveNs,
		StraightMs:    res.StraightMs,
		ForkedMs:      res.ForkedMs,
		Speedup:       res.Speedup,
		AllMatch:      res.AllMatch && len(res.Cells) > 0,
	}
	for _, c := range res.Cells {
		cp.RestoreNs += c.RestoreNs
	}
	if len(res.Cells) > 0 {
		cp.RestoreNs /= int64(len(res.Cells))
	}
	r.Checkpoint = cp
}

// NewPerfReport runs the kernel microbenchmarks and returns a report
// ready to accumulate figure timings.
func NewPerfReport(workers int) *PerfReport {
	const events = 1 << 20
	return &PerfReport{
		GoMaxProcs:              runtime.GOMAXPROCS(0),
		NumCPU:                  runtime.NumCPU(),
		Workers:                 workers,
		GoVersion:               runtime.Version(),
		KernelSchedule:          MeasureKernelSchedule(events),
		KernelParkResume:        MeasureKernelParkResume(events),
		KernelParkResumeHandler: MeasureKernelParkResumeHandler(events),
	}
}

// MeasureProtocols records the event economy of the hot protocol
// configurations: one 16-op 64 KB GET stream per config.
func (r *PerfReport) MeasureProtocols() {
	const ops, size = 16, 64 << 10
	for _, cfg := range []core.Config{core.SWP2P, core.DCSCtrl} {
		r.Protocol = append(r.Protocol, MeasureProtocol(cfg.String(), cfg, ops, size))
	}
}

// Time runs fn and records its wall clock under name.
func (r *PerfReport) Time(name string, fn func()) {
	start := time.Now()
	fn()
	r.Figures = append(r.Figures, FigureTiming{
		Name:   name,
		WallMs: float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// CompareSweep measures the full size sweep serially and with workers
// goroutines and records the speedup.
func (r *PerfReport) CompareSweep(workers int) {
	// Warm the allocator and OS page cache first so the serial run
	// (measured before the parallel one) isn't charged for first-touch
	// costs the parallel run then inherits for free.
	RunSizeSweepParallel(0, 1)
	start := time.Now()
	RunSizeSweepParallel(0, 1) // ProcNone
	serial := time.Since(start)
	cmp := &SweepComparison{
		Workers:  EffectiveWorkers(workers, workers),
		SerialMs: float64(serial.Nanoseconds()) / 1e6,
	}
	if cmp.Workers <= 1 {
		// The GOMAXPROCS clamp degenerates the "parallel" sweep to the
		// identical serial loop; measuring the same code twice would
		// report run-to-run GC jitter as a speedup or slowdown.
		cmp.ParallelMs = cmp.SerialMs
		cmp.Speedup = 1
	} else {
		start = time.Now()
		RunSizeSweepParallel(0, workers)
		par := time.Since(start)
		cmp.ParallelMs = float64(par.Nanoseconds()) / 1e6
		if par > 0 {
			cmp.Speedup = float64(serial) / float64(par)
		}
	}
	r.Sweep = cmp
}

// rackPerfFrom flattens one rack run into its report entry.
func rackPerfFrom(res RackResult) RackPerf {
	st := res.ShardStats
	rp := RackPerf{
		Name:              fmt.Sprintf("rack_%s_%dx%d", res.Config.Pattern, res.Config.Nodes, st.Domains),
		Nodes:             res.Config.Nodes,
		Domains:           st.Domains,
		Workers:           st.Workers,
		Flows:             res.Flows,
		WallMs:            res.WallSeconds * 1e3,
		Events:            res.Events,
		Windows:           st.Windows,
		ParWindows:        st.ParWindows,
		CrossFrames:       st.CrossFrames,
		Parks:             st.Parks,
		Handoffs:          st.Handoffs,
		HandlerDispatches: st.HandlerDispatches,
		MakespanNs:        int64(res.Makespan),
		Fingerprint:       res.Fingerprint(),
	}
	if res.Flows > 0 {
		rp.NsPerFlow = res.WallSeconds * 1e9 / float64(res.Flows)
		rp.EventsPerFlow = float64(res.Events) / float64(res.Flows)
	}
	if res.Events > 0 {
		rp.HandoffsPerEvent = float64(st.Handoffs) / float64(res.Events)
	}
	return rp
}

// MeasureRacks runs the headline rack workload (all-to-all, the
// event-dense pattern) serial and sharded, and records both entries.
// The serial run is the reference schedule; the sharded run must
// reproduce its fingerprint exactly, and its SpeedupVs1 is the
// parallel kernel's headline number. The rack cell runs alone (outer
// worker count 1), so its shard pool gets the whole GOMAXPROCS
// budget via IntraRunWorkers — results are worker-count-invariant,
// only the wall clock cares.
func (r *PerfReport) MeasureRacks(nodes, domains int) {
	serial := RunRack(RackConfig{Nodes: nodes, Domains: 1})
	r.Racks = append(r.Racks, rackPerfFrom(serial))
	if domains > 1 {
		sharded := RunRack(RackConfig{Nodes: nodes, Domains: domains, Workers: IntraRunWorkers(1, domains)})
		rp := rackPerfFrom(sharded)
		if sharded.WallSeconds > 0 {
			rp.SpeedupVs1 = serial.WallSeconds / sharded.WallSeconds
		}
		if rp.Fingerprint != r.Racks[len(r.Racks)-1].Fingerprint {
			panic(fmt.Sprintf("bench: sharded rack fingerprint %s != serial %s (determinism violation)",
				rp.Fingerprint, r.Racks[len(r.Racks)-1].Fingerprint))
		}
		r.Racks = append(r.Racks, rp)
	}
}

// WriteJSON writes the report to path.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
