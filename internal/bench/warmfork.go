package bench

import (
	"fmt"
	"io"
	"time"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Warm-fork experiment grids (DESIGN.md §17). An experiment grid
// re-simulates the same warm-up phase for every (config, seed) cell
// even though the warm phase is cell-invariant: arrival seeds only
// matter inside the measured window. Warm-forking runs the warm phase
// once per configuration, checkpoints the quiescent cluster, and
// forks every measured cell from the shared snapshot — the snapshot
// is a read-only byte slice, so cells restore in parallel. The grid
// verifies, per cell, that the forked continuation's fingerprint is
// byte-identical to a straight-through run of warm + measured in one
// process.

// WarmForkConfig parameterizes one warm-fork grid.
type WarmForkConfig struct {
	Kind    core.Config
	Seeds   []uint64 // one measured cell per seed
	Profile string   // fault profile name ("", "none", "light", "heavy")

	WarmDuration sim.Time // warm-phase load window (checkpointed after drain)
	Duration     sim.Time // measured window per cell
	Conns        int      // connection pairs (0: DefaultSwiftConfig's)

	Workers int // parallel cell workers (0: serial)
}

// DefaultWarmForkConfig returns the CI grid: a DCS-ctrl server, six
// seeds, a warm phase eight times the measured window. That ratio is
// the regime experiment grids actually run in — load the system to
// steady state once, then measure many short windows — and the regime
// where forking pays: the straight side re-simulates the warm phase
// per cell, the forked side pays one warm + save plus a per-cell
// restore that costs a fraction of the warm.
func DefaultWarmForkConfig() WarmForkConfig {
	return WarmForkConfig{
		Kind:         core.DCSCtrl,
		Seeds:        []uint64{1, 2, 3, 4, 5, 6},
		WarmDuration: 24 * sim.Millisecond,
		Duration:     2 * sim.Millisecond,
	}
}

// WarmForkCell is one (seed) cell's verdict.
type WarmForkCell struct {
	Seed       uint64  `json:"seed"`
	StraightFP string  `json:"straight_fp"`
	ForkedFP   string  `json:"forked_fp"`
	Match      bool    `json:"match"`
	Requests   int     `json:"requests"`
	StraightMs float64 `json:"straight_ms"`
	ForkedMs   float64 `json:"forked_ms"`
	RestoreNs  int64   `json:"restore_ns"`
}

// WarmForkResult is one grid's outcome.
type WarmForkResult struct {
	Config        string         `json:"config"`
	Profile       string         `json:"profile"`
	Cells         []WarmForkCell `json:"cells"`
	SnapshotBytes int            `json:"snapshot_bytes"`
	SnapshotHash  string         `json:"snapshot_hash"`
	SaveNs        int64          `json:"save_ns"`
	WarmMs        float64        `json:"warm_ms"`
	StraightMs    float64        `json:"straight_ms"`
	ForkedMs      float64        `json:"forked_ms"`
	Speedup       float64        `json:"speedup"`
	AllMatch      bool           `json:"all_match"`
}

// swiftCfgFor builds the grid's workload configuration.
func (c WarmForkConfig) swiftCfg() apps.SwiftConfig {
	scfg := apps.DefaultSwiftConfig()
	if c.Conns > 0 {
		scfg.Conns = c.Conns
	}
	scfg.Warmup = 0 // phases measure from their own start
	scfg.Duration = c.Duration
	return scfg
}

// buildCell constructs a settled, prepared cluster for the grid.
func (c WarmForkConfig) buildCell() (*sim.Env, *core.Cluster, *apps.SwiftSession, error) {
	env := sim.NewEnv()
	params := core.DefaultParams()
	if c.Profile != "" && c.Profile != "none" {
		profile, ok := fault.ProfileByName(c.Profile)
		if !ok {
			return nil, nil, nil, fmt.Errorf("bench: unknown fault profile %q", c.Profile)
		}
		params.Faults = fault.NewInjector(faultMatrixSeed, profile)
	}
	cl := core.NewCluster(env, c.Kind, params)
	sess, err := apps.PrepareSwift(env, cl, c.swiftCfg())
	if err != nil {
		return nil, nil, nil, err
	}
	env.Run(-1) // settle setup-time events to quiescence
	return env, cl, sess, nil
}

// cellFingerprint digests everything a forked continuation must
// reproduce byte-for-byte: the kernel's schedule counters (parks and
// handoffs excluded — goroutine mechanics, not schedule) and the
// workload's observable results.
func cellFingerprint(env *sim.Env, res apps.SwiftResult) string {
	st := env.Stats()
	return snap.ContentHash([]byte(fmt.Sprintf(
		"now=%d events=%d fused=%d ios=%d segs=%d segframes=%d req=%d gets=%d puts=%d bytes=%d errs=%d getlat=%.3f putlat=%.3f elapsed=%d",
		env.Now(), st.Events, st.Fused, st.IOs, st.Segments, st.SegFrames,
		res.Requests, res.GETs, res.PUTs, res.Bytes, res.Errors,
		res.GETLatency.Sum(), res.PUTLatency.Sum(), res.Elapsed)))
}

// warmSeed is the seed of the shared warm phase; it is deliberately
// constant so the checkpoint does not depend on the cell seed.
const warmSeed = 7

// RunWarmForkGrid executes the grid both ways — straight-through and
// warm-forked — and verifies fingerprint equivalence per cell.
func RunWarmForkGrid(cfg WarmForkConfig) (WarmForkResult, error) {
	out := WarmForkResult{Config: cfg.Kind.String(), Profile: cfg.Profile, AllMatch: true}
	if out.Profile == "" {
		out.Profile = "none"
	}

	// Warm once, checkpoint the quiescent cluster.
	warmStart := time.Now()
	_, cl, sess, err := cfg.buildCell()
	if err != nil {
		return out, err
	}
	if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
		return out, err
	}
	out.WarmMs = float64(time.Since(warmStart).Nanoseconds()) / 1e6
	saveStart := time.Now()
	ckpt, err := cl.Snapshot()
	if err != nil {
		return out, err
	}
	out.SaveNs = time.Since(saveStart).Nanoseconds()
	out.SnapshotBytes = len(ckpt)
	out.SnapshotHash = snap.ContentHash(ckpt)

	// Straight-through reference cells: warm + measured in one process.
	out.Cells = make([]WarmForkCell, len(cfg.Seeds))
	ParallelFor(len(cfg.Seeds), cfg.Workers, func(i int) {
		cell := &out.Cells[i]
		cell.Seed = cfg.Seeds[i]
		start := time.Now()
		env, _, s, err := cfg.buildCell()
		if err != nil {
			panic(err)
		}
		if _, err := s.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
			panic(err)
		}
		res, err := s.RunPhaseSeed(0, cfg.Duration, cell.Seed)
		if err != nil {
			panic(err)
		}
		cell.StraightFP = cellFingerprint(env, res)
		cell.Requests = res.Requests
		cell.StraightMs = float64(time.Since(start).Nanoseconds()) / 1e6
	})

	// Forked cells: fresh cluster, restore the shared snapshot, run
	// only the measured window. The snapshot bytes are shared read-only
	// across workers.
	ParallelFor(len(cfg.Seeds), cfg.Workers, func(i int) {
		cell := &out.Cells[i]
		start := time.Now()
		env, cl, s, err := cfg.buildCell()
		if err != nil {
			panic(err)
		}
		restoreStart := time.Now()
		if err := cl.RestoreTrusted(ckpt); err != nil {
			panic(fmt.Sprintf("bench: warm-fork restore (seed %d): %v", cell.Seed, err))
		}
		cell.RestoreNs = time.Since(restoreStart).Nanoseconds()
		s.SetPhase(1) // the warm phase ran in the checkpointed process
		res, err := s.RunPhaseSeed(0, cfg.Duration, cell.Seed)
		if err != nil {
			panic(err)
		}
		cell.ForkedFP = cellFingerprint(env, res)
		cell.ForkedMs = float64(time.Since(start).Nanoseconds()) / 1e6
		cell.Match = cell.ForkedFP == cell.StraightFP
	})

	for i := range out.Cells {
		out.StraightMs += out.Cells[i].StraightMs
		out.ForkedMs += out.Cells[i].ForkedMs
		if !out.Cells[i].Match {
			out.AllMatch = false
		}
	}
	// The fork side pays the warm phase and snapshot once, the straight
	// side once per cell; charge both honestly.
	forkedTotal := out.ForkedMs + out.WarmMs + float64(out.SaveNs)/1e6
	if forkedTotal > 0 {
		out.Speedup = out.StraightMs / forkedTotal
	}
	out.ForkedMs = forkedTotal
	return out, nil
}

// Render writes the grid outcome in the repo's report style.
func (r WarmForkResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Warm-fork grid — %s, %s faults, %d cells\n", r.Config, r.Profile, len(r.Cells))
	fmt.Fprintf(w, "  checkpoint: %d bytes, hash %s, save %.2f ms\n",
		r.SnapshotBytes, r.SnapshotHash, float64(r.SaveNs)/1e6)
	for _, c := range r.Cells {
		verdict := "MATCH"
		if !c.Match {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(w, "  seed %-3d straight %8.2f ms   forked %8.2f ms (restore %.2f ms)  %s %s\n",
			c.Seed, c.StraightMs, c.ForkedMs, float64(c.RestoreNs)/1e6, c.StraightFP, verdict)
	}
	fmt.Fprintf(w, "  straight total %.2f ms, forked total %.2f ms, speedup %.2fx, fingerprints %s\n",
		r.StraightMs, r.ForkedMs, r.Speedup, map[bool]string{true: "all match", false: "DIVERGED"}[r.AllMatch])
}
