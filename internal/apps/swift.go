// Package apps implements the paper's scale-out storage workloads
// (§V-C) on top of the core node API: an OpenStack-Swift-like object
// server (PUT/GET with MD5 integrity, Table II) and an HDFS-balancer-
// like block mover (CRC32 on receive). Each runs on every server
// configuration, so the CPU-utilization comparisons of Figures 12 and
// 13 fall directly out of the host accounting.
package apps

import (
	"encoding/binary"
	"fmt"

	"dcsctrl/internal/core"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
	"dcsctrl/internal/workload"
)

// SwiftConfig drives the object-storage experiment.
type SwiftConfig struct {
	Conns      int     // concurrent client connections
	GETRatio   float64 // fraction of GET requests
	Sizes      *workload.SizeDist
	Seed       uint64
	MeanGap    sim.Time        // per-connection mean inter-request gap (Poisson)
	Warmup     sim.Time        // excluded from measurement
	Duration   sim.Time        // measured window
	Processing core.Processing // intermediate processing (MD5 for Swift)

	// AppCPUPerRequest is the object server's application-level cost
	// per request (authentication, container bookkeeping, response
	// assembly -- Swift is a Python service). It is paid on every
	// configuration: DCS-ctrl replaces the data path, not the request
	// handling, which is why Figure 12a's DCS bar is roughly half the
	// baseline rather than near zero.
	AppCPUPerRequest sim.Time
	// AppRelayBps is the user-space data shuffling rate of the
	// baseline object server (read()/send() through Python buffers);
	// DCS-ctrl's single sendfile-like call eliminates it.
	AppRelayBps float64
}

// DefaultSwiftConfig returns the evaluation setup: Poisson arrivals,
// Dropbox sizes, MD5 integrity.
func DefaultSwiftConfig() SwiftConfig {
	return SwiftConfig{
		Conns:      8,
		GETRatio:   0.67,
		Sizes:      workload.DropboxSizes(),
		Seed:       1,
		MeanGap:    400 * sim.Microsecond,
		Warmup:     2 * sim.Millisecond,
		Duration:   30 * sim.Millisecond,
		Processing: core.ProcMD5,

		AppCPUPerRequest: 370 * sim.Microsecond,
		AppRelayBps:      17.2e9,
	}
}

// SwiftResult summarizes a run.
type SwiftResult struct {
	Requests   int
	GETs, PUTs int
	Bytes      int64
	Elapsed    sim.Time
	// Server CPU busy time per category over the measured window.
	ServerBusy map[trace.Category]sim.Time
	ServerCPU  float64 // total utilization across all server cores
	Gbps       float64 // delivered payload throughput
	Errors     int
	// Client-observed request latencies (µs) within the window.
	GETLatency trace.Sample
	PUTLatency trace.Sample
}

// request wire format on the control connection: kind(1) pad(3)
// size(4) id(8).
const reqSize = 16

func encodeReq(kind workload.OpKind, size int, id uint64) []byte {
	b := make([]byte, reqSize)
	b[0] = byte(kind)
	binary.LittleEndian.PutUint32(b[4:], uint32(size))
	binary.LittleEndian.PutUint64(b[8:], id)
	return b
}

func decodeReq(b []byte) (workload.OpKind, int, uint64) {
	return workload.OpKind(b[0]), int(binary.LittleEndian.Uint32(b[4:])), binary.LittleEndian.Uint64(b[8:])
}

// relayed reports whether the configuration moves object data through
// user-space buffers (the paper's software baselines).
func relayed(k core.Config) bool {
	return k == core.Vanilla || k == core.SWOpt || k == core.SWP2P
}

// periodic returns the n-byte object pattern byte(i*mul + add). It
// repeats every 256 bytes, so one period is filled and then doubled
// with copy.
func periodic(n, mul, add int) []byte {
	b := make([]byte, n)
	for i := range min(n, 256) {
		b[i] = byte(i*mul + add)
	}
	for done := 256; done < n; done *= 2 {
		copy(b[done:], b[:done])
	}
	return b
}

// swiftPair is one client connection pair with its staged objects.
type swiftPair struct {
	ctrl, data core.Conn
	getFile    *hostos.File
	putFile    *hostos.File
}

// SwiftSession is a prepared Swift workload: files staged and
// connections opened, with no simulation processes spawned yet. The
// split from RunSwift exists for checkpoint/restore (DESIGN.md §17):
// a warm-fork experiment prepares a session, runs a warm phase to
// full quiescence, snapshots the cluster, and then runs measured
// phases — either straight through or forked from the snapshot into
// a freshly prepared, identically configured session. Each phase
// spawns its own server/client/measure processes and drains them
// completely, so phase boundaries are checkpointable instants.
type SwiftSession struct {
	env     *sim.Env
	cl      *core.Cluster
	cfg     SwiftConfig
	pairs   []*swiftPair
	maxSize int
	phase   int // completed RunPhase calls; offsets per-phase RNG seeds
}

// phaseSeedStride separates the RNG streams of successive phases: a
// restored session replays phase k with the same seeds whether or not
// earlier phases ran in this process.
const phaseSeedStride = 1_000_003

// PrepareSwift stages the workload's files and connections without
// spawning any processes. The resulting session is at a quiescent
// configuration point: identical Prepare calls on identical clusters
// produce identical setup state, which is what Cluster.Restore
// verifies against.
func PrepareSwift(env *sim.Env, cl *core.Cluster, cfg SwiftConfig) (*SwiftSession, error) {
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("apps: need at least one connection")
	}
	maxSize := 0
	for _, b := range cfg.Sizes.Buckets {
		if b.Max > maxSize {
			maxSize = b.Max
		}
	}
	s := &SwiftSession{env: env, cl: cl, cfg: cfg, maxSize: maxSize}
	content := periodic(maxSize, 31, 0)
	s.pairs = make([]*swiftPair, cfg.Conns)
	for i := range s.pairs {
		getF, err := cl.Server.StageFile(fmt.Sprintf("vol-get-%d", i), content)
		if err != nil {
			return nil, err
		}
		putF, err := cl.Server.CreateFile(fmt.Sprintf("vol-put-%d", i), maxSize)
		if err != nil {
			return nil, err
		}
		s.pairs[i] = &swiftPair{
			ctrl:    cl.OpenConn(false),
			data:    cl.OpenConn(true),
			getFile: getF,
			putFile: putF,
		}
	}
	return s, nil
}

// Phase returns how many phases have completed.
func (s *SwiftSession) Phase() int { return s.phase }

// SetPhase declares that k phases already ran — against a restored
// cluster, where the warm phase happened in the checkpointed process.
// The next RunPhase then draws the same seeds the straight-through
// run's phase k would.
func (s *SwiftSession) SetPhase(k int) { s.phase = k }

// RunPhase runs one complete load phase — servers, Poisson clients,
// measurement window — and drains it: when it returns, every phase
// process has exited and the environment is quiescent, so the cluster
// may be snapshotted. warmup is excluded from measurement; duration
// is the measured window.
func (s *SwiftSession) RunPhase(warmup, duration sim.Time) (SwiftResult, error) {
	return s.RunPhaseSeed(warmup, duration, s.cfg.Seed+uint64(s.phase)*phaseSeedStride)
}

// RunPhaseSeed is RunPhase with an explicit seed for the phase's RNG
// streams. Warm-fork grids use it so the warm phase (and therefore
// the shared checkpoint) is seed-independent while each measured cell
// draws its own arrival and size streams.
func (s *SwiftSession) RunPhaseSeed(warmup, duration sim.Time, phaseSeed uint64) (SwiftResult, error) {
	env, cl, cfg := s.env, s.cl, s.cfg
	res := SwiftResult{ServerBusy: map[trace.Category]sim.Time{}}
	s.phase++

	stop := false
	measuring := false

	// Server: one handler process per connection pair.
	for _, pr := range s.pairs {
		pr := pr
		env.Spawn("swift-server", func(p *sim.Proc) {
			for {
				req := cl.ServerRecv(p, nil, pr.ctrl, reqSize)
				kind, size, id := decodeReq(req)
				if id == ^uint64(0) {
					return // shutdown
				}
				// Application-level request handling (all configurations).
				cl.Server.Host.Exec(p, trace.CatUser, cfg.AppCPUPerRequest, nil)
				if relayed(cl.Server.Kind) && cfg.AppRelayBps > 0 {
					// Baselines shuffle the object through user space.
					cl.Server.Host.Exec(p, trace.CatUser, sim.BpsToTime(size, cfg.AppRelayBps), nil)
				}
				var err error
				if kind == workload.OpGET {
					_, err = cl.Server.SendFileOp(p, pr.getFile, 0, size, pr.data.ID, cfg.Processing)
				} else {
					// 100-continue: tell the client to start the body only
					// once the receive path is about to be armed, so body
					// bytes never pile up unclaimed (Swift's real PUT path
					// uses Expect: 100-continue the same way).
					cl.ServerSend(p, nil, pr.ctrl, make([]byte, reqSize))
					_, err = cl.Server.RecvFileOp(p, pr.data.ID, pr.putFile, 0, size, cfg.Processing)
				}
				status := []byte{0}
				if err != nil {
					status[0] = 1
					res.Errors++
				}
				ack := make([]byte, reqSize)
				copy(ack, status)
				cl.ServerSend(p, nil, pr.ctrl, ack)
			}
		})
	}

	// Clients: Poisson arrivals per connection. Every PUT body is a
	// prefix of one zero buffer that nothing writes.
	mix := workload.NewMix(phaseSeed, cfg.Sizes, cfg.GETRatio)
	payload := make([]byte, s.maxSize)
	for i, pr := range s.pairs {
		pr := pr
		seed := phaseSeed + uint64(i)*7919
		env.Spawn("swift-client", func(p *sim.Proc) {
			rng := workload.NewRand(seed)
			var reqID uint64
			for !stop {
				p.Sleep(rng.ExpTime(cfg.MeanGap))
				if stop {
					break
				}
				req := mix.Next()
				reqID++
				t0 := p.Now()
				cl.ClientSend(p, pr.ctrl, encodeReq(req.Kind, req.Size, reqID))
				if req.Kind == workload.OpGET {
					cl.ClientRecv(p, pr.data, req.Size)
				} else {
					cl.ClientRecv(p, pr.ctrl, reqSize) // 100-continue
					cl.ClientSend(p, pr.data, payload[:req.Size])
				}
				cl.ClientRecv(p, pr.ctrl, reqSize)
				if measuring {
					res.Requests++
					res.Bytes += int64(req.Size)
					if req.Kind == workload.OpGET {
						res.GETs++
						res.GETLatency.AddTime(p.Now() - t0)
					} else {
						res.PUTs++
						res.PUTLatency.AddTime(p.Now() - t0)
					}
				}
			}
			// Shut the server handler down.
			cl.ClientSend(p, pr.ctrl, encodeReq(workload.OpGET, 0, ^uint64(0)))
		})
	}

	// Measurement window control.
	env.Spawn("swift-measure", func(p *sim.Proc) {
		p.Sleep(warmup)
		cl.Server.Host.Acct.Reset()
		measuring = true
		p.Sleep(duration)
		measuring = false
		acct := cl.Server.Host.Acct
		for _, cat := range acct.Categories() {
			res.ServerBusy[cat] = acct.Busy(cat)
		}
		res.ServerCPU = cl.Server.Host.Utilization()
		res.Elapsed = acct.Window()
		stop = true
	})

	env.Run(-1)
	if res.Elapsed > 0 {
		res.Gbps = float64(res.Bytes) * 8 / res.Elapsed.Seconds() / 1e9
	}
	return res, nil
}

// RunSwift executes the Swift workload on the cluster and returns the
// measured server-side results. It runs the simulation to completion.
// Equivalent to PrepareSwift followed by one RunPhase — the two-call
// form exists for checkpoint/restore experiments.
func RunSwift(env *sim.Env, cl *core.Cluster, cfg SwiftConfig) (SwiftResult, error) {
	s, err := PrepareSwift(env, cl, cfg)
	if err != nil {
		return SwiftResult{}, err
	}
	return s.RunPhase(cfg.Warmup, cfg.Duration)
}
