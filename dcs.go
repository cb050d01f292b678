// Package dcsctrl is the public API of the DCS-ctrl testbed: a
// deterministic full-system simulation of the ISCA 2018 paper
// "DCS-ctrl: A Fast and Flexible Device-Control Mechanism for
// Device-Centric Server Architecture" (Kwon et al.).
//
// A Testbed is the paper's two-node setup: a server in one of five
// configurations (stock kernel, optimized kernel, software-controlled
// peer-to-peer, integrated device, or DCS-ctrl with the FPGA-based
// HDC Engine) connected back to back with a client. Multi-device
// tasks — SSD→[NDP]→NIC and NIC→[NDP]→SSD — execute over modelled
// devices that move real bytes: NVMe commands, TCP/IP frames with
// checksums, MD5/CRC32/AES/GZIP transforms.
//
// Quick start:
//
//	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl)
//	f, _ := tb.StageFile("obj", payload)
//	conn := tb.OpenConnection(true)
//	tb.Go("app", func(p *dcsctrl.Proc) {
//	    res, _ := tb.SendFile(p, f, 0, len(payload), conn, dcsctrl.ProcMD5)
//	    fmt.Println(res.Latency, res.Digest)
//	})
//	tb.Go("sink", func(p *dcsctrl.Proc) { tb.ClientRecv(p, conn, len(payload)) })
//	tb.Run()
package dcsctrl

import (
	"fmt"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/fpga"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// Re-exported fundamental types.
type (
	// Config selects a server design.
	Config = core.Config
	// Params bundles every model's calibration parameters.
	Params = core.Params
	// Processing selects intermediate data processing (Table II).
	Processing = core.Processing
	// Proc is a simulation process handle.
	Proc = sim.Proc
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// File is a server-side file (extent-mapped onto the SSD).
	File = hostos.File
	// Conn is an established server↔client connection.
	Conn = core.Conn
	// OpResult is a completed multi-device task.
	OpResult = core.OpResult
	// Category labels where CPU time or latency went.
	Category = trace.Category
	// Breakdown is a per-phase latency decomposition.
	Breakdown = trace.Breakdown
	// SwiftConfig drives the object-storage workload.
	SwiftConfig = apps.SwiftConfig
	// SwiftResult summarizes a Swift run.
	SwiftResult = apps.SwiftResult
	// HDFSConfig drives the balancer workload.
	HDFSConfig = apps.HDFSConfig
	// HDFSResult summarizes a balancer run.
	HDFSResult = apps.HDFSResult
	// Scalability is the Figure 13 projection model.
	Scalability = core.Scalability
	// FaultProfile is a named set of fault-injection rules.
	FaultProfile = fault.Profile
	// FaultInjector draws seed-deterministic fault decisions.
	FaultInjector = fault.Injector
)

// FaultProfileByName resolves a named fault profile ("none", "light",
// "heavy", "engine-fail").
func FaultProfileByName(name string) (FaultProfile, bool) {
	return fault.ProfileByName(name)
}

// FaultProfileNames lists the named fault profiles.
func FaultProfileNames() []string { return fault.ProfileNames() }

// NewFaultInjector builds a deterministic injector for a profile.
func NewFaultInjector(seed uint64, profile FaultProfile) *FaultInjector {
	return fault.NewInjector(seed, profile)
}

// Server configurations.
const (
	Vanilla        = core.Vanilla
	SWOpt          = core.SWOpt
	SWP2P          = core.SWP2P
	DevIntegration = core.DevIntegration
	DCSCtrl        = core.DCSCtrl
)

// Intermediate processing kinds.
const (
	ProcNone   = core.ProcNone
	ProcMD5    = core.ProcMD5
	ProcCRC32  = core.ProcCRC32
	ProcSHA256 = core.ProcSHA256
	ProcAES256 = core.ProcAES256
	ProcGZIP   = core.ProcGZIP
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultParams returns the calibrated parameter set (Table V devices,
// Table III/IV FPGA figures; see EXPERIMENTS.md for provenance).
func DefaultParams() Params { return core.DefaultParams() }

// Testbed is the two-node evaluation platform.
type Testbed struct {
	Env     *sim.Env
	Cluster *core.Cluster

	faults *fault.Injector
}

// Option customizes testbed construction.
type Option func(*options)

type options struct {
	params     Params
	clientKind Config
	faults     *fault.Injector
}

// WithParams overrides the calibration parameters.
func WithParams(p Params) Option { return func(o *options) { o.params = p } }

// WithClientConfig sets the client node's design (default: optimized
// software; the HDFS experiment runs the design under test on both).
func WithClientConfig(k Config) Option { return func(o *options) { o.clientKind = k } }

// WithFaults threads a deterministic fault injector through every
// device model on both nodes: same seed and profile, same faults,
// bit-for-bit. Recovery machinery (driver retries, command watchdog,
// host-mediated fallback) is armed automatically.
func WithFaults(seed uint64, profile FaultProfile) Option {
	return func(o *options) { o.faults = fault.NewInjector(seed, profile) }
}

// NewTestbed builds a server of the given configuration plus a client.
func NewTestbed(serverKind Config, opts ...Option) *Testbed {
	o := options{params: core.DefaultParams(), clientKind: SWOpt}
	for _, fn := range opts {
		fn(&o)
	}
	if o.faults != nil {
		o.params.Faults = o.faults
	}
	env := sim.NewEnv()
	return &Testbed{
		Env:     env,
		Cluster: core.NewClusterWithClient(env, serverKind, o.clientKind, o.params),
		faults:  o.params.Faults,
	}
}

// Go spawns an application process.
func (t *Testbed) Go(name string, fn func(p *Proc)) { t.Env.Spawn(name, fn) }

// Run executes the simulation to completion and returns the final
// simulated time.
func (t *Testbed) Run() Time { return t.Env.Run(-1) }

// RunFor executes the simulation up to the horizon.
func (t *Testbed) RunFor(d Time) Time { return t.Env.Run(d) }

// StageFile creates a server file and loads its content onto the
// server SSD. The SSD keeps content by reference as its disk image,
// so do not modify content after staging.
func (t *Testbed) StageFile(name string, content []byte) (*File, error) {
	return t.Cluster.Server.StageFile(name, content)
}

// CreateFile creates an empty server file (for uploads).
func (t *Testbed) CreateFile(name string, size int) (*File, error) {
	return t.Cluster.Server.CreateFile(name, size)
}

// OpenConnection establishes a connection; dataPlane hands the server
// endpoint to the HDC Engine on DCS-ctrl servers.
func (t *Testbed) OpenConnection(dataPlane bool) Conn {
	return t.Cluster.OpenConn(dataPlane)
}

// SendFile runs the SSD→[NDP]→NIC task on the server.
func (t *Testbed) SendFile(p *Proc, f *File, off, n int, conn Conn, proc Processing) (OpResult, error) {
	return t.Cluster.Server.SendFileOp(p, f, off, n, conn.ID, proc)
}

// RecvFile runs the NIC→[NDP]→SSD task on the server.
func (t *Testbed) RecvFile(p *Proc, conn Conn, f *File, off, n int, proc Processing) (OpResult, error) {
	return t.Cluster.Server.RecvFileOp(p, conn.ID, f, off, n, proc)
}

// CopyFile moves data between two server files through the HDC Engine
// (SSD→[NDP]→SSD, no host data path). DCS-ctrl servers only; if the
// engine has failed, the copy degrades to the host-staged path.
func (t *Testbed) CopyFile(p *Proc, src *File, srcOff int, dst *File, dstOff, n int, proc Processing) (OpResult, error) {
	srv := t.Cluster.Server
	if srv.Driver == nil {
		return OpResult{}, fmt.Errorf("dcsctrl: CopyFile requires a DCS-ctrl server")
	}
	return srv.CopyFileOp(p, src, srcOff, dst, dstOff, n, proc)
}

// ProvisionAESKey installs an AES-256 key slot on the server's engine;
// select it per operation with SendFileEncrypted.
func (t *Testbed) ProvisionAESKey(slot uint64, key [32]byte) error {
	if t.Cluster.Server.Engine == nil {
		return fmt.Errorf("dcsctrl: key slots require a DCS-ctrl server")
	}
	t.Cluster.Server.Engine.ProvisionAESKey(slot, key)
	return nil
}

// SendFileEncrypted is SendFile through the engine's AES-256 unit
// using a provisioned key slot.
func (t *Testbed) SendFileEncrypted(p *Proc, f *File, off, n int, conn Conn, keySlot uint64) (OpResult, error) {
	srv := t.Cluster.Server
	if srv.Driver == nil {
		return OpResult{}, fmt.Errorf("dcsctrl: engine encryption requires a DCS-ctrl server")
	}
	bd := trace.NewBreakdown()
	start := t.Env.Now()
	res, err := srv.Driver.SendFile(p, bd, srv.DevOf(f), f, off, n, conn.ID, uint8(ProcAES256), keySlot)
	out := OpResult{Breakdown: bd, Latency: t.Env.Now() - start, Digest: res.Aux}
	if err == nil && res.Status != 0 {
		err = fmt.Errorf("dcsctrl: command failed with status %d", res.Status)
	}
	return out, err
}

// ClientSend transmits payload from the client. The NIC DMAs payload
// in place, so it must not change until the call returns.
func (t *Testbed) ClientSend(p *Proc, conn Conn, payload []byte) {
	t.Cluster.ClientSend(p, conn, payload)
}

// ClientRecv blocks until the client received n bytes and returns them.
func (t *Testbed) ClientRecv(p *Proc, conn Conn, n int) []byte {
	return t.Cluster.ClientRecv(p, conn, n)
}

// ReadBack fetches a server file's SSD contents (verification).
func (t *Testbed) ReadBack(f *File) []byte { return t.Cluster.Server.ReadBack(f) }

// ServerUtilization returns total server CPU utilization since the
// last account reset.
func (t *Testbed) ServerUtilization() float64 { return t.Cluster.Server.Host.Utilization() }

// ServerBusy returns per-category server CPU busy time.
func (t *Testbed) ServerBusy() map[Category]Time {
	acct := t.Cluster.Server.Host.Acct
	out := map[Category]Time{}
	for _, cat := range acct.Categories() {
		out[cat] = acct.Busy(cat)
	}
	return out
}

// ResetServerAccounting restarts the server CPU measurement window.
func (t *Testbed) ResetServerAccounting() { t.Cluster.Server.Host.Acct.Reset() }

// FPGABudget returns the HDC Engine's resource accounting (Table IV);
// nil on non-DCS servers.
func (t *Testbed) FPGABudget() *fpga.Budget {
	if t.Cluster.Server.Engine == nil {
		return nil
	}
	return t.Cluster.Server.Engine.Budget()
}

// Faults returns the testbed's fault injector (nil without WithFaults).
func (t *Testbed) Faults() *FaultInjector { return t.faults }

// RecoveryStats summarizes the recovery machinery's activity across
// the server node after a run under fault injection.
type RecoveryStats struct {
	Injected        int64 // total faults the injector fired (both nodes)
	DriverRetries   int64 // D2D commands re-issued after transient status
	DriverTimeouts  int64 // D2D commands abandoned by the watchdog
	EngineFailed    bool  // engine declared dead
	Fallbacks       int64 // ops completed on the host-mediated path
	HostNVMeRetries int64 // host NVMe driver re-submissions
	NICTxReplays    int64 // corrupt frames re-transmitted
	NICBDRefetches  int64 // stuck buffer descriptors re-fetched
}

// ServerRecoveryStats collects the server's recovery counters.
func (t *Testbed) ServerRecoveryStats() RecoveryStats {
	srv := t.Cluster.Server
	rs := RecoveryStats{
		Fallbacks:       srv.Fallbacks(),
		HostNVMeRetries: srv.HostNVMeRetries(),
	}
	if t.faults != nil {
		rs.Injected = t.faults.TotalInjected()
	}
	rs.NICTxReplays, rs.NICBDRefetches = srv.NIC.RecoveryStats()
	if srv.Driver != nil {
		rs.DriverRetries = srv.Driver.Retries()
		rs.DriverTimeouts = srv.Driver.Timeouts()
		rs.EngineFailed = srv.Driver.Failed()
	}
	return rs
}

// RunSwift executes the object-storage workload on this testbed.
func (t *Testbed) RunSwift(cfg SwiftConfig) (SwiftResult, error) {
	return apps.RunSwift(t.Env, t.Cluster, cfg)
}

// RunHDFS executes the balancer workload on this testbed.
func (t *Testbed) RunHDFS(cfg HDFSConfig) (HDFSResult, error) {
	return apps.RunHDFS(t.Env, t.Cluster, cfg)
}

// DefaultSwiftConfig returns the evaluation's Swift setup.
func DefaultSwiftConfig() SwiftConfig { return apps.DefaultSwiftConfig() }

// DefaultHDFSConfig returns the evaluation's HDFS setup.
func DefaultHDFSConfig() HDFSConfig { return apps.DefaultHDFSConfig() }

// NewScalability derives the Figure 13 projection from a measured
// operating point.
func NewScalability(measuredGbps, utilization float64, cores int) (Scalability, error) {
	return core.NewScalability(measuredGbps, utilization, cores)
}
