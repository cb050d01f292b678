package hdc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/fpga"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Completion statuses the engine writes to the host completion ring.
// Transient means the command was rejected before any data moved —
// the driver may re-issue it idempotently.
const (
	CplStatusOK        uint32 = 0
	CplStatusInvalid   uint32 = 1
	CplStatusTransient uint32 = 2
)

// engineStallDelay is the injected transient parser hang — long
// enough to show up in latency, far below any sane driver timeout.
const engineStallDelay = 50 * sim.Microsecond

// Params are the HDC Engine's hardware timing and sizing parameters
// (FPGA logic at 250 MHz; DDR3-1600 on-board memory).
type Params struct {
	CmdParse       sim.Time // command parser per D2D command
	ScoreboardOp   sim.Time // per scoreboard state transition
	NVMeBuild      sim.Time // NVMe controller command build
	NICHeaderGen   sim.Time // NIC controller header generation
	RecvParse      sim.Time // per received packet, hardware parse
	CompletionPost sim.Time // interrupt generator per completion
	GatherBps      float64  // DDR3-internal gather bandwidth
	NDPTargetBps   float64  // provisioning target for NDP banks

	CmdQueueEntries   int // host-interface command queue (64, §IV-C)
	ScoreboardEntries int
	NVMeEntries       int // NVMe queue pair depth in BRAM
	NICEntries        int // NIC ring depth in BRAM
	Window            int // in-flight chunks per D2D command

	DDR3Bytes  uint64 // modelled slice of the 1 GB on-board DRAM
	ChunkCount int    // 64 KB intermediate buffers
	RecvBufs   int    // 2 KB packet receive buffers

	// Faults injects engine stalls, poisoned completion entries, and
	// hard engine failure; nil disables injection.
	Faults *fault.Injector
}

// DefaultParams return the prototype's configuration.
func DefaultParams() Params {
	return Params{
		CmdParse:       200 * sim.Nanosecond,
		ScoreboardOp:   60 * sim.Nanosecond,
		NVMeBuild:      200 * sim.Nanosecond,
		NICHeaderGen:   300 * sim.Nanosecond,
		RecvParse:      100 * sim.Nanosecond,
		CompletionPost: 200 * sim.Nanosecond,
		GatherBps:      51.2e9,
		NDPTargetBps:   ndp.TargetBps,

		CmdQueueEntries:   64,
		ScoreboardEntries: 128,
		NVMeEntries:       64,
		NICEntries:        512,
		Window:            4,

		DDR3Bytes:  96 << 20,
		ChunkCount: 512,
		RecvBufs:   8192,
	}
}

// HostConfig is the host-facing completion path: a completion ring in
// host DRAM plus the MSI vector the interrupt generator uses.
type HostConfig struct {
	CplRing    *mem.Region // host DRAM: CplEntrySize × CmdQueueEntries
	HeadMirror mem.Addr    // 8-byte cumulative consumed-command counter
	MSIVector  int
}

// CplEntrySize is the completion-ring entry size: id(4) status(4)
// auxLen(4) valid(1) pad(3) aux(16). The valid byte carries the
// producer's phase; the driver clears it after consuming, so no
// separate status-counter DMA is needed.
const CplEntrySize = 32

// cmdResult is an executed command's outcome.
type cmdResult struct {
	id     uint32
	status uint32
	aux    []byte
}

// Engine is the HDC Engine device: Figure 5's FPGA board.
type Engine struct {
	name   string
	env    *sim.Env
	fab    *pcie.Fabric
	params Params
	port   *pcie.Port
	budget *fpga.Budget

	// Host interface: 64-entry command queue + tail doorbell in BRAM.
	cmdq    *mem.Region
	cmdHead uint64
	cmdTail uint64 // doorbell value
	cmdKick *sim.Cond
	kick    *sim.Coalesced // one cmdKick broadcast per instant's doorbells

	// On-board DDR3: intermediate chunks and packet receive buffers.
	ddr3      *mem.Region
	chunks    *mem.ChunkPool
	recvPool  *mem.ChunkPool
	chunkCond *sim.Cond

	sb        *Scoreboard
	nvmeCtls  []*NVMeCtrl
	nicCtls   []*NICCtrl
	connOwner map[uint64]*NICCtrl
	nextNICRR int
	aesKeys   map[uint64]ndp.Unit // AES key slots (AuxData selects)
	banks     map[uint8]*ndp.Bank

	host      HostConfig
	hostSet   bool
	submitted []uint32             // submission order, for in-order completion
	finished  map[uint32]cmdResult // results awaiting their turn
	cplCount  uint64
	cplCond   *sim.Cond
	cplBuf    mem.Addr     // completer staging (one full ring's worth)
	cplExts   []mem.Extent // completer scratch (≤2 wrap-aware extents)
	mirrorBuf mem.Addr     // head-mirror staging
	extBufs   []mem.Addr   // per-command-slot extent staging

	// cmdFree and jobFree recycle per-command records and per-chunk
	// stage records; the 64-entry command queue bounds the commands in
	// flight, so the lists stay small (DESIGN.md §11).
	cmdFree []*cmdRun
	jobFree []*chunkJob

	cmdsDone int64
	dead     bool // parser suffered a hard failure; no command makes progress
}

// NewEngine creates the engine, claims the base design's FPGA
// resources, and starts the parser and completer processes. Attach
// devices with AttachSSD/AttachNIC, NDP units with AddNDP, and the
// host with ConfigureHost before submitting commands.
func NewEngine(env *sim.Env, fab *pcie.Fabric, name string, params Params) *Engine {
	e := &Engine{
		name:      name,
		env:       env,
		fab:       fab,
		params:    params,
		budget:    fpga.NewBudget(fpga.Virtex7VC707()),
		cmdKick:   sim.NewCond(env),
		banks:     map[uint8]*ndp.Bank{},
		finished:  map[uint32]cmdResult{},
		cplCond:   sim.NewCond(env),
		connOwner: map[uint64]*NICCtrl{},
		aesKeys:   map[uint64]ndp.Unit{},
	}
	for _, u := range fpga.ControllersUsage() {
		e.budget.MustClaim(u)
	}
	e.port = fab.AddPort(name)
	mm := fab.Mem()
	e.cmdq = mm.AddRegion(name+"-cmdq", mem.DeviceBRAM,
		uint64(params.CmdQueueEntries*CommandSize)+8, true)
	fab.Attach(e.port, e.cmdq)
	e.cmdq.SetWriteHook(e.onCmdqWrite)

	e.ddr3 = mm.AddRegion(name+"-ddr3", mem.DeviceDRAM, params.DDR3Bytes, true)
	fab.Attach(e.port, e.ddr3)
	e.chunks = mem.NewChunkPool(e.ddr3, ChunkSize, params.ChunkCount)
	e.recvPool = mem.NewChunkPool(e.ddr3, 2048, params.RecvBufs)
	e.chunkCond = sim.NewCond(env)
	e.cplBuf = e.ddr3.Alloc(uint64(params.CmdQueueEntries*CplEntrySize), 64)
	e.cplExts = make([]mem.Extent, 0, 2)
	e.mirrorBuf = e.ddr3.Alloc(8, 8)
	for i := 0; i < params.CmdQueueEntries; i++ {
		e.extBufs = append(e.extBufs, e.ddr3.Alloc(4096, 64))
	}

	e.kick = sim.NewCoalesced(env, e.cmdKick.Broadcast)
	e.sb = NewScoreboard(env, params.ScoreboardEntries, params.ScoreboardOp)
	env.SpawnHandler(name+"-parser", (&parserMachine{e: e}).run)
	env.SpawnHandler(name+"-completer", (&completerMachine{e: e}).run)
	return e
}

// Budget returns the engine's FPGA resource budget (Table IV).
func (e *Engine) Budget() *fpga.Budget { return e.budget }

// Scoreboard returns the engine's scoreboard (diagnostics).
func (e *Engine) Scoreboard() *Scoreboard { return e.sb }

// CommandsDone returns the number of completed D2D commands.
func (e *Engine) CommandsDone() int64 { return e.cmdsDone }

// AttachSSD creates an NVMe standard device controller with its queue
// pair in engine BRAM (Figure 7a) and returns the device index D2D
// commands use to address it. The flexibility story of §III-C:
// attaching another off-the-shelf SSD is one more controller instance.
func (e *Engine) AttachSSD(ssd *nvme.SSD, qid uint16) uint8 {
	idx := len(e.nvmeCtls)
	if idx > 255 {
		panic("hdc: too many SSDs")
	}
	e.nvmeCtls = append(e.nvmeCtls, newNVMeCtrl(e, ssd, qid, e.params.NVMeEntries, idx))
	return uint8(idx)
}

// SSDCount returns the number of attached SSDs.
func (e *Engine) SSDCount() int { return len(e.nvmeCtls) }

// AttachNIC creates NIC standard device controllers with dedicated
// rings in engine BRAM (Figure 7b), one per queue id. A 10-GbE
// deployment needs one queue pair; provisioning for 40 GbE means
// several, with connections spread across them.
func (e *Engine) AttachNIC(dev *nic.NIC, qids ...uint16) {
	if len(e.nicCtls) > 0 {
		panic("hdc: NIC already attached")
	}
	if len(qids) == 0 {
		panic("hdc: AttachNIC needs at least one queue id")
	}
	for _, qid := range qids {
		e.nicCtls = append(e.nicCtls, newNICCtrl(e, dev, qid, e.params.NICEntries))
	}
}

// ctrlFor returns the NIC controller owning a connection.
func (e *Engine) ctrlFor(connID uint64) *NICCtrl {
	c, ok := e.connOwner[connID]
	if !ok {
		panic(fmt.Sprintf("hdc: connection %d not registered", connID))
	}
	return c
}

// AddNDP provisions a bank of the unit sized for the engine's target
// line rate, claiming FPGA resources.
func (e *Engine) AddNDP(fn uint8, unit ndp.Unit) error {
	if _, dup := e.banks[fn]; dup {
		return fmt.Errorf("hdc: NDP fn %s already provisioned", FnName(fn))
	}
	bank, err := ndp.NewBank(e.env, e.budget, unit, e.params.NDPTargetBps)
	if err != nil {
		return err
	}
	e.banks[fn] = bank
	return nil
}

// ProvisionAESKey installs an AES-256 key in a key slot; D2D commands
// select it through AuxData. Keys live in unit registers, so no extra
// fabric is claimed beyond the aes256 bank itself.
func (e *Engine) ProvisionAESKey(slot uint64, key [32]byte) {
	e.aesKeys[slot] = &ndp.AES256{Key: key}
}

// Bank returns the provisioned bank for an NDP function.
func (e *Engine) Bank(fn uint8) (*ndp.Bank, bool) {
	b, ok := e.banks[fn]
	return b, ok
}

// ConfigureHost installs the host completion path and starts the
// interrupt generator.
func (e *Engine) ConfigureHost(cfg HostConfig) {
	if e.hostSet {
		panic("hdc: host already configured")
	}
	if cfg.CplRing.Size < uint64(e.params.CmdQueueEntries*CplEntrySize) {
		panic("hdc: completion ring too small")
	}
	e.host = cfg
	e.hostSet = true
}

// CmdSlotAddr returns the bus address of command-queue slot i — the
// driver writes D2D commands here by MMIO.
func (e *Engine) CmdSlotAddr(i int) mem.Addr {
	return e.cmdq.Base + mem.Addr(i*CommandSize)
}

// TailDoorbell returns the command-queue tail doorbell address.
func (e *Engine) TailDoorbell() mem.Addr {
	return e.cmdq.Base + mem.Addr(e.params.CmdQueueEntries*CommandSize)
}

func (e *Engine) onCmdqWrite(off uint64, n int) {
	if off == uint64(e.params.CmdQueueEntries*CommandSize) {
		e.cmdTail = binary.LittleEndian.Uint64(e.cmdq.Bytes(off, 8))
		// Several doorbell writes landing at one instant wake the parser
		// once, after the last write is visible.
		e.kick.Raise()
	}
}

// Failed reports whether the engine suffered an injected hard
// failure: the parser stopped and queued commands never complete.
func (e *Engine) Failed() bool { return e.dead }

// parserState enumerates where the command parser resumes.
type parserState int

const (
	parserWait   parserState = iota // wait for the tail doorbell; draw faults
	parserStall                     // injected stalls elapsed
	parserParsed                    // parse time elapsed; admit the batch
	parserMirror                    // the head-mirror DMA is in flight
)

// parserMachine is the command parser of §IV-C: it decodes queued D2D
// commands in order and admits them to the scoreboard pipeline.
//
// Fault injection models two parser failure modes: a transient stall
// (recovered by waiting) and a hard failure that stops the parser for
// good — queued commands then never complete and the driver's command
// timeout is the only way out.
type parserMachine struct {
	e      *Engine
	st     parserState
	n      int  // commands admitted from this batch
	failed bool // a hard failure hit the batch's command n
	x      pcie.Xfer
}

// run is the parser's handler body. It is no noalloc root: each
// admitted command takes a record and starts its proc.
func (m *parserMachine) run(h *sim.HandlerCtx) {
	e := m.e
	for {
		switch m.st {
		case parserWait:
			if e.cmdHead == e.cmdTail {
				e.cmdKick.WaitH(h)
				return
			}
			// Drain every command posted by this instant in one pass.
			// Fault draws stay per-command (injection statistics are
			// unchanged), but stall and parse costs are charged in one
			// re-arm each and the head mirror is published once per
			// batch.
			avail := int(e.cmdTail - e.cmdHead)
			n, stalls := avail, 0
			m.failed = false
			for i := 0; i < avail; i++ {
				if e.params.Faults.Hit(fault.HDCEngineFail) {
					n, m.failed = i, true
					break
				}
				if e.params.Faults.Hit(fault.HDCEngineStall) {
					stalls++
				}
			}
			m.n = n
			m.st = parserStall
			if stalls > 0 {
				h.Rearm(sim.Time(stalls) * engineStallDelay)
				return
			}
		case parserStall:
			m.st = parserParsed
			if d := sim.Time(m.n) * e.params.CmdParse; d > 0 {
				h.Rearm(d)
				return
			}
		case parserParsed:
			for i := 0; i < m.n; i++ {
				slot := e.cmdHead % uint64(e.params.CmdQueueEntries)
				var raw [CommandSize]byte
				e.cmdq.ReadAt(slot*CommandSize, raw[:])
				e.cmdHead++
				cmd, err := DecodeCommand(raw[:])
				if err == nil {
					err = cmd.Validate()
				}
				e.submitted = append(e.submitted, cmd.ID)
				if err != nil {
					e.finish(cmd.ID, CplStatusInvalid, nil)
					continue
				}
				e.startCommand(cmd)
			}
			if m.n > 0 && e.hostSet && e.host.HeadMirror != 0 {
				// Publish the consumed-command counter to host memory so
				// the driver can track free command-queue slots.
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], e.cmdHead)
				e.fab.Mem().Write(e.mirrorBuf, b[:])
				m.x.Start(e.fab, e.port, e.host.HeadMirror, e.mirrorBuf, 8)
				m.st = parserMirror
				continue
			}
			if m.failed {
				e.dead = true
				h.Exit()
				return
			}
			m.st = parserWait
		case parserMirror:
			if !m.x.Step(h) {
				return
			}
			if m.failed {
				e.dead = true
				h.Exit()
				return
			}
			m.st = parserWait
		}
	}
}

// finish records a command result; the completer delivers results in
// submission order (§IV-C: completions are notified in order).
func (e *Engine) finish(id uint32, status uint32, aux []byte) {
	e.finished[id] = cmdResult{id: id, status: status, aux: aux}
	e.cplCond.Broadcast()
}

// completerState enumerates where the completer resumes.
type completerState int

const (
	completerWait   completerState = iota // wait for the head command to finish
	completerGather                       // same-instant finishes have landed
	completerPost                         // post costs elapsed; write the batch
	completerDMA                          // the ring DMA is in flight
)

// completerMachine drains in-order-finished commands to the host
// completion ring and raises MSI. Every command whose turn has come at
// one instant is posted as a batch: one charge covering the batch's
// post costs, one wrap-aware vectored DMA to the ring, one MSI.
type completerMachine struct {
	e  *Engine
	st completerState
	k  int
	v  pcie.XferVec
}

//dcslint:hotpath
func (m *completerMachine) run(h *sim.HandlerCtx) {
	e := m.e
	for {
		switch m.st {
		case completerWait:
			if len(e.submitted) == 0 || !e.headFinished() {
				e.cplCond.WaitH(h)
				return
			}
			// Gather every command finishing at this instant.
			m.st = completerGather
			if !h.Yield() {
				return
			}
		case completerGather:
			k := 0
			for k < len(e.submitted) && k < e.params.CmdQueueEntries {
				if _, ok := e.finished[e.submitted[k]]; !ok {
					break
				}
				k++
			}
			m.k = k
			m.st = completerPost
			if d := sim.Time(k) * e.params.CompletionPost; d > 0 {
				h.Rearm(d)
				return
			}
		case completerPost:
			if !e.hostSet {
				m.retire()
				continue
			}
			k := m.k
			for i := 0; i < k; i++ {
				res := e.finished[e.submitted[i]]
				entry := [CplEntrySize]byte{}
				binary.LittleEndian.PutUint32(entry[0:], res.id)
				binary.LittleEndian.PutUint32(entry[4:], res.status)
				binary.LittleEndian.PutUint32(entry[8:], uint32(len(res.aux)))
				entry[12] = 1 // valid
				copy(entry[16:], res.aux)
				e.fab.Mem().Write(e.cplBuf+mem.Addr(i*CplEntrySize), entry[:])
			}
			slot := int(e.cplCount % uint64(e.params.CmdQueueEntries))
			e.cplExts = mem.RingExtents(e.cplExts[:0], e.host.CplRing.Base, slot, k,
				e.params.CmdQueueEntries, CplEntrySize)
			m.v.Start(e.fab, e.port, e.cplBuf, e.cplExts, false)
			m.st = completerDMA
		case completerDMA:
			if !m.v.Step(h) {
				return
			}
			e.cplCount += uint64(m.k)
			e.env.CountIO(m.k)
			e.fab.RaiseMSI(e.host.MSIVector)
			m.retire()
		}
	}
}

// retire drops the posted batch from the in-order bookkeeping.
func (m *completerMachine) retire() {
	e, k := m.e, m.k
	for i := 0; i < k; i++ {
		delete(e.finished, e.submitted[i])
	}
	// Slide the live window to the front so the backing array is reused.
	n := copy(e.submitted, e.submitted[k:])
	e.submitted = e.submitted[:n]
	e.cmdsDone += int64(k)
	m.st = completerWait
}

func (e *Engine) headFinished() bool {
	_, ok := e.finished[e.submitted[0]]
	return ok
}

// allocChunk takes a 64 KB intermediate buffer. ok=false means the
// pool is dry and the proc is enrolled for the next free (back-pressure
// toward the scoreboard): the caller must return and retry.
//
//dcslint:hotpath
func (e *Engine) allocChunk(h *sim.HandlerCtx) (mem.Addr, bool) {
	if a, ok := e.chunks.Get(); ok {
		return a, true
	}
	e.chunkCond.WaitH(h)
	return 0, false
}

// freeChunk returns an intermediate buffer.
func (e *Engine) freeChunk(a mem.Addr) {
	e.chunks.Put(a)
	e.chunkCond.Broadcast()
}

// RegisterConnection assigns the connection to a NIC controller
// (round-robin) and installs its flow state there.
func (e *Engine) RegisterConnection(id uint64, flow ether.Flow, txSeq, rxSeq uint32) {
	if len(e.nicCtls) == 0 {
		panic("hdc: no NIC attached")
	}
	ctl := e.nicCtls[e.nextNICRR%len(e.nicCtls)]
	e.nextNICRR++
	e.connOwner[id] = ctl
	ctl.RegisterConnection(id, flow, txSeq, rxSeq)
}

// AdoptedConn is one connection's salvaged state after an engine
// failure: TCP flow, sequence positions, and any receive bytes that
// were buffered in engine DDR3 but not yet consumed by a command.
type AdoptedConn struct {
	ID           uint64
	Flow         ether.Flow
	TxSeq, RxSeq uint32
	Buffered     []byte
}

// AdoptConnections drains every registered connection out of the
// engine's NIC controllers — the graceful-degradation step after a
// hard engine failure. Connections are returned in ascending ID
// order so fail-over is deterministic.
func (e *Engine) AdoptConnections() []AdoptedConn {
	ids := make([]uint64, 0, len(e.connOwner))
	for id := range e.connOwner {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []AdoptedConn
	for _, id := range ids {
		ctl := e.connOwner[id]
		flow, txSeq, rxSeq, buffered, ok := ctl.DrainConn(id)
		if !ok {
			continue
		}
		delete(e.connOwner, id)
		out = append(out, AdoptedConn{ID: id, Flow: flow, TxSeq: txSeq, RxSeq: rxSeq, Buffered: buffered})
	}
	return out
}
