package hdc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// ErrEngineFailed reports that the HDC Engine stopped completing
// commands (a command timed out). The driver marks the engine failed
// and callers fall back to the host-mediated data path.
var ErrEngineFailed = errors.New("hdc: engine failed (command timeout)")

// DriverParams are the host CPU costs of the HDC Driver — the thin
// kernel module of §IV-B — plus its recovery policy. The CPU costs
// are small by design: the driver only resolves metadata and posts
// one command where the software stacks run entire I/O paths.
type DriverParams struct {
	MetadataLookup sim.Time // VFS interaction: extent map retrieval
	DirtyCheck     sim.Time // page-cache consistency check per request
	ConnLookup     sim.Time // TCP connection metadata retrieval
	CmdBuild       sim.Time // D2D command construction
	CmdPost        sim.Time // MMIO write of command + doorbell
	IRQHandle      sim.Time // completion interrupt handling per batch

	// CmdTimeout declares the engine dead when a command gets no
	// completion in time; 0 disables the watchdog. It must exceed the
	// worst-case legitimate command latency — core.NewNode enables it
	// automatically when fault injection is configured.
	CmdTimeout sim.Time
	// MaxRetries bounds re-issues of a command the engine completed
	// with a transient (poisoned) status.
	MaxRetries int
	// RetryBackoff is the initial backoff before a re-issue; it
	// doubles per attempt.
	RetryBackoff sim.Time
}

// DefaultDriverParams return the calibrated driver costs.
func DefaultDriverParams() DriverParams {
	return DriverParams{
		MetadataLookup: 800 * sim.Nanosecond,
		DirtyCheck:     200 * sim.Nanosecond,
		ConnLookup:     500 * sim.Nanosecond,
		CmdBuild:       300 * sim.Nanosecond,
		CmdPost:        400 * sim.Nanosecond,
		IRQHandle:      700 * sim.Nanosecond,

		MaxRetries:   3,
		RetryBackoff: 5 * sim.Microsecond,
	}
}

// Result is a completed D2D command's outcome as seen by the library.
type Result struct {
	Status uint32
	Aux    []byte // NDP digest, when requested
}

// Driver is the HDC Driver plus the HDC Library entry points. It owns
// the host side of the engine's command/completion interface and
// charges all of its work to trace.CatHDCDriver.
type Driver struct {
	env    *sim.Env
	host   *hostos.Host
	fss    []*hostos.FileSystem // page caches, indexed by SSD (the dev of a library call)
	fab    *pcie.Fabric
	eng    *Engine
	params DriverParams

	cplRing *mem.Region
	arena   *mem.Region // extent tables visible to the engine

	nextID      uint32
	tail        uint64
	outstanding int
	slotFree    *sim.Cond
	waiting     map[uint32]*cmdWaiter
	cplHead     uint64

	// mmio delivers the MMIO writes of a posted command (its slot, then
	// the tail doorbell); watchdog times it out.
	mmio     *sim.Deferred[mmioWrite]
	watchdog *sim.Deferred[*cmdWaiter]

	failed   bool  // engine declared dead after a command timeout
	retries  int64 // transient-status re-issues
	timeouts int64 // commands abandoned by the watchdog
	orphans  int64 // completions for commands already abandoned

	// Writeback flushes a dirty page before a D2D read; wired by the
	// server configuration (it needs the host's own storage path).
	Writeback func(p *sim.Proc, f *hostos.File, page int, data []byte)
}

// cmdWaiter tracks one posted command. Unlike a one-shot Signal it
// can resolve two ways — completion or watchdog timeout — so it uses
// a condition variable the library call re-checks.
type cmdWaiter struct {
	done     bool
	timedOut bool
	res      Result
	cond     *sim.Cond
}

// mmioWrite is one MMIO write of up to a command's bytes into the
// engine BAR.
type mmioWrite struct {
	addr mem.Addr
	n    int
	b    [CommandSize]byte
}

// NewDriver builds the driver, allocating its host-memory interface
// regions and registering the completion interrupt. fss holds each
// SSD's namespace, whose page cache the consistency check consults.
func NewDriver(env *sim.Env, host *hostos.Host, fss []*hostos.FileSystem,
	fab *pcie.Fabric, hostPort *pcie.Port, eng *Engine, msiVector int, params DriverParams) *Driver {
	mm := fab.Mem()
	d := &Driver{
		env: env, host: host, fss: fss, fab: fab, eng: eng, params: params,
		slotFree: sim.NewCond(env),
		waiting:  map[uint32]*cmdWaiter{},
	}
	entries := eng.params.CmdQueueEntries
	d.cplRing = mm.AddRegion("hdc-cpl-ring", mem.HostDRAM, uint64(entries*CplEntrySize)+64, true)
	d.arena = mm.AddRegion("hdc-extent-arena", mem.HostDRAM, uint64(entries)*4096, true)
	fab.Attach(hostPort, d.cplRing)
	fab.Attach(hostPort, d.arena)

	eng.ConfigureHost(HostConfig{
		CplRing:    d.cplRing,
		HeadMirror: d.cplRing.Base + mem.Addr(uint64(entries*CplEntrySize)),
		MSIVector:  msiVector,
	})
	d.mmio = sim.NewDeferred(env, func(w mmioWrite) { mm.Write(w.addr, w.b[:w.n]) })
	d.watchdog = sim.NewDeferred(env, func(w *cmdWaiter) {
		if !w.done && !w.timedOut {
			w.timedOut = true
			w.cond.Broadcast()
		}
	})
	drain := d.drainCompletions
	fab.OnMSI(msiVector, func() {
		host.RaiseIRQ(trace.CatHDCDriver, params.IRQHandle, drain)
	})
	return d
}

// drainCompletions consumes new completion-ring entries and wakes the
// blocked library calls (runs from the IRQ path).
func (d *Driver) drainCompletions() {
	entries := uint64(d.eng.params.CmdQueueEntries)
	for {
		slot := d.cplHead % entries
		entryAddr := d.cplRing.Base + mem.Addr(slot*uint64(CplEntrySize))
		// View: only the valid byte is rewritten before the fields are
		// decoded, and aux below copies what it keeps.
		raw := d.fab.Mem().View(entryAddr, CplEntrySize)
		if raw[12] == 0 {
			return // no more valid entries
		}
		// Clear the valid byte (host-local memory write).
		d.fab.Mem().Write(entryAddr+12, []byte{0})
		id := binary.LittleEndian.Uint32(raw[0:])
		status := binary.LittleEndian.Uint32(raw[4:])
		auxLen := int(binary.LittleEndian.Uint32(raw[8:]))
		if auxLen > 16 {
			auxLen = 16
		}
		aux := append([]byte(nil), raw[16:16+auxLen]...)
		d.cplHead++
		w, ok := d.waiting[id]
		if !ok {
			// The watchdog abandoned this command and the engine
			// completed it anyway; its slot was already reclaimed.
			d.orphans++
			continue
		}
		delete(d.waiting, id)
		d.outstanding--
		d.slotFree.Broadcast()
		w.done = true
		w.res = Result{Status: status, Aux: aux}
		w.cond.Broadcast()
	}
}

// Failed reports whether the driver has declared the engine dead.
func (d *Driver) Failed() bool { return d.failed }

// Retries returns how many commands were re-issued after a transient
// completion status.
func (d *Driver) Retries() int64 { return d.retries }

// Timeouts returns how many commands the watchdog abandoned.
func (d *Driver) Timeouts() int64 { return d.timeouts }

// Connect registers a TCP connection with the engine's NIC controller
// (driver-side: the connection was established by the kernel stack;
// the driver hands its state to hardware, as §IV-B describes).
func (d *Driver) Connect(id uint64, flow ether.Flow, txSeq, rxSeq uint32) {
	d.eng.RegisterConnection(id, flow, txSeq, rxSeq)
}

// post writes a built command into the engine's queue and rings the
// tail doorbell. Caller charges CPU cost.
func (d *Driver) post(p *sim.Proc, cmd Command) *cmdWaiter {
	for d.outstanding >= d.eng.params.CmdQueueEntries-1 {
		d.slotFree.Wait(p)
	}
	w := &cmdWaiter{cond: sim.NewCond(d.env)}
	d.waiting[cmd.ID] = w
	d.outstanding++
	slot := d.tail % uint64(d.eng.params.CmdQueueEntries)
	// MMIO writes into the engine BAR: command body, then doorbell.
	d.tail++
	lat := d.fab.Params().MMIOLatency
	d.mmio.After(lat, mmioWrite{addr: d.eng.CmdSlotAddr(int(slot)), n: CommandSize, b: cmd.Encode()})
	db := mmioWrite{addr: d.eng.TailDoorbell(), n: 8}
	binary.LittleEndian.PutUint64(db.b[:], d.tail)
	d.mmio.After(lat, db)
	if d.params.CmdTimeout > 0 {
		d.watchdog.After(d.params.CmdTimeout, w)
	}
	return w
}

// await blocks the library call on a posted command's outcome —
// completion or watchdog timeout. The thread's context-switch pair is
// charged as interrupt work; the wait itself burns no CPU and is
// recorded as idle wait. A timed-out command is abandoned: its queue
// slot is reclaimed and a late completion is dropped as an orphan; it
// is never re-posted, so the engine cannot execute it twice.
func (d *Driver) await(p *sim.Proc, bd *trace.Breakdown, id uint32, w *cmdWaiter) (Result, bool) {
	d.host.Exec(p, trace.CatInterrupt, d.host.Params.CtxSwitch, bd)
	start := p.Now()
	for !w.done && !w.timedOut {
		w.cond.Wait(p)
	}
	if bd != nil {
		bd.Add(trace.CatIdleWait, p.Now()-start)
	}
	if w.timedOut {
		d.timeouts++
		delete(d.waiting, id)
		d.outstanding--
		d.slotFree.Broadcast()
		return Result{}, false
	}
	return w.res, true
}

// submit runs the post→await cycle with the driver's recovery policy:
// a transient completion status is retried with a fresh command ID
// after an exponential backoff (charged to trace.CatRetry), and a
// watchdog timeout declares the engine failed. build constructs the
// command for a given ID — called once per attempt so re-issues stage
// their own extent-table slot and never alias an abandoned command.
func (d *Driver) submit(p *sim.Proc, bd *trace.Breakdown, postCost sim.Time, build func(id uint32) (Command, error)) (Result, error) {
	if d.failed {
		return Result{}, ErrEngineFailed
	}
	backoff := d.params.RetryBackoff
	for attempt := 0; ; attempt++ {
		id := d.nextID
		d.nextID++
		cmd, err := build(id)
		if err != nil {
			return Result{}, err
		}
		d.host.Exec(p, trace.CatHDCDriver, postCost, bd)
		w := d.post(p, cmd)
		res, ok := d.await(p, bd, id, w)
		if !ok {
			d.failed = true
			return Result{}, ErrEngineFailed
		}
		if res.Status == CplStatusTransient && attempt < d.params.MaxRetries {
			d.retries++
			if bd != nil {
				bd.Add(trace.CatRetry, backoff)
			}
			p.Sleep(backoff)
			backoff *= 2
			continue
		}
		d.host.Exec(p, trace.CatHDCDriver, d.host.Params.SyscallExit, bd)
		return res, nil
	}
}

// stageExtents writes an extent table into the arena slot for a
// command and returns its bus address.
func (d *Driver) stageExtents(id uint32, ext []ExtentEntry) (mem.Addr, error) {
	if len(ext) > 256 {
		return 0, fmt.Errorf("hdc: %d extents exceed one command (split the transfer)", len(ext))
	}
	slot := uint64(id) % uint64(d.eng.params.CmdQueueEntries)
	addr := d.arena.Base + mem.Addr(slot*4096)
	d.fab.Mem().Write(addr, EncodeExtents(ext))
	return addr, nil
}

// fileExtents maps a byte range of a file to engine extent entries,
// enforcing chunk-aligned starts.
func fileExtents(f *hostos.File, off, n int) ([]ExtentEntry, error) {
	if off%hostos.BlockSize != 0 {
		return nil, fmt.Errorf("hdc: offset %d not block aligned", off)
	}
	lbas, err := f.LBARange(off, n)
	if err != nil {
		return nil, err
	}
	var out []ExtentEntry
	for _, lba := range lbas {
		if k := len(out); k > 0 && out[k-1].LBA+uint64(out[k-1].Blocks) == lba {
			out[k-1].Blocks++
			continue
		}
		out = append(out, ExtentEntry{LBA: lba, Blocks: 1})
	}
	return out, nil
}

// prepare runs the driver's common preamble: syscall entry, metadata
// and consistency work on file f of SSD dev's namespace (f nil: no
// file). A device with no namespace has no page cache to check; the
// engine rejects a command that addresses it. Command IDs are
// allocated per attempt by submit, so prepare runs exactly once per
// library call even when the command is retried.
func (d *Driver) prepare(p *sim.Proc, bd *trace.Breakdown, dev uint8, f *hostos.File) {
	hp := d.host.Params
	d.host.Exec(p, trace.CatHDCDriver, hp.SyscallEntry, bd)
	d.host.Exec(p, trace.CatHDCDriver, d.params.MetadataLookup, bd)
	if f != nil {
		d.host.Exec(p, trace.CatHDCDriver, d.params.DirtyCheck, bd)
		if int(dev) >= len(d.fss) {
			return
		}
		fs := d.fss[dev]
		if dirty := fs.Dirty(f.Name); len(dirty) > 0 {
			if d.Writeback == nil {
				panic("hdc: dirty pages with no writeback path configured")
			}
			for _, pg := range dirty {
				data, _ := fs.CleanPage(f.Name, pg)
				d.Writeback(p, f, pg, data)
			}
		}
	}
}

// SendFile is the HDC Library's sendfile-like call: transfer n bytes
// of file f starting at off, on SSD dev (the index AttachSSD returned),
// to connection connID, optionally through NDP function fn with
// argument aux (e.g. the AES key slot provisioned with
// Engine.ProvisionAESKey; §IV-A). It blocks until the engine completes
// the D2D command and returns the NDP digest when fn computes one.
func (d *Driver) SendFile(p *sim.Proc, bd *trace.Breakdown, dev uint8, f *hostos.File, off, n int, connID uint64, fn uint8, aux uint64) (Result, error) {
	d.prepare(p, bd, dev, f)
	ext, err := fileExtents(f, off, n)
	if err != nil {
		return Result{}, err
	}
	return d.submit(p, bd, d.params.ConnLookup+d.params.CmdBuild+d.params.CmdPost,
		func(id uint32) (Command, error) {
			extAddr, err := d.stageExtents(id, ext)
			if err != nil {
				return Command{}, err
			}
			return Command{
				ID: id, SrcClass: ClassSSD, DstClass: ClassNIC, Fn: fn,
				SrcArg: uint64(extAddr), SrcCount: uint32(len(ext)), SrcDev: dev,
				DstArg: connID, Length: uint64(n), AuxData: aux,
			}, nil
		})
}

// CopyFile moves n bytes between two files (possibly on different
// SSDs) entirely through the engine — SSD→[NDP]→SSD, no host data
// path. Both extent tables share the command's arena slot, so each
// side is limited to 128 extents.
func (d *Driver) CopyFile(p *sim.Proc, bd *trace.Breakdown,
	srcDev uint8, srcF *hostos.File, srcOff int,
	dstDev uint8, dstF *hostos.File, dstOff, n int, fn uint8) (Result, error) {
	d.prepare(p, bd, srcDev, srcF)
	srcExt, err := fileExtents(srcF, srcOff, n)
	if err != nil {
		return Result{}, err
	}
	dstExt, err := fileExtents(dstF, dstOff, n)
	if err != nil {
		return Result{}, err
	}
	if len(srcExt) > 128 || len(dstExt) > 128 {
		return Result{}, fmt.Errorf("hdc: copy with >128 extents per side (split the transfer)")
	}
	return d.submit(p, bd, d.params.CmdBuild+d.params.CmdPost,
		func(id uint32) (Command, error) {
			slot := uint64(id) % uint64(d.eng.params.CmdQueueEntries)
			base := d.arena.Base + mem.Addr(slot*4096)
			d.fab.Mem().Write(base, EncodeExtents(srcExt))
			d.fab.Mem().Write(base+2048, EncodeExtents(dstExt))
			return Command{
				ID: id, SrcClass: ClassSSD, DstClass: ClassSSD, Fn: fn,
				SrcArg: uint64(base), SrcCount: uint32(len(srcExt)), SrcDev: srcDev,
				DstArg: uint64(base + 2048), DstCount: uint32(len(dstExt)), DstDev: dstDev,
				Length: uint64(n),
			}, nil
		})
}

// RecvFile receives n bytes from connection connID into file f at
// off on SSD dev, optionally through NDP function fn — the PUT-side
// D2D path.
func (d *Driver) RecvFile(p *sim.Proc, bd *trace.Breakdown, connID uint64, dev uint8, f *hostos.File, off, n int, fn uint8) (Result, error) {
	d.prepare(p, bd, dev, f)
	ext, err := fileExtents(f, off, n)
	if err != nil {
		return Result{}, err
	}
	return d.submit(p, bd, d.params.ConnLookup+d.params.CmdBuild+d.params.CmdPost,
		func(id uint32) (Command, error) {
			extAddr, err := d.stageExtents(id, ext)
			if err != nil {
				return Command{}, err
			}
			return Command{
				ID: id, SrcClass: ClassNIC, DstClass: ClassSSD, Fn: fn,
				SrcArg: connID, DstArg: uint64(extAddr), DstCount: uint32(len(ext)), DstDev: dev,
				Length: uint64(n),
			}, nil
		})
}

// Forward moves n bytes from one connection to another through the
// engine (network-to-network, e.g. proxying with re-encryption).
func (d *Driver) Forward(p *sim.Proc, bd *trace.Breakdown, srcConn, dstConn uint64, n int, fn uint8) (Result, error) {
	d.prepare(p, bd, 0, nil)
	return d.submit(p, bd, 2*d.params.ConnLookup+d.params.CmdBuild+d.params.CmdPost,
		func(id uint32) (Command, error) {
			return Command{
				ID: id, SrcClass: ClassNIC, DstClass: ClassNIC, Fn: fn,
				SrcArg: srcConn, DstArg: dstConn, Length: uint64(n),
			}, nil
		})
}
