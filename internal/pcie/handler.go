package pcie

// Run-to-completion handler-proc machinery for the fabric (DESIGN.md
// §16). Xfer and XferVec replay one (*Fabric).DMA / (*Fabric).DMAVec
// call as an explicit state machine a handler proc can drive without
// ever parking: every Sleep becomes a Rearm, every bandwidth-server
// Transfer becomes the staged AcquireH / HoldTime / CompleteH triple,
// and fault draws happen at exactly the instants the blocking call
// draws them — so a transfer consumes the same event sequence whether
// a goroutine proc calls DMA or a handler steps an Xfer, and the
// deterministic fault streams never diverge.
//
// The pooled async-DMA worker (dmaWorker) is always a handler proc:
// DMAAsync spawns one only when every pooled worker is busy, and idle
// workers park on the asyncJobs queue for the warm hand-off path.

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// xferState enumerates where an Xfer resumes after a re-arm. States
// are ordered along the store-and-forward pipeline; zero-duration
// stages fall through inline exactly where the blocking DMA call's
// Sleep(0) would return without an event.
type xferState int

const (
	xferIdle     xferState = iota // no transfer staged
	xferStart                     // validate, resolve, draw degrade fault
	xferSetup                     // degrade stall elapsed; charge DMA setup
	xferAcqUp                     // acquire the source up-link
	xferUpHold                    // up-link occupancy elapsed
	xferAcqCore                   // acquire the switch core
	xferCoreHold                  // core occupancy elapsed
	xferAcqDown                   // acquire the destination down-link
	xferDownHold                  // down-link occupancy elapsed
	xferProp                      // propagation elapsed; copy and account
	xferLocal                     // device-local: setup elapsed; copy
	xferDone                      // terminal
)

// Xfer is one in-flight DMA transaction driven by a handler proc: a
// run-to-completion replay of (*Fabric).MustDMA. Start stages the
// transfer, then the owner calls Step from its handler body until Step
// reports true; every false return means the machine re-armed itself
// (or enrolled on a resource) and the body must return.
//
// The zero value is idle and reusable: a completed Xfer may be
// Started again, so one machine per owner serves any number of
// sequential transfers without allocating.
type Xfer struct {
	f         *Fabric
	st        xferState
	initiator *Port
	dst, src  mem.Addr
	n         int

	srcPort, dstPort *Port
	srcReg, dstReg   *mem.Region
}

// Start stages one transfer. Policy errors panic (the MustDMA
// contract: handler paths are validated at configuration time).
func (x *Xfer) Start(f *Fabric, initiator *Port, dst, src mem.Addr, n int) {
	if x.st != xferIdle {
		panic("pcie: Xfer started while a transfer is in flight")
	}
	x.f = f
	x.initiator = initiator
	x.dst, x.src, x.n = dst, src, n
	x.st = xferStart
}

// Active reports whether a transfer is staged or in flight.
func (x *Xfer) Active() bool { return x.st != xferIdle }

// Step advances the transfer and reports whether it completed. On
// false the handler body must return: the machine has re-armed h or
// enrolled it on a bandwidth server and will make progress on the
// next dispatch. The event sequence is identical to the blocking
// MustDMA call it replays — same fault draws, same per-stage sleeps,
// same FIFO positions on every server.
//
//dcslint:hotpath
func (x *Xfer) Step(h *sim.HandlerCtx) bool {
	f := x.f
	for {
		switch x.st {
		case xferIdle:
			panic("pcie: Step on idle Xfer")
		case xferStart:
			if x.n == 0 {
				x.finish()
				return true
			}
			if x.n < 0 {
				panic("pcie: negative DMA length")
			}
			x.srcPort, x.srcReg, x.dstPort, x.dstReg = f.mustResolvePair(x.initiator, x.dst, x.src)
			if x.srcPort == x.dstPort {
				// Device-local move: no bus traffic, only internal copy
				// time.
				x.st = xferLocal
				if d := f.params.DMASetup; d > 0 {
					h.Rearm(d)
					return false
				}
				continue
			}
			x.st = xferSetup
			if f.params.Faults.Hit(fault.PCIeLinkDegrade) {
				h.Rearm(linkRetrainStall)
				return false
			}
			continue
		case xferSetup:
			x.st = xferAcqUp
			if d := f.params.DMASetup; d > 0 {
				h.Rearm(d)
				return false
			}
		case xferAcqUp:
			if !x.srcPort.up.AcquireH(h) {
				return false
			}
			x.st = xferUpHold
			if d := x.srcPort.up.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferUpHold:
			x.srcPort.up.CompleteH(x.n)
			x.st = xferAcqCore
		case xferAcqCore:
			if !f.core.AcquireH(h) {
				return false
			}
			x.st = xferCoreHold
			if d := f.core.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferCoreHold:
			f.core.CompleteH(x.n)
			x.st = xferAcqDown
		case xferAcqDown:
			if !x.dstPort.down.AcquireH(h) {
				return false
			}
			x.st = xferDownHold
			if d := x.dstPort.down.HoldTime(x.n); d > 0 {
				h.Rearm(d)
				return false
			}
		case xferDownHold:
			x.dstPort.down.CompleteH(x.n)
			x.st = xferProp
			if d := f.params.PropLatency; d > 0 {
				h.Rearm(d)
				return false
			}
		case xferProp:
			f.mem.Copy(x.dst, x.src, x.n)
			f.account(x.srcPort, x.srcReg, x.dstPort, x.dstReg, x.n)
			x.finish()
			return true
		case xferLocal:
			f.mem.Copy(x.dst, x.src, x.n)
			x.finish()
			return true
		default:
			panic(fmt.Sprintf("pcie: Xfer in impossible state %d", x.st))
		}
	}
}

// finish resets the machine to idle, dropping region/port references.
func (x *Xfer) finish() {
	x.st = xferIdle
	x.srcPort, x.dstPort = nil, nil
	x.srcReg, x.dstReg = nil, nil
}

// XferVec is the handler-proc replay of (*Fabric).MustDMAVec: the
// extents run strictly in order, each charged exactly as the
// equivalent DMA call, with zero-length extents skipped inline. Like
// Xfer, the zero value is idle and reusable.
type XferVec struct {
	x         Xfer
	f         *Fabric
	initiator *Port
	base      mem.Addr
	exts      []mem.Extent
	gather    bool
	i         int
	off       mem.Addr
	active    bool
}

// Start stages one vectored transfer. The extent slice must stay
// unmutated until Step reports completion (the posted-buffer
// stability contract DMA hardware imposes anyway).
func (v *XferVec) Start(f *Fabric, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) {
	if v.active || v.x.Active() {
		panic("pcie: XferVec started while a transfer is in flight")
	}
	v.f = f
	v.initiator = initiator
	v.base = base
	v.exts = exts
	v.gather = gather
	v.i, v.off = 0, 0
	v.active = true
}

// Active reports whether a vectored transfer is in flight.
func (v *XferVec) Active() bool { return v.active }

// Step advances the vectored transfer and reports whether every
// extent completed. On false the handler body must return, exactly as
// with Xfer.Step.
//
//dcslint:hotpath
func (v *XferVec) Step(h *sim.HandlerCtx) bool {
	if !v.active {
		panic("pcie: Step on idle XferVec")
	}
	for {
		if !v.x.Active() {
			if v.i == len(v.exts) {
				v.active = false
				v.exts = nil
				return true
			}
			e := v.exts[v.i]
			if v.gather {
				v.x.Start(v.f, v.initiator, v.base+v.off, e.Addr, e.Len)
			} else {
				v.x.Start(v.f, v.initiator, e.Addr, v.base+v.off, e.Len)
			}
		}
		if !v.x.Step(h) {
			return false
		}
		v.off += mem.Addr(v.exts[v.i].Len)
		v.i++
	}
}

// dmaWorker is a pooled async-DMA worker: it runs its job's transfer
// on the Xfer machine, fires the job's signal, re-pools itself, and
// fetches the next job.
type dmaWorker struct {
	f       *Fabric
	x       Xfer
	job     asyncJob
	hasJob  bool
	running bool // the staged job's transfer has been started
}

// run is the worker's handler body.
func (w *dmaWorker) run(h *sim.HandlerCtx) {
	f := w.f
	for {
		if !w.hasJob {
			job, ok := f.asyncJobs.GetH(h)
			if !ok {
				return // parked on the job queue until DMAAsync hands it a job
			}
			w.job = job
			w.hasJob = true
		}
		if !w.running {
			w.x.Start(f, w.job.initiator, w.job.dst, w.job.src, w.job.n)
			w.running = true
		}
		if !w.x.Step(h) {
			return
		}
		w.job.sig.Fire(nil)
		f.asyncIdle++
		w.job = asyncJob{}
		w.hasJob, w.running = false, false
	}
}
