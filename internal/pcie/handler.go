package pcie

// The fabric's DMA state machines (DESIGN.md §16). Xfer and XferVec
// are the one implementation of a transfer: every stage is a Rearm or
// a bandwidth server's staged AcquireH / HoldTime / CompleteH triple,
// so a run-to-completion handler proc drives them without ever
// parking. The blocking (*Fabric).DMA and (*Fabric).DMAVec are the same
// machines driven by a goroutine proc that parks while Step reports
// not done, so a transfer consumes the same event sequence and the
// same fault draws whichever flavor of proc moves it.
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
// are ordered along the store-and-forward pipeline: the source link,
// the switch core and the destination link serialize the transfer in
// turn. Each stage is an independent bandwidth server, so concurrent
// transactions on disjoint links pipeline freely — no transfer ever
// holds one link while waiting for another (which would convoy the
// whole fabric). Zero-duration stages fall through inline with no
// event, as Sleep(0) does.
type xferState int

const (
	xferIdle     xferState = iota // no transfer staged
	xferStart                     // ends resolved; draw degrade fault
	xferSetup                     // degrade stall elapsed; charge DMA setup
	xferAcqUp                     // acquire the source up-link
	xferUpHold                    // up-link occupancy elapsed
	xferAcqCore                   // acquire the switch core
	xferCoreHold                  // core occupancy elapsed
	xferAcqDown                   // acquire the destination down-link
	xferDownHold                  // down-link occupancy elapsed
	xferProp                      // propagation elapsed; copy and account
	xferLocal                     // device-local: setup elapsed; copy
)

// Xfer is one DMA transaction as a state machine. Start stages the
// transfer, then the owner calls Step until it reports true; every
// false return means the machine re-armed the proc (or enrolled it on
// a bandwidth server) and the caller must return (a handler body) or
// park (a goroutine proc, which is how DMA runs it).
//
// The zero value is idle and reusable: a completed Xfer may be
// Started again, so one machine per owner serves any number of
// sequential transfers without allocating.
type Xfer struct {
	f        *Fabric
	st       xferState
	dst, src mem.Addr
	n        int

	srcPort, dstPort *Port
	srcReg, dstReg   *mem.Region
}

// Start stages one transfer. An end that fails to resolve, the P2P
// policy or the bounds check panics (the MustDMA contract: handler
// paths are validated at configuration time).
func (x *Xfer) Start(f *Fabric, initiator *Port, dst, src mem.Addr, n int) {
	if err := x.StartErr(f, initiator, dst, src, n); err != nil {
		panic(err)
	}
}

// StartErr stages one transfer after resolving and checking both ends
// (endpoint) — the one resolution every DMA form shares. It stages
// nothing and returns the error when a check fails, for a transfer
// whose address comes from outside the model (a host-supplied table).
// A zero-length transfer touches no address and checks nothing.
func (x *Xfer) StartErr(f *Fabric, initiator *Port, dst, src mem.Addr, n int) error {
	if x.st != xferIdle {
		panic("pcie: Xfer started while a transfer is in flight")
	}
	if n < 0 {
		panic("pcie: negative DMA length")
	}
	if n > 0 {
		srcPort, srcReg, err := f.endpoint(initiator, src, n)
		if err != nil {
			return err
		}
		dstPort, dstReg, err := f.endpoint(initiator, dst, n)
		if err != nil {
			return err
		}
		x.srcPort, x.srcReg, x.dstPort, x.dstReg = srcPort, srcReg, dstPort, dstReg
	}
	x.f = f
	x.dst, x.src, x.n = dst, src, n
	x.st = xferStart
	return nil
}

// active reports whether a transfer is staged or in flight.
func (x *Xfer) active() bool { return x.st != xferIdle }

// Step advances the transfer and reports whether it completed. On
// false the caller must return or park: the machine has re-armed h or
// enrolled it on a bandwidth server and will make progress on the
// next dispatch.
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

// XferVec is a scatter-gather list as a state machine: the extents
// run strictly in order, each an Xfer charged exactly as the
// equivalent DMA call, with zero-length extents skipped inline.
// DMAVec runs it from a goroutine proc. Like Xfer, the zero value is
// idle and reusable.
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
	if v.active {
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

// Step advances the vectored transfer and reports whether every
// extent completed. On false the caller must return or park, exactly
// as with Xfer.Step. An extent that fails its Start checks panics.
//
//dcslint:hotpath
func (v *XferVec) Step(h *sim.HandlerCtx) bool {
	done, err := v.StepErr(h)
	if err != nil {
		panic(err)
	}
	return done
}

// StepErr is Step with the failing extent's error returned instead:
// the machine is then idle again, with every earlier extent moved. A
// device whose extents come from a command (an SSD's PRP pages) fails
// the command on it.
//
//dcslint:hotpath
func (v *XferVec) StepErr(h *sim.HandlerCtx) (bool, error) {
	if !v.active {
		panic("pcie: Step on idle XferVec")
	}
	for {
		if !v.x.active() {
			if v.i == len(v.exts) {
				v.active = false
				v.exts = nil
				return true, nil
			}
			e := v.exts[v.i]
			dst, src := v.base+v.off, e.Addr
			if !v.gather {
				dst, src = src, dst
			}
			if err := v.x.StartErr(v.f, v.initiator, dst, src, e.Len); err != nil {
				v.active = false
				v.exts = nil
				return false, err
			}
		}
		if !v.x.Step(h) {
			return false, nil
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
			job, ok := f.async.GetH(h)
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
		f.async.Done()
		w.job = asyncJob{}
		w.hasJob, w.running = false, false
	}
}
