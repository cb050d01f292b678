// Package hostos models the host side of the testbed: CPU cores, the
// cost of software code paths (syscalls, VFS, block layer, TCP/IP
// stack, interrupts), a file system with extent maps and a page cache,
// and per-category CPU accounting.
//
// The paper's argument is about where CPU cycles go, so every software
// step here is an Exec: acquire a core, advance time, release, and
// charge a trace.Category. Utilization figures (3b, 8, 12, 13) fall
// out of the accounting directly.
package hostos

import (
	"fmt"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// Params hold the calibrated costs of host software paths. The
// defaults approximate the evaluation platform: a 6-core Xeon E5-2630
// running an optimized (direct-I/O, reduced-copy) kernel stack, per
// the paper's choice of baseline (§II-B1).
type Params struct {
	Cores int

	SyscallEntry  sim.Time // user->kernel crossing
	SyscallExit   sim.Time // kernel->user crossing
	VFSLookup     sim.Time // path/extent resolution per request
	PageCacheOp   sim.Time // stock-kernel page cache management per page
	BlockSubmit   sim.Time // block layer + NVMe driver: build/submit one command
	BlockComplete sim.Time // NVMe driver completion handling per command
	SockSendSetup sim.Time // socket send path fixed cost per call
	SockPerSeg    sim.Time // TCP/IP per-segment cost (header build, descriptor)
	SockBufOp     sim.Time // stock-kernel socket buffer management per call
	SockRecvSetup sim.Time // socket receive path fixed cost per call
	IRQOverhead   sim.Time // interrupt entry/exit + schedule
	CtxSwitch     sim.Time // blocking wait: sleep + wakeup cost
	GPULaunch     sim.Time // CPU-side cost to launch a GPU kernel
	GPUDMASetup   sim.Time // CPU-side cost to program one GPU copy
	CopyBps       float64  // CPU memcpy bandwidth, bits/s
}

// DefaultParams return the calibrated host costs.
func DefaultParams() Params {
	return Params{
		Cores:         6,
		SyscallEntry:  500 * sim.Nanosecond,
		SyscallExit:   500 * sim.Nanosecond,
		VFSLookup:     3500 * sim.Nanosecond,
		PageCacheOp:   1200 * sim.Nanosecond,
		BlockSubmit:   6000 * sim.Nanosecond,
		BlockComplete: 4000 * sim.Nanosecond,
		SockSendSetup: 12000 * sim.Nanosecond,
		SockPerSeg:    800 * sim.Nanosecond,
		SockBufOp:     2500 * sim.Nanosecond,
		SockRecvSetup: 6000 * sim.Nanosecond,
		IRQOverhead:   1000 * sim.Nanosecond,
		CtxSwitch:     1200 * sim.Nanosecond,
		GPULaunch:     10000 * sim.Nanosecond,
		GPUDMASetup:   8000 * sim.Nanosecond,
		CopyBps:       48e9, // ~6 GB/s single-core memcpy
	}
}

// Host is a CPU complex: cores, accounting, and an IRQ service path.
type Host struct {
	Env    *sim.Env
	Params Params
	Cores  *sim.Resource
	Acct   *trace.CPUAccount

	irqQ *sim.Queue[irqWork]
}

type irqWork struct {
	cost sim.Time
	cat  trace.Category
	fn   func()
}

// NewHost builds a host with params.Cores cores and starts the IRQ
// service handler proc.
func NewHost(env *sim.Env, params Params) *Host {
	if params.Cores <= 0 {
		panic(fmt.Sprintf("hostos: %d cores", params.Cores))
	}
	h := &Host{
		Env:    env,
		Params: params,
		Cores:  sim.NewResource(env, "cpu-cores", params.Cores),
		Acct:   trace.NewCPUAccount(env),
		irqQ:   sim.NewQueue[irqWork](env, "irq"),
	}
	env.SpawnHandler("irq-service", (&irqMachine{host: h}).run)
	return h
}

// irqMachine is the IRQ service, a run-to-completion handler proc
// (DESIGN.md §16): it takes queued interrupt work, charges the IRQ
// overhead plus the work's cost on a core, then runs the bottom half.
type irqMachine struct {
	host *Host
	w    irqWork
	busy bool // w's charge is staged or in flight
	exec ExecH
}

// run is the machine's handler body.
func (m *irqMachine) run(hc *sim.HandlerCtx) {
	h := m.host
	for {
		if !m.busy {
			w, ok := h.irqQ.GetH(hc)
			if !ok {
				return
			}
			m.w, m.busy = w, true
			m.exec.Start(h, w.cat, h.Params.IRQOverhead+w.cost, nil)
		}
		if !m.exec.Step(hc) {
			return
		}
		fn := m.w.fn
		m.w, m.busy = irqWork{}, false
		if fn != nil {
			//dcslint:allow noblockhandler IRQ bottom halves take no Proc and cannot park; they fire signals, broadcast conds and ring doorbells only
			fn()
		}
	}
}

// Exec occupies one core for d, charging category cat and, when bd is
// non-nil, the latency breakdown too. This is the single choke point
// through which all modelled software cost flows: it drives an ExecH,
// parking while the charge is in flight.
func (h *Host) Exec(p *sim.Proc, cat trace.Category, d sim.Time, bd *trace.Breakdown) {
	var x ExecH
	x.Start(h, cat, d, bd)
	for !x.Step(p.Ctx()) {
		p.Park()
	}
}

// execHState enumerates where an ExecH resumes.
type execHState int

const (
	execNone execHState = iota // nothing staged (or a zero-cost Exec)
	execAcq                    // acquiring a core
	execHold                   // core occupancy elapsing
)

// ExecH is the one implementation of a core charge (DESIGN.md §16):
// acquire a core, advance time, release, charge — staged across
// dispatches so a run-to-completion handler never parks; Exec is the
// same machine driven by a goroutine proc. Start stages the charge,
// then the owner calls Step until it reports true; a zero-or-negative
// cost completes at once, with no core, charge or event. The zero
// value is idle and reusable, so one machine per owner serves any
// number of sequential charges without allocating.
type ExecH struct {
	host *Host
	cat  trace.Category
	d    sim.Time
	bd   *trace.Breakdown
	st   execHState
}

// Start stages one core charge. Panics if a charge is in flight.
func (x *ExecH) Start(host *Host, cat trace.Category, d sim.Time, bd *trace.Breakdown) {
	if x.st != execNone {
		panic("hostos: ExecH started while a charge is in flight")
	}
	if d <= 0 {
		return // no core, no charge, no event
	}
	x.host, x.cat, x.d, x.bd = host, cat, d, bd
	x.st = execAcq
}

// Step advances the charge and reports whether it completed. On false
// the caller must return (a handler) or park (a goroutine proc): the
// machine enrolled on the core pool or re-armed for its occupancy and
// resumes on the next dispatch.
func (x *ExecH) Step(h *sim.HandlerCtx) bool {
	switch x.st {
	case execNone:
		return true // zero-cost charge: completed at Start
	case execAcq:
		if !x.host.Cores.AcquireH(h) {
			return false
		}
		x.st = execHold
		h.Rearm(x.d)
		return false
	case execHold:
		x.host.Cores.Release()
		x.host.Acct.Charge(x.cat, x.d)
		if x.bd != nil {
			x.bd.Add(x.cat, x.d)
		}
		x.st = execNone
		x.host, x.bd = nil, nil
		return true
	default:
		panic("hostos: ExecH in impossible state")
	}
}

// RaiseIRQ enqueues interrupt work: IRQ overhead plus cost is charged
// to cat on a core, then fn runs (non-blocking; typically fires a
// signal that wakes a sleeping driver thread).
func (h *Host) RaiseIRQ(cat trace.Category, cost sim.Time, fn func()) {
	h.irqQ.Put(irqWork{cost: cost, cat: cat, fn: fn})
}

// CopyTime returns the single-core time to memcpy n bytes.
func (h *Host) CopyTime(n int) sim.Time {
	return sim.BpsToTime(n, h.Params.CopyBps)
}

// Copy charges a CPU-mediated copy of n bytes to category cat.
func (h *Host) Copy(p *sim.Proc, cat trace.Category, n int, bd *trace.Breakdown) {
	h.Exec(p, cat, h.CopyTime(n), bd)
}

// Utilization returns total CPU utilization across all cores since the
// last account reset.
func (h *Host) Utilization() float64 {
	return h.Acct.TotalUtilization(h.Params.Cores)
}
