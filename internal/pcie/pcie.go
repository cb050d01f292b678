// Package pcie models the PCI Express fabric of the testbed: a
// multi-slot Gen2 switch (the paper uses a Cyclone PCIe2-2707, five
// slots, 80 Gbps aggregate), per-port serializing links, DMA
// transactions between bus addresses, posted MMIO writes (doorbells),
// and MSI interrupts toward the root complex.
//
// The fabric enforces the peer-to-peer policy encoded in mem.Region:
// a device may always DMA host DRAM and its own BARs, but it may reach
// a peer region only when that region is an exposed P2P target. The
// SSD and the NIC expose none, the GPU and the HDC Engine do — which
// reproduces the paper's constraint that software-controlled P2P
// cannot do SSD↔NIC while DCS-ctrl can (§V-A).
package pcie

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// Fault-recovery timing: a dropped posted write is redelivered by the
// data-link layer's ACK/NAK replay after the replay timer; a delayed
// one sits in a congested switch queue; a degraded link stalls a DMA
// while retraining.
const (
	replayTimeout    = 3 * sim.Microsecond
	congestionDelay  = 1 * sim.Microsecond
	linkRetrainStall = 5 * sim.Microsecond
)

// Params are fabric timing/bandwidth parameters.
type Params struct {
	// LinkBps is each port link's usable bandwidth in bits/s
	// (Gen2 x8: 5 GT/s × 8 lanes × 8b/10b = 32 Gbit/s).
	LinkBps float64
	// PropLatency is the one-way propagation latency through the
	// switch (request routing + serialization start).
	PropLatency sim.Time
	// DMASetup is the fixed per-DMA-transaction overhead (descriptor
	// fetch, tag allocation).
	DMASetup sim.Time
	// MMIOLatency is the delivery latency of a posted write.
	MMIOLatency sim.Time
	// CoreBps is the switch core's aggregate bandwidth (80 Gbps on
	// the Cyclone PCIe2-2707).
	CoreBps float64
	// Faults injects transport-level faults (delayed/dropped posted
	// writes, link degradation); nil disables injection.
	Faults *fault.Injector
}

// DefaultParams mirror the evaluation platform (Table V).
func DefaultParams() Params {
	return Params{
		LinkBps:     32e9,
		PropLatency: 300 * sim.Nanosecond,
		DMASetup:    200 * sim.Nanosecond,
		MMIOLatency: 300 * sim.Nanosecond,
		CoreBps:     80e9,
	}
}

// Port is one switch slot with an attached device (or the root
// complex) and its up/down simplex links.
type Port struct {
	ID   int
	Name string
	up   *sim.BandwidthServer // device -> switch
	down *sim.BandwidthServer // switch -> device

	// Analytic link clocks for flow-exclusive fidelity: the time each
	// simplex link becomes free. Maintained only while FlowMode is on,
	// where they are the sole serialization state (the real servers are
	// never acquired, only accrued into for utilization reports).
	upFree   sim.Time
	downFree sim.Time

	bytesIn  int64
	bytesOut int64
}

// BytesIn returns bytes DMA'd into regions owned by this port.
func (p *Port) BytesIn() int64 { return p.bytesIn }

// BytesOut returns bytes DMA'd out of regions owned by this port.
func (p *Port) BytesOut() int64 { return p.bytesOut }

// Fabric is the switch plus the address-map-aware transaction engine.
type Fabric struct {
	env    *sim.Env
	mem    *mem.Map
	params Params
	ports  []*Port
	owner  map[*mem.Region]*Port
	core   *sim.BandwidthServer
	msi    map[int]func()

	p2pBytes  int64 // device-to-device payload bytes (never via host DRAM)
	hostBytes int64 // payload bytes with host DRAM as one endpoint

	// postedClock is the delivery time of the latest posted write.
	// PCIe posted writes are strictly ordered, so a delayed or
	// replayed TLP head-of-line blocks every later posted write —
	// without this a delayed command-slot write could be overtaken
	// by its own doorbell.
	postedClock sim.Time

	// Async-DMA engine state: instead of spawning a fresh proc (and
	// allocating its stack and completion signal) per DMAAsync call,
	// finished transfers park their worker on asyncJobs and recycle
	// their signal through sigFree. Both are plain LIFO/FIFO lists
	// drained on the simulated timeline, so reuse order is
	// deterministic — see DESIGN.md §11.
	asyncJobs *sim.Queue[asyncJob]
	asyncIdle int // workers parked on asyncJobs right now
	sigFree   []*sim.Signal

	// pwFree recycles posted-write delivery records (and their bound
	// callbacks) so every doorbell ring doesn't allocate a closure.
	pwFree []*postedWrite

	// flowExclusive marks this fabric as opted in to analytic DMA under
	// flow wire fidelity (SetFlowExclusive). coreFree is the analytic
	// switch-core clock, the core-server counterpart of Port.upFree.
	// flowHorizon is the highest entry time ever charged: analytic
	// exactness requires charges in entry order, so a charge below the
	// horizon is a scheduling bug and panics (loud beats silently
	// divergent). msiPending counts scheduled-but-undelivered MSIs,
	// part of the quiescence test gating multi-charge plans.
	flowExclusive bool
	// flowReactive marks every initiator as completion-driven, the
	// precondition for future-issue plan bookings (SetFlowReactive).
	flowReactive bool
	coreFree     sim.Time
	flowHorizon  sim.Time
	msiPending   int

	// faFree recycles analytic async-DMA completion records, msiFree
	// the MSI-delivery records that keep msiPending countable.
	faFree  []*flowAsync
	msiFree []*msiEvent
}

// postedWrite is one in-flight posted write. fn is the record's bound
// deliver method, created once per record and reused.
type postedWrite struct {
	f    *Fabric
	addr mem.Addr
	val  uint64
	fn   func()
}

func (pw *postedWrite) deliver() {
	var b [8]byte
	putLE64(b[:], pw.val)
	pw.f.mem.Write(pw.addr, b[:])
	pw.f.pwFree = append(pw.f.pwFree, pw)
}

// asyncJob is one queued DMAAsync transfer.
type asyncJob struct {
	initiator *Port
	dst, src  mem.Addr
	n         int
	sig       *sim.Signal
}

// NewFabric returns a fabric over the given address map.
func NewFabric(env *sim.Env, m *mem.Map, params Params) *Fabric {
	if params.CoreBps <= 0 {
		params.CoreBps = 80e9
	}
	return &Fabric{
		env:       env,
		mem:       m,
		params:    params,
		owner:     map[*mem.Region]*Port{},
		core:      sim.NewBandwidthServer(env, "pcie-core", params.CoreBps, 0),
		msi:       map[int]func(){},
		asyncJobs: sim.NewQueue[asyncJob](env, "dma-async-jobs"),
	}
}

// Mem returns the fabric's address map.
func (f *Fabric) Mem() *mem.Map { return f.mem }

// Params returns the fabric parameters.
func (f *Fabric) Params() Params { return f.params }

// PortCount returns the number of slots on the fabric. Analytic plans
// that book future charge entries use it as part of their quiescence
// test: on a fabric whose only initiators are one device and the root
// complex, the device can locally rule out foreign charges inside the
// plan window (DESIGN.md §13).
func (f *Fabric) PortCount() int { return len(f.ports) }

// AddPort creates a new slot.
func (f *Fabric) AddPort(name string) *Port {
	p := &Port{
		ID:   len(f.ports),
		Name: name,
		up:   sim.NewBandwidthServer(f.env, name+"-up", f.params.LinkBps, 0),
		down: sim.NewBandwidthServer(f.env, name+"-down", f.params.LinkBps, 0),
	}
	f.ports = append(f.ports, p)
	return p
}

// Attach declares port as the owner of region: DMA touching the
// region traverses this port's link.
func (f *Fabric) Attach(port *Port, region *mem.Region) {
	if prev, ok := f.owner[region]; ok {
		panic(fmt.Sprintf("pcie: region %s already attached to %s", region.Name, prev.Name))
	}
	f.owner[region] = port
}

// OwnerOf returns the port owning the region containing addr.
func (f *Fabric) OwnerOf(addr mem.Addr) (*Port, *mem.Region, error) {
	r, _, err := f.mem.Resolve(addr)
	if err != nil {
		return nil, nil, err
	}
	p, ok := f.owner[r]
	if !ok {
		return nil, r, fmt.Errorf("pcie: region %s not attached to any port", r.Name)
	}
	return p, r, nil
}

// P2PBytes returns payload bytes moved device-to-device.
func (f *Fabric) P2PBytes() int64 { return f.p2pBytes }

// HostBytes returns payload bytes moved with host DRAM as an endpoint.
func (f *Fabric) HostBytes() int64 { return f.hostBytes }

// canReach checks the P2P policy for initiator touching region r.
func canReach(initiator *Port, owner *Port, r *mem.Region) error {
	if owner == initiator {
		return nil // a device always reaches its own BARs/internal memory
	}
	if r.Kind == mem.HostDRAM {
		return nil // root complex accepts DMA from any device
	}
	if !r.P2PTarget {
		return fmt.Errorf("pcie: region %s (%s) is not a P2P target for %s",
			r.Name, r.Kind, initiator.Name)
	}
	return nil
}

// DMA moves n bytes from src to dst on behalf of initiator, charging
// link and switch-core occupancy plus propagation latency, then
// copying the real bytes. It returns an error (without moving data)
// when the P2P policy forbids the access — the condition that makes
// direct SSD↔NIC impossible.
func (f *Fabric) DMA(p *sim.Proc, initiator *Port, dst, src mem.Addr, n int) error {
	if n == 0 {
		return nil
	}
	if n < 0 {
		panic("pcie: negative DMA length")
	}
	srcPort, srcReg, err := f.OwnerOf(src)
	if err != nil {
		return err
	}
	dstPort, dstReg, err := f.OwnerOf(dst)
	if err != nil {
		return err
	}
	if err := canReach(initiator, srcPort, srcReg); err != nil {
		return err
	}
	if err := canReach(initiator, dstPort, dstReg); err != nil {
		return err
	}

	if srcPort == dstPort {
		// Device-local move: no bus traffic, only internal copy time.
		p.Sleep(f.params.DMASetup)
		f.mem.Copy(dst, src, n)
		return nil
	}

	if f.FlowMode() {
		f.flowXfer(p, srcPort, srcReg, dstPort, dstReg, dst, src, n)
		return nil
	}

	// Store-and-forward through the switch: serialize on the source
	// link, the switch core, and the destination link in turn. Each
	// stage is an independent bandwidth server, so concurrent
	// transactions on disjoint links pipeline freely — no transfer
	// ever holds one link while waiting for another (which would
	// convoy the whole fabric).
	if f.params.Faults.Hit(fault.PCIeLinkDegrade) {
		p.Sleep(linkRetrainStall)
	}
	p.Sleep(f.params.DMASetup)
	srcPort.up.Transfer(p, n)
	f.core.Transfer(p, n)
	dstPort.down.Transfer(p, n)
	p.Sleep(f.params.PropLatency)

	f.mem.Copy(dst, src, n)
	srcPort.bytesOut += int64(n)
	dstPort.bytesIn += int64(n)
	if srcReg.Kind == mem.HostDRAM || dstReg.Kind == mem.HostDRAM {
		f.hostBytes += int64(n)
	} else {
		f.p2pBytes += int64(n)
	}
	return nil
}

// DMAAsync starts a DMA and returns a signal that fires when it
// completes — the "multiple outstanding tags" mode DMA engines use to
// hide per-transaction latency. Policy errors panic (callers validate
// paths at configuration time).
//
// Transfers run on a free-listed pool of worker procs: a new worker is
// spawned only when every existing one is busy. Handing a job to a
// parked worker and spawning a fresh proc both enqueue exactly one
// proc-resume event at the current instant, so the pooled and the
// spawn-per-call implementations dispatch in identical (time, seq)
// order — the pool changes allocation cost, not the event timeline.
// The returned signal may be recycled via RecycleAsyncSignal once the
// waiter has consumed the completion.
func (f *Fabric) DMAAsync(initiator *Port, dst, src mem.Addr, n int) *sim.Signal {
	var sig *sim.Signal
	if k := len(f.sigFree); k > 0 {
		sig = f.sigFree[k-1]
		f.sigFree = f.sigFree[:k-1]
	} else {
		sig = sim.NewSignal(f.env)
	}
	if f.FlowMode() {
		f.flowDMAAsync(initiator, dst, src, n, sig)
		return sig
	}
	if f.asyncIdle > 0 {
		// Reserve the worker now: a second DMAAsync in the same instant
		// must not count this one as still idle. The job literal stays
		// out of the closure below so this warm path never heap-escapes.
		f.asyncIdle--
		f.asyncJobs.Put(asyncJob{initiator: initiator, dst: dst, src: src, n: n, sig: sig})
		return sig
	}
	// A new worker is a handler proc: no goroutine and no park/resume
	// handoffs. The machine and its bound body are created once per
	// pooled worker.
	job := asyncJob{initiator: initiator, dst: dst, src: src, n: n, sig: sig}
	w := &dmaWorker{f: f, job: job, hasJob: true}
	f.env.SpawnHandler("dma-async", w.run)
	return sig
}

// PrimeAsyncPool rebuilds the async-DMA worker pool population after
// a snapshot restore: n workers parked on the job queue, exactly as
// the checkpointed fabric had. A restored pool must not be left empty
// — a Put into a pool with parked workers can chain-wake them
// (spurious re-parking dispatches), so an empty pool and a populated
// one produce different dispatch counts. The caller runs the
// environment to quiescence afterwards so the workers reach their
// park points before simulated time resumes.
func (f *Fabric) PrimeAsyncPool(n int) {
	for i := 0; i < n; i++ {
		f.asyncIdle++
		w := &dmaWorker{f: f}
		f.env.SpawnHandler("dma-async", w.run)
	}
}

// RecycleAsyncSignal returns a consumed DMAAsync completion signal to
// the free list. Optional — callers that retain the signal simply let
// the GC have it — but hot async paths (the NIC receive engine) call
// it to make async DMA allocation-free in steady state. The caller
// must be the sole waiter and must have already observed the fire.
func (f *Fabric) RecycleAsyncSignal(sig *sim.Signal) {
	sig.Reset()
	f.sigFree = append(f.sigFree, sig)
}

// MustDMA is DMA that panics on policy errors; device models use it on
// paths that were validated at configuration time.
//
//dcslint:hotpath pcie_dma_4k
func (f *Fabric) MustDMA(p *sim.Proc, initiator *Port, dst, src mem.Addr, n int) {
	if err := f.DMA(p, initiator, dst, src, n); err != nil {
		panic(err)
	}
}

// DMAVec moves a scatter-gather list in one call. When gather is true
// the extents are sources, copied in order into a contiguous window
// starting at base; when false base is the source window, scattered
// across the extents. Zero-length extents are skipped, like a
// zero-length DMA.
//
// Each extent is charged exactly as the equivalent DMA call would be —
// per-extent setup, link/core occupancy, byte counters, and fault
// behaviour are all identical to the hand-written DMA loop it
// replaces (the equivalence test in pcie_test.go pins this down).
// What the vectored form buys is the memory mechanics: extent-by-
// extent region-to-region copies with zero intermediate buffers and
// no per-extent closure or signal state.
func (f *Fabric) DMAVec(p *sim.Proc, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) error {
	off := mem.Addr(0)
	for _, e := range exts {
		var err error
		if gather {
			err = f.DMA(p, initiator, base+off, e.Addr, e.Len)
		} else {
			err = f.DMA(p, initiator, e.Addr, base+off, e.Len)
		}
		if err != nil {
			return err
		}
		off += mem.Addr(e.Len)
	}
	return nil
}

// MustDMAVec is DMAVec that panics on policy errors.
//
//dcslint:hotpath hdc_gather_8x512
func (f *Fabric) MustDMAVec(p *sim.Proc, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) {
	if err := f.DMAVec(p, initiator, base, exts, gather); err != nil {
		panic(err)
	}
}

// SetFlowExclusive opts this fabric into analytic DMA when the
// environment runs at flow wire fidelity: cross-port transactions
// charge scalar per-server clocks and sleep once for the computed
// total instead of walking the three bandwidth servers, cutting ~5
// events per transaction to 1 while producing bit-identical times.
//
// The mode is exact because every transaction enters the fabric a
// uniform DMASetup after it is issued, so charge order equals
// wire-entry order and the scalar clocks replay the FIFO servers'
// hand-off decisions precisely; fault draws stay at the per-frame
// path's instants because vectored transfers compose extent-by-extent
// (see DESIGN.md §13). Intended for benchmark and equivalence-test
// rigs; workload fabrics stay per-frame. Call before any traffic —
// the fidelity of in-flight transfers must never change.
func (f *Fabric) SetFlowExclusive() { f.flowExclusive = true }

// FlowMode reports whether DMA on this fabric is analytic right now.
func (f *Fabric) FlowMode() bool {
	return f.flowExclusive && f.env.WireFidelity() == sim.WireFlow
}

func maxTime(a, b sim.Time) sim.Time {
	if a >= b {
		return a
	}
	return b
}

// flowCharge advances the analytic clocks for one cross-port transfer
// entering the fabric at entry and returns its completion time
// (propagation included). Counters and busy time accrue exactly as the
// three real Transfer calls would have.
//
// Exactness requires charges in entry order: a scalar clock cannot
// backfill a gap, so charging a later entry first would push an earlier
// one behind it even when their occupancies do not overlap. Every
// charge site keeps the uniform issue→entry lag of DMASetup, and
// multi-charge plans must pass the quiescence test (FlowQuiet plus the
// device's own idle checks) before booking future entries. The horizon
// panic turns any violation of that discipline into a crash instead of
// a silently divergent timeline.
func (f *Fabric) flowCharge(srcPort, dstPort *Port, n int, entry sim.Time) sim.Time {
	if entry < f.flowHorizon {
		panic(fmt.Sprintf("pcie: flow charge entry %v below horizon %v (out-of-order analytic charge)",
			entry, f.flowHorizon))
	}
	f.flowHorizon = entry
	linkT := sim.BpsToTime(n, f.params.LinkBps)
	coreT := sim.BpsToTime(n, f.params.CoreBps)
	upEnd := maxTime(entry, srcPort.upFree) + linkT
	coreEnd := maxTime(upEnd, f.coreFree) + coreT
	downEnd := maxTime(coreEnd, dstPort.downFree) + linkT
	srcPort.upFree, f.coreFree, dstPort.downFree = upEnd, coreEnd, downEnd
	srcPort.up.AccrueFlow(n, 1, linkT)
	f.core.AccrueFlow(n, 1, coreT)
	dstPort.down.AccrueFlow(n, 1, linkT)
	return downEnd + f.params.PropLatency
}

// flowXfer is the analytic body of a cross-port DMA: identical fault
// draw, identical completion time, identical counters — one sleep.
func (f *Fabric) flowXfer(p *sim.Proc, srcPort *Port, srcReg *mem.Region, dstPort *Port, dstReg *mem.Region, dst, src mem.Addr, n int) {
	if f.params.Faults.Hit(fault.PCIeLinkDegrade) {
		p.Sleep(linkRetrainStall)
	}
	now := f.env.Now()
	done := f.flowCharge(srcPort, dstPort, n, now+f.params.DMASetup)
	p.Sleep(done - now)
	f.mem.Copy(dst, src, n)
	f.flowAccount(srcPort, srcReg, dstPort, dstReg, n)
}

func (f *Fabric) flowAccount(srcPort *Port, srcReg *mem.Region, dstPort *Port, dstReg *mem.Region, n int) {
	srcPort.bytesOut += int64(n)
	dstPort.bytesIn += int64(n)
	if srcReg.Kind == mem.HostDRAM || dstReg.Kind == mem.HostDRAM {
		f.hostBytes += int64(n)
	} else {
		f.p2pBytes += int64(n)
	}
}

// FlowCopyNow charges one cross-port transfer issued at the current
// instant, copies the data immediately, and returns the completion
// time — the building block for device fast paths reading into private
// staging memory (BD fetch, frame gather). Because the copy lands at
// issue rather than completion, the destination must be hook-free
// device-internal memory and the source must obey the posted-buffer
// stability contract (DESIGN.md §13): submitters must not mutate a
// buffer they have handed to the device until its completion is
// reported, the same contract real DMA hardware imposes.
//
// FlowCopyNow draws no fault site. Callers on degrade-prone paths must
// draw fault.PCIeLinkDegrade themselves, sleep the stall, and only
// then issue — keeping the draw and the entry at the slow path's
// instants. Panics outside FlowMode or on an illegal path.
func (f *Fabric) FlowCopyNow(initiator *Port, dst, src mem.Addr, n int) sim.Time {
	if !f.FlowMode() {
		panic("pcie: FlowCopyNow outside flow mode")
	}
	srcPort, srcReg, dstPort, dstReg := f.mustResolvePair(initiator, dst, src)
	now := f.env.Now()
	if srcPort == dstPort {
		f.mem.Copy(dst, src, n)
		return now + f.params.DMASetup
	}
	done := f.flowCharge(srcPort, dstPort, n, now+f.params.DMASetup)
	f.mem.Copy(dst, src, n)
	f.flowAccount(srcPort, srcReg, dstPort, dstReg, n)
	return done
}

// FlowChargeAt charges one cross-port transfer issued at the given
// instant (now or later) and returns its completion time without
// copying — the plan-grade primitive for completion writes whose
// memory effects must land at completion (status, completion rings,
// payload deliveries with host-visible hooks). The caller applies the
// copy and side effects at the returned time via a scheduled event.
//
// Booking a future issue is only legal behind a quiescence check (see
// flowCharge): the caller must have established that no other charge
// can reach this fabric before the booked entry. FlowChargeAt draws no
// fault site — same contract as FlowCopyNow. Panics outside FlowMode,
// on an illegal path, or when issue precedes the current instant.
func (f *Fabric) FlowChargeAt(initiator *Port, dst, src mem.Addr, n int, issue sim.Time) sim.Time {
	if !f.FlowMode() {
		panic("pcie: FlowChargeAt outside flow mode")
	}
	if now := f.env.Now(); issue < now {
		panic(fmt.Sprintf("pcie: FlowChargeAt issue %v in the past (now %v)", issue, now))
	}
	srcPort, srcReg, dstPort, dstReg := f.mustResolvePair(initiator, dst, src)
	if srcPort == dstPort {
		return issue + f.params.DMASetup
	}
	done := f.flowCharge(srcPort, dstPort, n, issue+f.params.DMASetup)
	f.flowAccount(srcPort, srcReg, dstPort, dstReg, n)
	return done
}

// FlowQuiet reports whether the fabric itself could interleave a
// charge before a plan booked now: false while a posted write is in
// flight (its delivery may ring a doorbell and wake a charging proc)
// or an MSI is scheduled but undelivered. Devices combine this with
// their own idle checks before booking future entries.
func (f *Fabric) FlowQuiet() bool {
	return f.postedClock <= f.env.Now() && f.msiPending == 0
}

// SetFlowReactive declares that every initiator on this fabric issues
// new work only in reaction to device completions (completion-ring
// writes, status updates, MSIs) — never on its own clock. Future-issue
// plan bookings (the NIC's solo receive plan, transmit gather plans)
// require this declaration on top of SetFlowExclusive: with autonomous
// initiators, a doorbell can arrive inside a plan's window and its DMA
// would have to charge below the booked horizon, which the scalar
// clocks cannot express (the horizon panic would fire). Sequential
// analytic DMA and wire-level claims stay legal without it.
func (f *Fabric) SetFlowReactive() { f.flowReactive = true }

// FlowReactive reports whether future-issue plan bookings are allowed.
func (f *Fabric) FlowReactive() bool { return f.flowReactive }

// FlowClocksIdle reports whether every analytic server clock (links,
// switch core) is at or behind the current instant. Plans that
// dry-run a charge cascade before booking it require this: with idle
// clocks every sequential charge completes in exactly FlowXferTime,
// so the plan can verify its legality window without mutating state.
func (f *Fabric) FlowClocksIdle() bool {
	now := f.env.Now()
	if f.coreFree > now {
		return false
	}
	for _, p := range f.ports {
		if p.upFree > now || p.downFree > now {
			return false
		}
	}
	return true
}

// FlowXferTime returns the uncontended analytic duration of one
// cross-port transfer of n bytes from issue to completion — the value
// flowCharge produces when no clock is ahead of the entry.
func (f *Fabric) FlowXferTime(n int) sim.Time {
	return f.params.DMASetup + 2*sim.BpsToTime(n, f.params.LinkBps) +
		sim.BpsToTime(n, f.params.CoreBps) + f.params.PropLatency
}

// FlowDegradeArmed reports whether the link-degrade fault site can
// still fire on this fabric. Device fast paths that would skip the
// slow path's internal fault draws consult this and fall back to the
// per-transaction primitives (which draw at the exact slow-path
// instants) while the hazard is live.
func (f *Fabric) FlowDegradeArmed() bool {
	return f.params.Faults.Armed(fault.PCIeLinkDegrade)
}

func (f *Fabric) mustResolvePair(initiator *Port, dst, src mem.Addr) (srcPort *Port, srcReg *mem.Region, dstPort *Port, dstReg *mem.Region) {
	var err error
	srcPort, srcReg, err = f.OwnerOf(src)
	if err != nil {
		panic(err)
	}
	dstPort, dstReg, err = f.OwnerOf(dst)
	if err != nil {
		panic(err)
	}
	if err = canReach(initiator, srcPort, srcReg); err != nil {
		panic(err)
	}
	if err = canReach(initiator, dstPort, dstReg); err != nil {
		panic(err)
	}
	return srcPort, srcReg, dstPort, dstReg
}

// flowAsync is one analytic async-DMA completion in flight: the copy,
// the counters, and the signal fire all happen at the charged
// completion instant, exactly where the worker-proc path lands them.
type flowAsync struct {
	f        *Fabric
	srcPort  *Port
	srcReg   *mem.Region
	dstPort  *Port
	dstReg   *mem.Region
	dst, src mem.Addr
	n        int
	sig      *sim.Signal
	chargeFn func() // bound delayedCharge (degrade-stall path)
	doneFn   func() // bound complete
}

func (fa *flowAsync) delayedCharge() {
	f := fa.f
	done := f.flowCharge(fa.srcPort, fa.dstPort, fa.n, f.env.Now()+f.params.DMASetup)
	f.env.Schedule(done-f.env.Now(), fa.doneFn)
}

func (fa *flowAsync) complete() {
	f := fa.f
	f.mem.Copy(fa.dst, fa.src, fa.n)
	if fa.srcPort == fa.dstPort {
		fa.sig.Fire(nil)
	} else {
		f.flowAccount(fa.srcPort, fa.srcReg, fa.dstPort, fa.dstReg, fa.n)
		fa.sig.Fire(nil)
	}
	f.faFree = append(f.faFree, fa)
}

// flowDMAAsync is the analytic DMAAsync body: one scheduled event per
// transfer (two when a degrade stall fires, mirroring the worker's
// pre-entry stall sleep).
func (f *Fabric) flowDMAAsync(initiator *Port, dst, src mem.Addr, n int, sig *sim.Signal) {
	var fa *flowAsync
	if k := len(f.faFree); k > 0 {
		fa = f.faFree[k-1]
		f.faFree = f.faFree[:k-1]
	} else {
		fa = &flowAsync{f: f}
		fa.chargeFn = fa.delayedCharge
		fa.doneFn = fa.complete
	}
	fa.srcPort, fa.srcReg, fa.dstPort, fa.dstReg = f.mustResolvePair(initiator, dst, src)
	fa.dst, fa.src, fa.n, fa.sig = dst, src, n, sig
	if fa.srcPort == fa.dstPort {
		f.env.Schedule(f.params.DMASetup, fa.doneFn)
		return
	}
	if f.params.Faults.Hit(fault.PCIeLinkDegrade) {
		f.env.Schedule(linkRetrainStall, fa.chargeFn)
		return
	}
	done := f.flowCharge(fa.srcPort, fa.dstPort, n, f.env.Now()+f.params.DMASetup)
	f.env.Schedule(done-f.env.Now(), fa.doneFn)
}

// CheckPath verifies, without simulating, that initiator may move data
// between the two addresses — used by configuration code to decide
// whether a direct path exists (e.g. SW-P2P feasibility probing).
func (f *Fabric) CheckPath(initiator *Port, a, b mem.Addr) error {
	pa, ra, err := f.OwnerOf(a)
	if err != nil {
		return err
	}
	pb, rb, err := f.OwnerOf(b)
	if err != nil {
		return err
	}
	if err := canReach(initiator, pa, ra); err != nil {
		return err
	}
	return canReach(initiator, pb, rb)
}

// PostedWrite delivers a small write (a doorbell ring) to addr after
// the MMIO latency. It does not block the caller: posted writes
// complete from the initiator's point of view immediately.
//
// Under fault injection the TLP may be delayed (switch congestion) or
// dropped and replayed by the data-link layer — both only add
// delivery latency; posted writes are never lost for good, matching
// PCIe's ACK/NAK guarantee.
func (f *Fabric) PostedWrite(addr mem.Addr, val uint64) {
	delay := f.params.MMIOLatency
	if f.params.Faults.Hit(fault.PCIeDropPosted) {
		delay += replayTimeout
	} else if f.params.Faults.Hit(fault.PCIeDelayPosted) {
		delay += congestionDelay
	}
	deliverAt := f.env.Now() + delay
	if deliverAt < f.postedClock {
		deliverAt = f.postedClock
	}
	f.postedClock = deliverAt
	var pw *postedWrite
	if k := len(f.pwFree); k > 0 {
		pw = f.pwFree[k-1]
		f.pwFree = f.pwFree[:k-1]
	} else {
		//dcslint:allow noalloc pool-miss arm: each postedWrite and its bound deliver are created once, then free-listed
		pw = &postedWrite{f: f}
		//dcslint:allow noalloc see above: one-time per pooled object, reused forever after
		pw.fn = pw.deliver
	}
	pw.addr, pw.val = addr, val
	f.env.Schedule(deliverAt-f.env.Now(), pw.fn)
}

// ReadReg performs a non-posted register read: the caller blocks for a
// round trip and receives the current value.
func (f *Fabric) ReadReg(p *sim.Proc, addr mem.Addr) uint64 {
	p.Sleep(2 * f.params.MMIOLatency)
	return le64(f.mem.View(addr, 8))
}

// OnMSI registers a handler for an interrupt vector. Handlers run on
// the scheduler and must not block (wake a process instead).
func (f *Fabric) OnMSI(vector int, fn func()) {
	if _, dup := f.msi[vector]; dup {
		panic(fmt.Sprintf("pcie: MSI vector %d already registered", vector))
	}
	f.msi[vector] = fn
}

// msiEvent is one in-flight MSI delivery, counted so FlowQuiet can
// tell whether an interrupt handler might still charge the fabric.
type msiEvent struct {
	f  *Fabric
	hn func() // registered handler
	fn func() // bound deliver
}

func (m *msiEvent) deliver() {
	f := m.f
	f.msiPending--
	hn := m.hn
	m.hn = nil
	f.msiFree = append(f.msiFree, m)
	hn()
}

// RaiseMSI posts an interrupt toward the root complex.
func (f *Fabric) RaiseMSI(vector int) {
	fn, ok := f.msi[vector]
	if !ok {
		panic(fmt.Sprintf("pcie: MSI vector %d has no handler", vector))
	}
	var m *msiEvent
	if k := len(f.msiFree); k > 0 {
		m = f.msiFree[k-1]
		f.msiFree = f.msiFree[:k-1]
	} else {
		m = &msiEvent{f: f}
		m.fn = m.deliver
	}
	m.hn = fn
	f.msiPending++
	f.env.Schedule(f.params.MMIOLatency, m.fn)
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
