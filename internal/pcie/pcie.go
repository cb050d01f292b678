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

	// msiPending counts scheduled-but-undelivered MSIs (a checkpoint
	// refuses an interrupt in flight); msiFree recycles the delivery
	// records that keep it countable.
	msiPending int
	msiFree    []*msiEvent
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

// endpoint resolves one end of an n-byte transfer and checks that
// initiator may reach it and that the n bytes lie inside its region.
func (f *Fabric) endpoint(initiator *Port, addr mem.Addr, n int) (*Port, *mem.Region, error) {
	port, r, err := f.OwnerOf(addr)
	if err != nil {
		return nil, nil, err
	}
	if err := canReach(initiator, port, r); err != nil {
		return nil, nil, err
	}
	if addr+mem.Addr(n) > r.End() {
		return nil, nil, fmt.Errorf("pcie: %d-byte DMA at %#x runs past the end of %s", n, uint64(addr), r.Name)
	}
	return port, r, nil
}

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
// when an end is unmapped or runs past its region, or when the P2P
// policy forbids the access — the condition that makes direct
// SSD↔NIC impossible. The transfer is an Xfer, stepped with a park
// while it reports not done.
func (f *Fabric) DMA(p *sim.Proc, initiator *Port, dst, src mem.Addr, n int) error {
	var x Xfer
	if err := x.start(f, initiator, dst, src, n); err != nil {
		return err
	}
	for !x.Step(p.Ctx()) {
		p.Park()
	}
	return nil
}

// account credits one completed cross-port transfer to the port and
// fabric byte counters.
func (f *Fabric) account(srcPort *Port, srcReg *mem.Region, dstPort *Port, dstReg *mem.Region, n int) {
	srcPort.bytesOut += int64(n)
	dstPort.bytesIn += int64(n)
	if srcReg.Kind == mem.HostDRAM || dstReg.Kind == mem.HostDRAM {
		f.hostBytes += int64(n)
	} else {
		f.p2pBytes += int64(n)
	}
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
// the GC have it — but hot async paths (the NIC receive completer)
// call it to make async DMA allocation-free in steady state. The caller
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
// The list runs as an XferVec, stepped with a park while it reports
// not done, so each extent is charged exactly as the equivalent DMA
// call would be — per-extent setup, link/core occupancy, byte
// counters, and fault behaviour. An extent that fails to resolve or
// the policy check stops the list with its error, after every earlier
// extent has moved. What the vectored form buys is the memory
// mechanics: extent-by-extent region-to-region copies with zero
// intermediate buffers and no per-extent closure or signal state.
func (f *Fabric) DMAVec(p *sim.Proc, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) error {
	var v XferVec
	v.Start(f, initiator, base, exts, gather)
	for {
		done, err := v.step(p.Ctx())
		if done || err != nil {
			return err
		}
		p.Park()
	}
}

// MustDMAVec is DMAVec that panics on policy errors.
//
//dcslint:hotpath hdc_gather_8x512
func (f *Fabric) MustDMAVec(p *sim.Proc, initiator *Port, base mem.Addr, exts []mem.Extent, gather bool) {
	if err := f.DMAVec(p, initiator, base, exts, gather); err != nil {
		panic(err)
	}
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

// OnMSI registers a handler for an interrupt vector. Handlers run on
// the scheduler and must not block (wake a process instead).
func (f *Fabric) OnMSI(vector int, fn func()) {
	if _, dup := f.msi[vector]; dup {
		panic(fmt.Sprintf("pcie: MSI vector %d already registered", vector))
	}
	f.msi[vector] = fn
}

// msiEvent is one in-flight MSI delivery, counted so a checkpoint can
// refuse an interrupt still in flight.
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
