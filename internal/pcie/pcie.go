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

	// async runs DMAAsync transfers on a pool of handler workers, and
	// sigFree recycles their completion signals, so async DMA allocates
	// nothing in steady state (DESIGN.md §11).
	async   *sim.Pool[asyncJob]
	sigFree []*sim.Signal

	// posted delivers posted writes; msis delivers MSIs, and its
	// Pending count lets a checkpoint refuse an interrupt in flight.
	posted *sim.Deferred[postedWrite]
	msis   *sim.Deferred[func()]
}

// postedWrite is one in-flight posted write.
type postedWrite struct {
	addr mem.Addr
	val  uint64
}

func (f *Fabric) deliverPosted(pw postedWrite) {
	var b [8]byte
	putLE64(b[:], pw.val)
	f.mem.Write(pw.addr, b[:])
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
	f := &Fabric{
		env:    env,
		mem:    m,
		params: params,
		owner:  map[*mem.Region]*Port{},
		core:   sim.NewBandwidthServer(env, "pcie-core", params.CoreBps, 0),
		msi:    map[int]func(){},
	}
	f.async = sim.NewPool(env, "async-DMA", func(job asyncJob, ok bool) {
		// A worker is a handler proc: no goroutine and no park/resume
		// handoffs. The machine and its bound body are created once per
		// pooled worker.
		w := &dmaWorker{f: f, job: job, hasJob: ok}
		env.SpawnHandler("dma-async", w.run)
	})
	f.posted = sim.NewDeferred(env, f.deliverPosted)
	f.msis = sim.NewDeferred(env, func(handler func()) { handler() })
	return f
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

// Detach removes the owner Attach declared for region. A user mapping
// (mem.Map.MapUser) is attached for one blocking call and detached
// before it is unmapped, once no DMA reads it any more.
func (f *Fabric) Detach(region *mem.Region) {
	if _, ok := f.owner[region]; !ok {
		panic(fmt.Sprintf("pcie: region %s is not attached", region.Name))
	}
	delete(f.owner, region)
}

// StaleOwners counts owner entries whose region the address map no
// longer holds: a region unmapped without Detach. A quiescent fabric
// has none.
func (f *Fabric) StaleOwners() int {
	stale := 0
	for r := range f.owner {
		if !f.mem.Holds(r) {
			stale++
		}
	}
	return stale
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
	if err := x.StartErr(f, initiator, dst, src, n); err != nil {
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
// Transfers run on a pool of worker procs (sim.Pool): a new worker
// starts only when every existing one is busy, and pooling does not
// move the event timeline. The returned signal may be recycled via
// RecycleAsyncSignal once the waiter has consumed the completion.
func (f *Fabric) DMAAsync(initiator *Port, dst, src mem.Addr, n int) *sim.Signal {
	var sig *sim.Signal
	if k := len(f.sigFree); k > 0 {
		sig = f.sigFree[k-1]
		f.sigFree = f.sigFree[:k-1]
	} else {
		sig = sim.NewSignal(f.env)
	}
	f.async.Submit(asyncJob{initiator: initiator, dst: dst, src: src, n: n, sig: sig})
	return sig
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
		done, err := v.StepErr(p.Ctx())
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
	f.posted.After(deliverAt-f.env.Now(), postedWrite{addr: addr, val: val})
}

// OnMSI registers a handler for an interrupt vector. Handlers run on
// the scheduler and must not block (wake a process instead).
func (f *Fabric) OnMSI(vector int, fn func()) {
	if _, dup := f.msi[vector]; dup {
		panic(fmt.Sprintf("pcie: MSI vector %d already registered", vector))
	}
	f.msi[vector] = fn
}

// RaiseMSI posts an interrupt toward the root complex.
func (f *Fabric) RaiseMSI(vector int) {
	fn, ok := f.msi[vector]
	if !ok {
		panic(fmt.Sprintf("pcie: MSI vector %d has no handler", vector))
	}
	f.msis.After(f.params.MMIOLatency, fn)
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
