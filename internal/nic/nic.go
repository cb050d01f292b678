package nic

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Params are the NIC performance characteristics (BCM57711-class).
type Params struct {
	WireBps    float64  // line rate, 10 Gbit/s
	PropDelay  sim.Time // cable + peer PHY latency
	TxOverhead sim.Time // per-frame transmit pipeline cost
	RxOverhead sim.Time // per-frame receive pipeline cost (per queue)
	RxDemux    sim.Time // per-frame parse/steer cost in the shared stage
	BDFetch    sim.Time // descriptor fetch/decode cost
	// Faults injects wire corruption and stuck descriptor fetches;
	// nil disables injection.
	Faults *fault.Injector
}

// Fault-recovery timing: a stuck descriptor fetch is re-read after a
// recovery delay; frameReplayCap bounds back-to-back corruptions of
// one frame so transmission always terminates.
const (
	stuckBDRecovery = 2 * sim.Microsecond
	frameReplayCap  = 8
)

// DefaultParams return 10-GbE defaults.
func DefaultParams() Params {
	return Params{
		WireBps:    10e9,
		PropDelay:  2 * sim.Microsecond,
		TxOverhead: 300 * sim.Nanosecond,
		RxOverhead: 300 * sim.Nanosecond,
		RxDemux:    100 * sim.Nanosecond,
		BDFetch:    150 * sim.Nanosecond,
	}
}

// QueueConfig is one send/receive queue pair from the submitter's
// point of view. Ring regions live in submitter memory (host DRAM for
// the kernel driver, FPGA BRAM for the HDC Engine's NIC controller).
type QueueConfig struct {
	QID         uint16
	SendRing    *mem.Region
	SendEntries int
	SendStatus  mem.Addr // 8-byte cumulative completed-BD counter
	RecvRing    *mem.Region
	RecvEntries int
	RecvCpl     *mem.Region
	RecvStatus  mem.Addr // 8-byte cumulative completion counter
	MSIVector   int      // <0: no interrupts (write-hook consumers)
	HeaderSplit bool     // split headers/payload on receive
}

// doorbell layout: 32 bytes per queue.
const (
	dbStride   = 32
	dbSendTail = 0
	dbSendArm  = 8
	dbRecvTail = 16
	dbRecvArm  = 24
)

type nicQueue struct {
	cfg QueueConfig

	sendTail uint64 // doorbell: BDs posted (cumulative)
	sendHead uint64 // BDs consumed (cumulative)
	sendKick *sim.Cond

	recvTail uint64 // doorbell: recv BDs posted (cumulative)
	recvHead uint64 // recv BDs consumed (cumulative)
	recvCplN uint64 // completions written (cumulative)

	// Armed-interrupt state: the driver arms with its acknowledged
	// counts; the NIC fires when completions run past an ack.
	armed   bool
	sendAck uint64
	recvAck uint64

	txStage  mem.Addr  // per-queue gather buffer in NIC internal memory
	scratch  mem.Addr  // per-queue descriptor/status scratch
	recvKick *sim.Cond // receive buffers posted (un-pause)

	// Per-queue receive pipeline: the demux stage steers parsed frames
	// here; an independent queue process fills buffers and posts
	// completions, so receive scales across queues (how multi-queue
	// 40 GbE hardware reaches line rate).
	rxFIFO  *sim.Queue[rxFrame]
	rxSpace *sim.Cond // signalled when the FIFO drains below its cap
	rxStage mem.Addr

	// Outstanding receive-DMA tags: payload writes overlap (per-tag
	// staging slots); a completer retires them in order so completion
	// entries stay FIFO.
	rxSlots  *sim.Queue[mem.Addr]
	rxPend   *sim.Queue[rxPending]
	cplStage mem.Addr

	bdCache   []RecvBD  // prefetched receive descriptors
	bdHead    int       // next unconsumed bdCache entry
	cplBuf    []RecvCpl // completions awaiting a coalesced flush
	cplFirst  uint64    // cumulative index of cplBuf[0]
	cplIssued uint64    // completions assigned an index (issue order)

	// Send-descriptor burst fetch: bdStage stages a wrap-aware vectored
	// DMA of every posted-but-unfetched send BD; sbdCache holds the
	// decoded burst, sendFetched the cumulative fetch cursor.
	bdStage     mem.Addr
	sbdCache    []SendBD
	sbdHead     int
	sendFetched uint64
	sendExts    []mem.Extent // merged gather extents scratch (txLoop only)
	cplExts     []mem.Extent // completion-flush extents scratch (rxCplMachine only)

	// irqQueued coalesces same-instant arm doorbells into one deferred
	// interrupt check (irqFn bound once; see Env.Chain).
	irqQueued bool
	irqFn     func()

	// txIdle is true while txLoop is parked on sendKick with no staged
	// work it could progress without a doorbell — part of the transmit-
	// quiescence test gating analytic multi-charge plans (DESIGN.md §13).
	txIdle bool

	// Reused per-packet LSO segment scratch: one packet is in flight
	// per queue at a time, so a single slice makes the transmit path
	// allocation-free in steady state.
	segs []ether.Segment
}

// bdLen returns the number of prefetched, unconsumed receive BDs.
func (q *nicQueue) bdLen() int { return len(q.bdCache) - q.bdHead }

// NIC is the device model.
type NIC struct {
	Name string

	env    *sim.Env
	fab    *pcie.Fabric
	params Params
	port   *pcie.Port

	Doorbells *mem.Region
	internal  *mem.Region

	txBW    *sim.BandwidthServer
	txFIFO  *sim.Queue[outFrame]
	txSpace *sim.Cond // signalled when the FIFO drains below its cap
	peer    *NIC
	uplink  Uplink
	rxQ     *sim.Queue[[]byte]

	queues    map[uint16]*nicQueue
	queueList []*nicQueue // deterministic iteration order
	steering  map[ether.Tuple]uint16

	txFrames, rxFrames   int64
	txPayload, rxPayload int64
	drops, rxErrors      int64
	txReplays            int64 // wire corruptions replayed by the link layer
	bdRefetches          int64 // stuck descriptor fetches re-read

	// Deterministic free lists (DESIGN.md §11): frameFree recycles
	// consumed frame buffers back to the marshalling side, fdFree
	// recycles wire-delivery records and their bound callbacks. Both
	// are LIFO lists driven only from the simulated timeline.
	frameFree [][]byte
	fdFree    []*frameDelivery

	// Flow-fidelity transmit state (flow.go): per-connection phase
	// machines deciding segment eligibility, the analytic wire clock,
	// the pending-claim exit ring bounding virtual FIFO occupancy, and
	// the count of real (per-frame) frames between txFIFO.Put and wire
	// exit — claims may only form while that count is zero, so the
	// analytic and per-frame schedules never interleave on the wire.
	flows        map[ether.Tuple]*ether.FlowState
	wireFree     sim.Time
	claimExits   []sim.Time
	claimHead    int
	realInFlight int
	segFrames    int64 // frames accounted through flow segments
	wbFree       []*wireBatch

	// eng is the analytic receive engine, created lazily on flow-
	// exclusive fabrics (flow.go).
	eng *rxEngine

	// RxPerQueue counts delivered frames per queue (diagnostics).
	RxPerQueue map[uint16]int64
}

// framePoolCap bounds the recycled-frame list; one-directional traffic
// would otherwise grow the receiver's pool without bound.
const framePoolCap = 256

func (n *NIC) getFrameBuf() []byte {
	if k := len(n.frameFree); k > 0 {
		b := n.frameFree[k-1]
		n.frameFree = n.frameFree[:k-1]
		return b
	}
	return nil
}

func (n *NIC) putFrameBuf(b []byte) {
	if len(n.frameFree) < framePoolCap {
		n.frameFree = append(n.frameFree, b)
	}
}

// frameDelivery is one propagation-delayed frame hand-off to the peer
// NIC. fn is the record's bound deliver method, created once per
// record and reused.
type frameDelivery struct {
	nic   *NIC
	to    *sim.Queue[[]byte]
	frame []byte
	fn    func()
}

func (d *frameDelivery) deliver() {
	d.to.Put(d.frame)
	d.frame = nil
	d.nic.fdFree = append(d.nic.fdFree, d)
}

// scheduleDelivery hands frame to q after the wire propagation delay
// without allocating a closure per frame.
func (n *NIC) scheduleDelivery(q *sim.Queue[[]byte], frame []byte) {
	var d *frameDelivery
	if k := len(n.fdFree); k > 0 {
		d = n.fdFree[k-1]
		n.fdFree = n.fdFree[:k-1]
	} else {
		d = &frameDelivery{nic: n}
		d.fn = d.deliver
	}
	d.to, d.frame = q, frame
	n.env.Schedule(n.params.PropDelay, d.fn)
}

// NewNIC builds the device on a new fabric port.
func NewNIC(env *sim.Env, fab *pcie.Fabric, name string, params Params) *NIC {
	n := &NIC{
		Name:       name,
		env:        env,
		fab:        fab,
		params:     params,
		queues:     map[uint16]*nicQueue{},
		steering:   map[ether.Tuple]uint16{},
		flows:      map[ether.Tuple]*ether.FlowState{},
		RxPerQueue: map[uint16]int64{},
	}
	n.port = fab.AddPort(name)
	mm := fab.Mem()
	n.Doorbells = mm.AddRegion(name+"-doorbells", mem.MMIO, 4096, true)
	n.internal = mm.AddRegion(name+"-internal", mem.DeviceInternal, 8<<20, false)
	fab.Attach(n.port, n.Doorbells)
	fab.Attach(n.port, n.internal)
	n.rxQ = sim.NewQueue[[]byte](env, name+"-rx")
	n.txBW = sim.NewBandwidthServer(env, name+"-wire-tx", params.WireBps, 0)
	n.txFIFO = sim.NewQueue[outFrame](env, name+"-txfifo")
	n.txSpace = sim.NewCond(env)
	n.Doorbells.SetWriteHook(n.onDoorbell)
	env.SpawnHandler(name+"-rx", (&rxDemuxMachine{n: n}).run)
	env.Spawn(name+"-tx-wire", n.txWireLoop)
	return n
}

// outFrame is a fully built frame queued for wire serialization.
type outFrame struct {
	frame   []byte
	wireLen int
	payLen  int
}

// txFIFOCap bounds the on-chip transmit FIFO (in frames); descriptor
// processing stalls when the wire falls behind, as on real hardware.
const txFIFOCap = 64

// txWireLoop drains built frames onto the wire at line rate.
//
// Under fault injection a frame may be corrupted on the wire: the
// corrupted copy is still delivered (the receiver's checksum check
// drops it and counts an rxError) and the link layer retransmits the
// original after a NAK round trip. Replays happen here, before the
// next frame is taken from the FIFO, so per-link FIFO delivery order
// is preserved — receivers never see reordering, only latency.
func (n *NIC) txWireLoop(p *sim.Proc) {
	for {
		f := n.txFIFO.Get(p)
		n.txSpace.Broadcast()
		// Queue behind analytic flow segments exactly as the FIFO would
		// have queued behind their per-frame expansion: claims book the
		// wire clock without occupying txBW (flow.go), so a real frame
		// waits out the booked window first.
		if w := n.wireFree; w > n.env.Now() {
			p.Sleep(w - n.env.Now())
		}
		for attempt := 0; ; attempt++ {
			n.txBW.Transfer(p, f.wireLen)
			n.txFrames++
			peer, up := n.peer, n.uplink
			if peer == nil && up == nil {
				n.drops++
				n.putFrameBuf(f.frame)
				break
			}
			if attempt < frameReplayCap && n.params.Faults.Hit(fault.NICCorruptFrame) {
				n.txReplays++
				bad := append([]byte(nil), f.frame...)
				bad[len(bad)-1] ^= 0xFF // breaks the TCP checksum
				if up != nil {
					up.SendFrame(bad, f.wireLen, 0)
				} else {
					n.deliverFrame(peer, bad)
				}
				p.Sleep(2 * n.params.PropDelay) // NAK round trip
				continue
			}
			n.txPayload += int64(f.payLen)
			if up != nil {
				up.SendFrame(f.frame, f.wireLen, f.payLen)
			} else {
				n.deliverFrame(peer, f.frame)
			}
			break
		}
		n.wireFree = n.env.Now()
		n.realInFlight--
		n.env.CountIO(1) // one wire frame left the device
	}
}

// deliverFrame hands one wire frame to the peer after propagation,
// through the peer's analytic receive engine when it has one.
func (n *NIC) deliverFrame(peer *NIC, frame []byte) {
	if e := peer.engine(); e != nil {
		e.scheduleArrival(frame, n.env.Now()+n.params.PropDelay)
		return
	}
	n.scheduleDelivery(peer.rxQ, frame)
}

// Port returns the NIC's fabric port.
func (n *NIC) Port() *pcie.Port { return n.port }

// Stats returns frame/byte/drop counters.
func (n *NIC) Stats() (txFrames, rxFrames, txPayload, rxPayload, drops, rxErrors int64) {
	return n.txFrames, n.rxFrames, n.txPayload, n.rxPayload, n.drops, n.rxErrors
}

// RecoveryStats returns the fault-recovery counters: frames replayed
// after wire corruption and descriptors re-fetched after a stuck read.
func (n *NIC) RecoveryStats() (txReplays, bdRefetches int64) {
	return n.txReplays, n.bdRefetches
}

// Connect wires two NICs back-to-back (the paper's two-node setup).
func Connect(a, b *NIC) {
	if a.uplink != nil || b.uplink != nil {
		panic("nic: Connect on a NIC already attached to a switched fabric")
	}
	a.peer, b.peer = b, a
}

// Uplink is a switched-fabric attachment point: SendFrame takes
// ownership of a fully serialized wire frame at the instant its last
// bit leaves the NIC (internal/sim/shard.Outbox satisfies this shape).
// With an uplink attached there is no peer, so the flow-level transmit
// fast path legally self-disables (claimRun requires a peer) and every
// frame travels per-frame — the fabric model owns all post-NIC timing.
type Uplink interface {
	SendFrame(frame []byte, wireLen, payLen int)
}

// AttachUplink points the NIC's transmit side at a switched fabric
// instead of a back-to-back peer.
func (n *NIC) AttachUplink(u Uplink) {
	if n.peer != nil {
		panic("nic: AttachUplink on a NIC already connected back-to-back")
	}
	n.uplink = u
}

// InjectFrame hands one wire frame arriving from a switched fabric to
// the receive path at the current instant — the fabric has already
// charged serialization and propagation for every hop. The NIC takes
// ownership of the frame buffer and recycles it through its free list
// once consumed.
func (n *NIC) InjectFrame(frame []byte) {
	n.rxQ.Put(frame)
}

// SetSteering directs frames matching the connection tuple to a queue
// — how receive traffic reaches the HDC Engine's dedicated queue pair
// instead of the host driver's.
func (n *NIC) SetSteering(t ether.Tuple, qid uint16) { n.steering[t] = qid }

// ClearSteering removes a steering rule.
func (n *NIC) ClearSteering(t ether.Tuple) { delete(n.steering, t) }

// ConfigureQueue registers a queue pair and starts its transmit
// process (configuration-time operation, no simulated cost).
func (n *NIC) ConfigureQueue(cfg QueueConfig) {
	if _, dup := n.queues[cfg.QID]; dup {
		panic(fmt.Sprintf("nic: queue %d exists on %s", cfg.QID, n.Name))
	}
	if n.eng != nil {
		// The analytic receive engine replicates a single queue's
		// pipeline; reconfiguring after it has carried traffic would
		// strand its state.
		panic(fmt.Sprintf("nic: %s: cannot add queues after the flow receive engine started", n.Name))
	}
	if cfg.SendEntries < 2 || cfg.RecvEntries < 2 {
		panic("nic: queue too small")
	}
	if cfg.SendRing.Size < uint64(cfg.SendEntries*SendBDSize) ||
		cfg.RecvRing.Size < uint64(cfg.RecvEntries*RecvBDSize) ||
		cfg.RecvCpl.Size < uint64(cfg.RecvEntries*RecvCplSize) {
		panic("nic: ring region too small")
	}
	q := &nicQueue{
		cfg:      cfg,
		sendKick: sim.NewCond(n.env),
		recvKick: sim.NewCond(n.env),
		txStage:  n.internal.Alloc(128<<10, 4096),
		scratch:  n.internal.Alloc(256, 64),
		rxFIFO:   sim.NewQueue[rxFrame](n.env, fmt.Sprintf("%s-rxq%d", n.Name, cfg.QID)),
		rxSpace:  sim.NewCond(n.env),
		rxStage:  n.internal.Alloc(4<<10, 64),
		rxSlots:  sim.NewQueue[mem.Addr](n.env, fmt.Sprintf("%s-rxslots%d", n.Name, cfg.QID)),
		rxPend:   sim.NewQueue[rxPending](n.env, fmt.Sprintf("%s-rxpend%d", n.Name, cfg.QID)),
		cplStage: n.internal.Alloc(4<<10, 64),
		bdStage:  n.internal.Alloc(uint64(cfg.SendEntries)*SendBDSize, 64),
	}
	q.irqFn = func() {
		q.irqQueued = false
		n.maybeIRQ(q)
	}
	for i := 0; i < rxDMATags; i++ {
		q.rxSlots.Put(n.internal.Alloc(2048, 64))
	}
	n.queues[cfg.QID] = q
	n.queueList = append(n.queueList, q)
	n.env.Spawn(fmt.Sprintf("%s-tx-q%d", n.Name, cfg.QID), func(p *sim.Proc) { n.txLoop(p, q) })
	n.env.Spawn(fmt.Sprintf("%s-rx-q%d", n.Name, cfg.QID), func(p *sim.Proc) { n.rxQueueLoop(p, q) })
	n.env.SpawnHandler(fmt.Sprintf("%s-rxcpl-q%d", n.Name, cfg.QID), (&rxCplMachine{n: n, q: q}).run)
}

// DoorbellAddrs returns the four doorbell addresses for a queue.
func (n *NIC) DoorbellAddrs(qid uint16) (sendTail, sendArm, recvTail, recvArm mem.Addr) {
	base := n.Doorbells.Base + mem.Addr(uint64(qid)*dbStride)
	return base + dbSendTail, base + dbSendArm, base + dbRecvTail, base + dbRecvArm
}

func (n *NIC) onDoorbell(off uint64, _ int) {
	qid := uint16(off / dbStride)
	q, ok := n.queues[qid]
	if !ok {
		panic(fmt.Sprintf("nic: doorbell for unknown queue %d on %s", qid, n.Name))
	}
	val := le64(n.Doorbells.Bytes(off, 8))
	switch off % dbStride {
	case dbSendTail:
		q.sendTail = val
		q.sendKick.Broadcast()
	case dbSendArm:
		q.sendAck = val
		q.armed = true
		n.queueIRQCheck(q)
	case dbRecvTail:
		q.recvTail = val
		q.recvKick.Broadcast()
		if n.eng != nil && n.eng.q == q {
			n.eng.kick()
		}
	case dbRecvArm:
		q.recvAck = val
		q.armed = true
		n.queueIRQCheck(q)
	}
}

// queueIRQCheck defers the queue's interrupt check to the end of the
// current instant so same-instant send-arm and recv-arm doorbells
// coalesce into one check (and at most one MSI). The doorbell hook is
// in tail position of the posted-write delivery, so Chain may legally
// run the check inline when nothing else is due.
func (n *NIC) queueIRQCheck(q *nicQueue) {
	if !q.irqQueued {
		q.irqQueued = true
		n.env.Chain(q.irqFn)
	}
}

// maybeIRQ raises the queue's MSI when armed and completions have run
// past the driver's acknowledged counts, then disarms (NAPI-style:
// the driver re-arms with fresh acks after draining).
func (n *NIC) maybeIRQ(q *nicQueue) {
	if q.cfg.MSIVector < 0 || !q.armed {
		return
	}
	if q.sendHead > q.sendAck || q.recvCplN > q.recvAck {
		q.armed = false
		n.fab.RaiseMSI(q.cfg.MSIVector)
	}
}

// fetchSendBDs burst-fetches every posted-but-unfetched send BD in one
// wrap-aware vectored DMA (at most two extents) and decodes the batch
// into the queue's descriptor cache. Per-descriptor stuck-read faults
// are still drawn individually so injection statistics are preserved;
// recovery re-reads the whole burst once after the accumulated delay.
func (n *NIC) fetchSendBDs(p *sim.Proc, q *nicQueue) {
	avail := int(q.sendTail - q.sendFetched)
	if avail == 0 {
		return
	}
	slot := int(q.sendFetched % uint64(q.cfg.SendEntries))
	exts := ringExtents(q.sendExts[:0], q.cfg.SendRing.Base, slot, avail, q.cfg.SendEntries, SendBDSize)
	q.sendExts = exts
	n.fab.MustDMAVec(p, n.port, q.bdStage, exts, true)
	p.Sleep(n.params.BDFetch)
	stuck := 0
	for i := 0; i < avail; i++ {
		if n.params.Faults.Hit(fault.NICStuckBD) {
			stuck++
		}
	}
	if stuck > 0 {
		// Stale descriptor reads: re-fetch after the recovery delay.
		n.bdRefetches += int64(stuck)
		p.Sleep(sim.Time(stuck) * stuckBDRecovery)
		n.fab.MustDMAVec(p, n.port, q.bdStage, exts, true)
		p.Sleep(n.params.BDFetch)
	}
	if q.sbdHead == len(q.sbdCache) {
		q.sbdCache = q.sbdCache[:0]
		q.sbdHead = 0
	}
	raw := n.fab.Mem().View(q.bdStage, avail*SendBDSize)
	for i := 0; i < avail; i++ {
		bd, err := DecodeSendBD(raw[i*SendBDSize:])
		if err != nil {
			panic(err) // corrupted ring memory is a modelling bug
		}
		q.sbdCache = append(q.sbdCache, bd)
	}
	q.sendFetched += uint64(avail)
}

// ringExtents appends the wrap-aware extents (at most two) covering n
// consecutive entries of size esz starting at slot head in a ring of
// entries slots based at base.
func ringExtents(exts []mem.Extent, base mem.Addr, head, n, entries, esz int) []mem.Extent {
	first := entries - head
	if first > n {
		first = n
	}
	exts = append(exts, mem.Extent{Addr: base + mem.Addr(uint64(head)*uint64(esz)), Len: first * esz})
	if n > first {
		exts = append(exts, mem.Extent{Addr: base, Len: (n - first) * esz})
	}
	return exts
}

// txLoop consumes send BD chains, gathers buffers, applies LSO and
// checksum offload, and serializes frames onto the wire. Descriptors
// are burst-fetched and every complete chain in the burst is
// transmitted before the single per-burst status write-back and
// interrupt check — the descriptor-drain batching of real NICs.
func (n *NIC) txLoop(p *sim.Proc, q *nicQueue) {
	mm := n.fab.Mem()
	for {
		for q.sendHead == q.sendTail {
			q.txIdle = true
			q.sendKick.Wait(p)
			q.txIdle = false
		}
		n.fetchSendBDsAuto(p, q)
		sent := false
		for {
			// Find one complete chain (through its END flag) in the cache.
			end := -1
			for i := q.sbdHead; i < len(q.sbdCache); i++ {
				if i-q.sbdHead >= 64 {
					panic("nic: runaway BD chain without END flag")
				}
				if q.sbdCache[i].Flags&SendFlagEnd != 0 {
					end = i
					break
				}
			}
			if end < 0 {
				if q.sendFetched != q.sendTail {
					n.fetchSendBDsAuto(p, q)
					continue
				}
				if !sent {
					// Incomplete chain posted; wait for the rest. Nothing
					// here can progress without a doorbell, so the queue
					// counts as transmit-quiescent for plan gating.
					q.txIdle = true
					q.sendKick.Wait(p)
					q.txIdle = false
					n.fetchSendBDsAuto(p, q)
					continue
				}
				break // flush what was consumed; outer loop waits for more
			}
			chain := q.sbdCache[q.sbdHead : end+1]
			q.sbdHead = end + 1

			// Gather the chain into the queue's staging buffer, merging
			// physically adjacent fragments into one extent each.
			off := 0
			exts := q.sendExts[:0]
			for _, bd := range chain {
				if off+int(bd.Len) > 128<<10 {
					panic("nic: send chain exceeds staging buffer")
				}
				if k := len(exts) - 1; k >= 0 && exts[k].Addr+mem.Addr(exts[k].Len) == bd.Addr {
					exts[k].Len += int(bd.Len)
				} else {
					exts = append(exts, mem.Extent{Addr: bd.Addr, Len: int(bd.Len)})
				}
				off += int(bd.Len)
			}
			q.sendExts = exts
			// The staging view is stable for the whole transmit: only this
			// queue's txLoop writes q.txStage, and Marshal copies each
			// segment before it reaches the FIFO.
			if n.fab.FlowMode() {
				n.flowGatherTransmit(p, q, chain[0], exts, off)
			} else {
				n.fab.MustDMAVec(p, n.port, q.txStage, exts, true)
				raw := mm.View(q.txStage, off)
				n.transmit(p, q, chain[0], raw, 0)
			}
			q.sendHead += uint64(len(chain))

			// BD completion: buffers were fully fetched into the FIFO, so
			// the submitter may reuse them (wire transmission proceeds
			// asynchronously, as on real hardware). The write-back stays
			// per chain — withholding it until the whole burst drained
			// would stall submitters waiting on completed chains while a
			// later chain's frames trickle onto the wire.
			var cnt [8]byte
			putLE64(cnt[:], q.sendHead)
			mm.Write(q.scratch, cnt[:])
			n.fab.MustDMA(p, n.port, q.cfg.SendStatus, q.scratch, 8)
			n.maybeIRQ(q)
			sent = true
		}
	}
}

// transmit parses the header template, segments, and puts frames on
// the wire — per-frame through the FIFO, or as analytic flow-segment
// claims when the connection's state machine and the mechanical
// crossover conditions allow (flow.go). pre is wire-gather time still
// outstanding when a plan called transmit early; it is folded into the
// first build sleep so the frames land at the per-frame instants.
func (n *NIC) transmit(p *sim.Proc, q *nicQueue, first SendBD, raw []byte, pre sim.Time) {
	if len(raw) < ether.HeadersLen {
		n.drops++
		return
	}
	proto, err := ether.ParseHeaders(raw[:ether.HeadersLen])
	if err != nil {
		n.drops++
		return
	}
	// Segment payloads alias the staging buffer (raw); that is safe
	// because Marshal copies every byte into the frame before the
	// staging buffer can be rewritten.
	payload := raw[ether.HeadersLen:]
	segs := q.segs[:0]
	if first.Flags&SendFlagLSO != 0 {
		segs = ether.AppendSegments(segs, proto.Flow, proto.Seq, payload, int(first.MSS))
	} else {
		if len(payload) > ether.MSS {
			n.drops++
			return
		}
		segs = append(segs, ether.Segment{Flow: proto.Flow, Seq: proto.Seq, Ack: proto.Ack,
			Flags: proto.Flags | ether.FlagACK, Payload: payload})
	}
	q.segs = segs
	claimable := n.observeBurst(proto.Flow.Tuple(), segs)
	target := n.env.Now() + pre
	// The LSO segment loop runs in batched events: each pass pays the
	// pipeline cost for a run of frames in one sleep and marshals the
	// run back-to-back. Run sizes ramp up exponentially so the wire is
	// fed after one frame's overhead and never starves while later,
	// larger runs build (the total overhead charged is identical to the
	// per-frame model); a full FIFO still parks the process.
	ramp := 1
	for i := 0; i < len(segs); {
		// The FIFO budget counts claimed frames still on the analytic
		// wire (virtualQueued): while claims are draining, space opens
		// at their booked exits — the instants the wire loop's Get
		// would broadcast txSpace in the per-frame schedule.
		for n.txFIFO.Len()+n.virtualQueued() >= txFIFOCap {
			if x, ok := n.nextClaimExit(); ok {
				p.Sleep(x - n.env.Now())
			} else {
				n.txSpace.Wait(p)
			}
		}
		run := txFIFOCap - n.txFIFO.Len() - n.virtualQueued()
		if run > ramp {
			run = ramp
		}
		if rem := len(segs) - i; run > rem {
			run = rem
		}
		// Per-frame pipeline cost overlaps wire serialization: it is
		// paid here, in the build stage, not on the wire.
		d := n.params.TxOverhead * sim.Time(run)
		if now := n.env.Now(); now < target {
			d += target - now
		}
		p.Sleep(d)
		if claimable && n.claimRun(segs[i:i+run]) {
			i += run
		} else {
			for j := 0; j < run; j++ {
				s := &segs[i+j]
				// Checksum offload happens in MarshalTo; recycled frame
				// buffers make steady-state transmission allocation-free.
				frame := s.MarshalTo(n.getFrameBuf())
				n.realInFlight++
				n.txFIFO.Put(outFrame{frame: frame, wireLen: s.WireLen(), payLen: len(s.Payload)})
			}
			i += run
		}
		if ramp < txFIFOCap {
			ramp *= 2
		}
	}
}

// rxBatch is the receive-side coalescing factor: descriptors are
// prefetched and completions flushed in batches of up to this many,
// as real NICs do to amortize DMA transactions.
const rxBatch = 16

// fetchRecvBDs refills the queue's descriptor cache with one batched
// DMA (contiguous ring slots).
func (n *NIC) fetchRecvBDs(p *sim.Proc, q *nicQueue) {
	avail := int(q.recvTail - q.recvHead)
	if avail == 0 {
		return
	}
	batch := avail
	if batch > rxBatch {
		batch = rxBatch
	}
	slot := q.recvHead % uint64(q.cfg.RecvEntries)
	if room := q.cfg.RecvEntries - int(slot); batch > room {
		batch = room // stop at the ring wrap
	}
	bdAddr := q.cfg.RecvRing.Base + mem.Addr(slot*RecvBDSize)
	n.fab.MustDMA(p, n.port, q.rxStage, bdAddr, batch*RecvBDSize)
	p.Sleep(n.params.BDFetch)
	if q.bdHead == len(q.bdCache) {
		// Fully drained: rewind so the cache's capacity is reused
		// instead of resliced away.
		q.bdCache = q.bdCache[:0]
		q.bdHead = 0
	}
	raw := n.fab.Mem().View(q.rxStage, batch*RecvBDSize)
	for i := 0; i < batch; i++ {
		bd, err := DecodeRecvBD(raw[i*RecvBDSize:])
		if err != nil {
			panic(err)
		}
		q.bdCache = append(q.bdCache, bd)
	}
	q.recvHead += uint64(batch)
}

// prepFlush stages the pending completion entries for the completer's
// flush DMA and returns the entry count (0: nothing to flush). The
// flush writes the entries and the status counter in one vectored DMA
// (completion run first, status counter last, so a consumer woken by
// the status write always sees every entry); finishFlush then fires
// the (armed) interrupt.
func (n *NIC) prepFlush(q *nicQueue) int {
	k := len(q.cplBuf)
	if k == 0 {
		return 0
	}
	mm := n.fab.Mem()
	// Encode straight into the staging region (device-internal, no
	// write hook) instead of through a bounce buffer; entries first,
	// the 8-byte status counter right after.
	stage, stageOff := mm.MustResolve(q.cplStage)
	for j := 0; j < k; j++ {
		enc := q.cplBuf[j].Encode()
		stage.WriteAt(stageOff+uint64(j*RecvCplSize), enc[:])
	}
	q.recvCplN = q.cplFirst + uint64(k)
	var cnt [8]byte
	putLE64(cnt[:], q.recvCplN)
	stage.WriteAt(stageOff+uint64(k*RecvCplSize), cnt[:])

	slot := int(q.cplFirst % uint64(q.cfg.RecvEntries))
	exts := ringExtents(q.cplExts[:0], q.cfg.RecvCpl.Base, slot, k, q.cfg.RecvEntries, RecvCplSize)
	exts = append(exts, mem.Extent{Addr: q.cfg.RecvStatus, Len: 8})
	q.cplExts = exts
	return k
}

// finishFlush retires a completed flush DMA: the batch buffer rewinds
// and the (armed) interrupt fires.
func (n *NIC) finishFlush(q *nicQueue) {
	q.cplBuf = q.cplBuf[:0]
	q.cplFirst = q.recvCplN
	n.maybeIRQ(q)
}

// rxFrame is one parsed frame handed from the demux stage to a
// queue's receive pipeline.
type rxFrame struct {
	frame []byte
	seg   ether.Segment
}

// rxQueueCap bounds each queue's staging FIFO; a full FIFO
// backpressures the demux stage (port-level pause).
const rxQueueCap = 128

// rxDMATags is the number of concurrently outstanding receive payload
// DMAs per queue (hides per-transaction fabric latency).
const rxDMATags = 16

// rxPending is one in-flight receive DMA awaiting in-order retirement.
type rxPending struct {
	cpl  RecvCpl
	sig  *sim.Signal
	slot mem.Addr
	pay  int
}

// rxQueueLoop is one queue's receive pipeline: it takes parsed frames,
// fills posted buffers (pausing, PFC-style, while none are posted),
// and writes coalesced completions.
func (n *NIC) rxQueueLoop(p *sim.Proc, q *nicQueue) {
	var burst []rxFrame // scratch: same-instant frame batch
	for {
		burst = append(burst[:0], q.rxFIFO.Get(p))
		for len(burst) < rxBatch {
			rf, ok := q.rxFIFO.TryGet()
			if !ok {
				break
			}
			burst = append(burst, rf)
		}
		q.rxSpace.Broadcast()
		// One pipeline occupancy per burst; same uniform-cost argument
		// as the demux stage (rxDemuxMachine).
		p.Sleep(sim.Time(len(burst)) * n.params.RxOverhead)
		for _, rf := range burst {
			n.rxFill(p, q, rf)
		}
	}
}

// rxFill lands one parsed frame in a posted receive buffer: BD
// consumption, (header-split) staging copies, and the payload DMA.
func (n *NIC) rxFill(p *sim.Proc, q *nicQueue, rf rxFrame) {
	mm := n.fab.Mem()
	seg := rf.seg
	// Per-queue (priority) flow control: with no posted buffer the
	// queue pauses until the consumer recycles some. In-flight DMAs
	// retire meanwhile and the completer flushes them, so the
	// consumer always sees enough completions to make progress.
	for q.bdLen() == 0 {
		n.fetchRecvBDs(p, q)
		if q.bdLen() > 0 {
			break
		}
		q.recvKick.Wait(p)
	}
	bd := q.bdCache[q.bdHead]
	q.bdHead++
	bdIndex := uint32(q.cplIssued % uint64(q.cfg.RecvEntries))

	hdr := rf.frame[:ether.HeadersLen]
	pay := seg.Payload
	cpl := RecvCpl{BDIndex: bdIndex, Seq: seg.Seq, Flags: seg.Flags, Valid: 1,
		HdrLen: uint16(len(hdr)), PayLen: uint16(len(pay))}

	// Issue the payload DMA on a free tag; retirement happens in
	// order in the completer so completion entries stay FIFO.
	slot := q.rxSlots.Get(p)
	var sig *sim.Signal
	if q.cfg.HeaderSplit {
		// Header at offset 0, payload at HdrOff, moved as one DMA.
		if int(bd.Len) < HdrOff+len(pay) {
			n.drops++
			q.rxSlots.Put(slot)
			n.putFrameBuf(rf.frame)
			return
		}
		mm.Zero(slot, HdrOff)
		mm.Write(slot, hdr)
		if len(pay) > 0 {
			mm.Write(slot+HdrOff, pay)
		}
		n.putFrameBuf(rf.frame) // hdr and pay copied into the slot
		sig = n.fab.DMAAsync(n.port, bd.Addr, slot, HdrOff+len(pay))
	} else {
		if int(bd.Len) < len(rf.frame) {
			n.drops++
			q.rxSlots.Put(slot)
			n.putFrameBuf(rf.frame)
			return
		}
		mm.Write(slot, rf.frame)
		n.putFrameBuf(rf.frame)
		sig = n.fab.DMAAsync(n.port, bd.Addr, slot, len(rf.frame))
	}
	q.cplIssued++
	q.rxPend.Put(rxPending{cpl: cpl, sig: sig, slot: slot, pay: len(pay)})
}

// DebugQueues reports per-queue ring state (diagnostics).
func (n *NIC) DebugQueues() string {
	out := fmt.Sprintf("%s: rxQ=%d txFIFO=%d", n.Name, n.rxQ.Len(), n.txFIFO.Len())
	for _, q := range n.queueList {
		out += fmt.Sprintf("\n  q%d: sendTail=%d sendHead=%d recvTail=%d recvHead=%d bdCache=%d cplBuf=%d cplN=%d rxFIFO=%d armed=%v",
			q.cfg.QID, q.sendTail, q.sendHead, q.recvTail, q.recvHead, q.bdLen(), len(q.cplBuf), q.recvCplN, q.rxFIFO.Len(), q.armed)
	}
	return out
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
