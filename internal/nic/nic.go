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
	sendExts    []mem.Extent // fetch/gather extents scratch (txMachine only)
	cplExts     []mem.Extent // completion-flush extents scratch (rxCplMachine only)

	// irqCheck coalesces same-instant arm doorbells into one interrupt
	// check (and at most one MSI). The doorbell hook is in tail position
	// of the posted-write delivery, so the check may run inline.
	irqCheck *sim.Coalesced

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

	// frames recycles consumed frame buffers back to the marshalling
	// side (shared with a Connect'ed peer), a deterministic LIFO list
	// driven only from the simulated timeline (DESIGN.md §11); toPeer
	// delivers frames to a back-to-back peer after the propagation
	// delay.
	frames *framePool
	toPeer *sim.Deferred[[]byte]

	// realInFlight counts frames between txFIFO.Put and wire exit; a
	// checkpoint refuses a NIC that still holds one.
	realInFlight int

	// RxPerQueue counts delivered frames per queue (diagnostics).
	RxPerQueue map[uint16]int64
}

// framePool is a LIFO free list of frame buffers. A frame is
// marshalled on the sending NIC and consumed on the receiving one, so
// back-to-back peers share one pool: with a pool per NIC, a one-way
// stream would recycle every frame into the receiver's pool and drain
// the sender's.
type framePool struct {
	free [][]byte
}

// framePoolCap bounds the recycled-frame list; one-directional traffic
// would otherwise grow the receiving side's pool without bound.
const framePoolCap = 256

func (n *NIC) getFrameBuf() []byte {
	fp := n.frames
	if k := len(fp.free); k > 0 {
		b := fp.free[k-1]
		fp.free = fp.free[:k-1]
		return b
	}
	return nil
}

func (n *NIC) putFrameBuf(b []byte) {
	if fp := n.frames; len(fp.free) < framePoolCap {
		fp.free = append(fp.free, b)
	}
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
		RxPerQueue: map[uint16]int64{},
		frames:     &framePool{},
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
	n.toPeer = sim.NewDeferred(env, func(frame []byte) { n.peer.rxQ.Put(frame) })
	n.Doorbells.SetWriteHook(n.onDoorbell)
	env.SpawnHandler(name+"-rx", (&rxDemuxMachine{n: n}).run)
	env.SpawnHandler(name+"-tx-wire", (&txWireMachine{n: n}).run)
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

// wireOut hands one serialized frame to the attached fabric or,
// propagation-delayed, to the back-to-back peer's demux queue.
func (n *NIC) wireOut(frame []byte, wireLen, payLen int) {
	if n.uplink != nil {
		//dcslint:allow noblockhandler Uplink implementations (shard.Outbox) only buffer the frame for the window barrier; they take no Proc and cannot park
		n.uplink.SendFrame(frame, wireLen, payLen)
		return
	}
	n.toPeer.After(n.params.PropDelay, frame)
}

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
// The two share one frame pool (framePool), which is why they must
// share an Env: frames cross between them on one simulated timeline.
func Connect(a, b *NIC) {
	if a.uplink != nil || b.uplink != nil {
		panic("nic: Connect on a NIC already attached to a switched fabric")
	}
	if a.env != b.env {
		panic("nic: Connect across simulation environments (" + a.Name + ", " + b.Name + ")")
	}
	a.peer, b.peer = b, a
	b.frames = a.frames
}

// Uplink is a switched-fabric attachment point: SendFrame takes
// ownership of a fully serialized wire frame at the instant its last
// bit leaves the NIC (internal/sim/shard.Outbox satisfies this shape).
// With an uplink attached there is no peer: the fabric model owns all
// post-NIC timing.
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
// ownership of the frame buffer and recycles it through its own free
// list once consumed: shard domains share nothing, so a fabric-attached
// NIC never shares a pool.
func (n *NIC) InjectFrame(frame []byte) {
	n.rxQ.Put(frame)
}

// SetSteering directs frames matching the connection tuple to a queue
// — how receive traffic reaches the HDC Engine's dedicated queue pair
// instead of the host driver's.
func (n *NIC) SetSteering(t ether.Tuple, qid uint16) { n.steering[t] = qid }

// ClearSteering removes a steering rule.
func (n *NIC) ClearSteering(t ether.Tuple) { delete(n.steering, t) }

// NewQueuePair sets up a submitter's queue pair qid of entries BDs a
// side, a configuration-time operation with no simulated cost: it
// allocates <prefix>-sring, -rring, -rcpl and -status in the
// submitter's memory (kind, attached to port), registers the queue
// (header split, MSI vector; <0: none, the submitter snoops the status
// region's writes), starts its transmit and receive machines, and
// returns the submitter's send and receive rings and the status
// region. The status region holds the send ring's completed-BD counter
// at +0 and the receive completion counter at +8.
func (n *NIC) NewQueuePair(port *pcie.Port, prefix string, kind mem.Kind, qid uint16, entries, msiVector int, headerSplit bool) (*SendRing, *RecvRing, *mem.Region) {
	if _, dup := n.queues[qid]; dup {
		panic(fmt.Sprintf("nic: queue %d exists on %s", qid, n.Name))
	}
	if entries < 2 {
		panic("nic: queue too small")
	}
	mm := n.fab.Mem()
	sring := mm.AddRegion(prefix+"-sring", kind, uint64(entries*SendBDSize), true)
	rring := mm.AddRegion(prefix+"-rring", kind, uint64(entries*RecvBDSize), true)
	rcpl := mm.AddRegion(prefix+"-rcpl", kind, uint64(entries*RecvCplSize), true)
	status := mm.AddRegion(prefix+"-status", kind, 64, true)
	for _, r := range []*mem.Region{sring, rring, rcpl, status} {
		n.fab.Attach(port, r)
	}
	cfg := QueueConfig{
		QID: qid, SendRing: sring, SendEntries: entries,
		SendStatus: status.Base,
		RecvRing:   rring, RecvEntries: entries,
		RecvCpl: rcpl, RecvStatus: status.Base + 8,
		MSIVector: msiVector, HeaderSplit: headerSplit,
	}
	q := &nicQueue{
		cfg:      cfg,
		sendKick: sim.NewCond(n.env),
		recvKick: sim.NewCond(n.env),
		txStage:  n.internal.Alloc(128<<10, 4096),
		scratch:  n.internal.Alloc(256, 64),
		rxFIFO:   sim.NewQueue[rxFrame](n.env, fmt.Sprintf("%s-rxq%d", n.Name, qid)),
		rxSpace:  sim.NewCond(n.env),
		rxStage:  n.internal.Alloc(4<<10, 64),
		rxSlots:  sim.NewQueue[mem.Addr](n.env, fmt.Sprintf("%s-rxslots%d", n.Name, qid)),
		rxPend:   sim.NewQueue[rxPending](n.env, fmt.Sprintf("%s-rxpend%d", n.Name, qid)),
		cplStage: n.internal.Alloc(4<<10, 64),
		bdStage:  n.internal.Alloc(uint64(entries)*SendBDSize, 64),
	}
	q.irqCheck = sim.NewCoalesced(n.env, func() { n.maybeIRQ(q) })
	for i := 0; i < rxDMATags; i++ {
		q.rxSlots.Put(n.internal.Alloc(2048, 64))
	}
	n.queues[qid] = q
	n.queueList = append(n.queueList, q)
	n.env.SpawnHandler(fmt.Sprintf("%s-tx-q%d", n.Name, qid), (&txMachine{n: n, q: q}).run)
	n.env.SpawnHandler(fmt.Sprintf("%s-rx-q%d", n.Name, qid), (&rxQueueMachine{n: n, q: q}).run)
	n.env.SpawnHandler(fmt.Sprintf("%s-rxcpl-q%d", n.Name, qid), (&rxCplMachine{n: n, q: q}).run)
	return &SendRing{fab: n.fab, nic: n, cfg: cfg},
		&RecvRing{fab: n.fab, nic: n, cfg: cfg, addrs: make([]mem.Addr, entries)}, status
}

// doorbellAddrs returns the four doorbell addresses for a queue.
func (n *NIC) doorbellAddrs(qid uint16) (sendTail, sendArm, recvTail, recvArm mem.Addr) {
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
		q.irqCheck.Raise()
	case dbRecvTail:
		q.recvTail = val
		q.recvKick.Broadcast()
	case dbRecvArm:
		q.recvAck = val
		q.armed = true
		q.irqCheck.Raise()
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

// decodeSendBDs decodes a completed burst fetch of avail send BDs
// from the queue's staging buffer into its descriptor cache.
func (n *NIC) decodeSendBDs(q *nicQueue, avail int) {
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

// nextChain finds one complete chain (through its END flag) in the
// queue's descriptor cache, consumes it, and stages its gather: the
// physically adjacent fragments merge into one extent each, in
// q.sendExts. It returns the chain's first BD, its length in BDs and
// its byte count, or ok=false when the cache holds no complete chain.
func (n *NIC) nextChain(q *nicQueue) (first SendBD, bds, size int, ok bool) {
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
		return SendBD{}, 0, 0, false
	}
	chain := q.sbdCache[q.sbdHead : end+1]
	q.sbdHead = end + 1
	exts := q.sendExts[:0]
	for _, bd := range chain {
		if size+int(bd.Len) > 128<<10 {
			panic("nic: send chain exceeds staging buffer")
		}
		if k := len(exts) - 1; k >= 0 && exts[k].Addr+mem.Addr(exts[k].Len) == bd.Addr {
			exts[k].Len += int(bd.Len)
		} else {
			exts = append(exts, mem.Extent{Addr: bd.Addr, Len: int(bd.Len)})
		}
		size += int(bd.Len)
	}
	q.sendExts = exts
	return chain[0], len(chain), size, true
}

// prepTransmit parses the gathered chain's header template and
// segments it into q.segs (LSO, or one segment) for the transmit
// stage. It returns false when the chain is dropped as malformed.
//
// Segment payloads alias the staging buffer (raw); that is safe
// because only this queue's transmit machine writes q.txStage, and
// MarshalTo copies every byte into the frame before the next gather.
func (n *NIC) prepTransmit(q *nicQueue, first SendBD, raw []byte) bool {
	if len(raw) < ether.HeadersLen {
		n.drops++
		return false
	}
	proto, err := ether.ParseHeaders(raw[:ether.HeadersLen])
	if err != nil {
		n.drops++
		return false
	}
	payload := raw[ether.HeadersLen:]
	segs := q.segs[:0]
	if first.Flags&SendFlagLSO != 0 {
		segs = ether.AppendSegments(segs, proto.Flow, proto.Seq, payload, int(first.MSS))
	} else {
		if len(payload) > ether.MSS {
			n.drops++
			return false
		}
		segs = append(segs, ether.Segment{Flow: proto.Flow, Seq: proto.Seq, Ack: proto.Ack,
			Flags: proto.Flags | ether.FlagACK, Payload: payload})
	}
	q.segs = segs
	return true
}

// emitRun puts one built run of segments into the transmit FIFO,
// frame by frame.
//
//dcslint:hotpath nic_bulk_stream_64k
func (n *NIC) emitRun(segs []ether.Segment) {
	for i := range segs {
		s := &segs[i]
		// Checksum offload happens in MarshalTo; recycled frame
		// buffers make steady-state transmission allocation-free.
		frame := s.MarshalTo(n.getFrameBuf())
		n.realInFlight++
		n.txFIFO.Put(outFrame{frame: frame, wireLen: s.WireLen(), payLen: len(s.Payload)})
	}
}

// rxBatch is the receive-side coalescing factor: descriptors are
// prefetched and completions flushed in batches of up to this many,
// as real NICs do to amortize DMA transactions.
const rxBatch = 16

// recvRefill returns the receive-BD refill the queue's descriptor
// cache can take now — one batched DMA of contiguous ring slots,
// stopping at the ring wrap — as the ring address and BD count
// (0: nothing posted).
func (n *NIC) recvRefill(q *nicQueue) (mem.Addr, int) {
	batch := int(q.recvTail - q.recvHead)
	if batch > rxBatch {
		batch = rxBatch
	}
	slot := q.recvHead % uint64(q.cfg.RecvEntries)
	if room := q.cfg.RecvEntries - int(slot); batch > room {
		batch = room
	}
	return q.cfg.RecvRing.Base + mem.Addr(slot*RecvBDSize), batch
}

// decodeRecvBDs decodes a completed refill of batch receive BDs from
// the queue's staging buffer into its descriptor cache.
func (n *NIC) decodeRecvBDs(q *nicQueue, batch int) {
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
	exts := mem.RingExtents(q.cplExts[:0], q.cfg.RecvCpl.Base, slot, k, q.cfg.RecvEntries, RecvCplSize)
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

// rxPending is one in-flight receive DMA awaiting in-order retirement
// (sig nil: a dropped frame's zero-length completion, nothing in
// flight).
type rxPending struct {
	cpl  RecvCpl
	sig  *sim.Signal
	slot mem.Addr
	pay  int
}

// landFrame fills the consumed receive buffer bd with one parsed frame
// through the DMA tag slot: (header-split) staging copies, then the
// payload DMA, retired in order by the completer. A buffer too small
// for the frame drops it with a zero-length completion (HdrLen and
// PayLen 0): every consumed BD gets exactly one completion, so the
// BD indices of later completions stay in lock-step with consumption
// and the consumer can recycle the buffer.
func (n *NIC) landFrame(q *nicQueue, rf rxFrame, bd RecvBD, bdIndex uint32, slot mem.Addr) {
	mm := n.fab.Mem()
	hdr := rf.frame[:ether.HeadersLen]
	pay := rf.seg.Payload
	need := len(rf.frame)
	if q.cfg.HeaderSplit {
		need = HdrOff + len(pay) // header at offset 0, payload at HdrOff
	}
	q.cplIssued++
	if int(bd.Len) < need {
		n.drops++
		q.rxSlots.Put(slot)
		n.putFrameBuf(rf.frame)
		q.rxPend.Put(rxPending{cpl: RecvCpl{BDIndex: bdIndex, Valid: 1}})
		return
	}
	cpl := RecvCpl{BDIndex: bdIndex, Seq: rf.seg.Seq, Flags: rf.seg.Flags, Valid: 1,
		HdrLen: uint16(len(hdr)), PayLen: uint16(len(pay))}
	if q.cfg.HeaderSplit {
		// Header and payload move as one DMA.
		mm.Zero(slot, HdrOff)
		mm.Write(slot, hdr)
		if len(pay) > 0 {
			mm.Write(slot+HdrOff, pay)
		}
	} else {
		mm.Write(slot, rf.frame)
	}
	n.putFrameBuf(rf.frame) // copied into the slot
	sig := n.fab.DMAAsync(n.port, bd.Addr, slot, need)
	q.rxPend.Put(rxPending{cpl: cpl, sig: sig, slot: slot, pay: len(pay)})
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
