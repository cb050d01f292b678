package nic

// The NIC's device pumps — per-queue transmit, wire, receive demux,
// per-queue receive fill and completion — written as run-to-completion
// handler procs (DESIGN.md §16): explicit state machines that re-arm
// for occupancy charges, drive every DMA as a pcie.Xfer/XferVec, and
// enrol on the kernel's sync edges through the non-blocking H
// variants instead of parking a goroutine. Zero-length charges fall
// through inline, exactly where Sleep(0) returns without an event.
// Frozen goldens in handler_equiv_test.go pin the event schedule they
// produce.

import (
	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// txState enumerates where a queue's transmit machine resumes.
type txState int

const (
	txIdle     txState = iota // wait for posted send BDs
	txFetch                   // burst-fetch every posted-but-unfetched send BD
	txFetchDMA                // descriptor burst DMA in flight
	txFetched                 // BDFetch elapsed: draw stuck-BD faults, decode
	txRefetch                 // stuck-BD recovery delay elapsed: re-read the burst
	txScan                    // consume the next complete chain in the cache
	txGather                  // chain gather DMA in flight
	txSpace                   // wait for transmit FIFO space
	txBuild                   // pipeline cost of one run elapsed: emit it
	txStatus                  // BD completion write-back in flight
)

// txMachine is one queue's transmit pipeline: it consumes send BD
// chains, gathers buffers, applies LSO and checksum offload, and feeds
// frames to the wire machine. Descriptors are burst-fetched in one
// wrap-aware vectored DMA (at most two extents), and every complete
// chain in the burst is transmitted before the machine waits again —
// the descriptor-drain batching of real NICs. Stuck-read faults are
// drawn per descriptor, so injection statistics are preserved;
// recovery re-reads the whole burst once after the accumulated delay.
type txMachine struct {
	n     *NIC
	q     *nicQueue
	st    txState
	vec   pcie.XferVec // descriptor fetch and chain gather
	x     pcie.Xfer    // BD completion write-back
	avail int          // BDs in the burst fetch in flight
	stuck bool         // the fetch in flight is the stuck-BD re-read
	sent  bool         // a chain went out since the last idle wait

	// The chain in transmit: its first BD, BD count and byte count;
	// its segments (in q.segs) go out in runs whose sizes ramp up.
	first    SendBD
	chainLen int
	size     int
	i, k     int // next segment; size of the run being built
	ramp     int
}

// run is the machine's handler body.
func (m *txMachine) run(h *sim.HandlerCtx) {
	n, q := m.n, m.q
	for {
		switch m.st {
		case txIdle:
			if q.sendHead == q.sendTail {
				q.sendKick.WaitH(h)
				return
			}
			m.sent = false
			m.st = txFetch
		case txFetch:
			m.avail = int(q.sendTail - q.sendFetched)
			if m.avail == 0 {
				m.st = txScan
				continue
			}
			slot := int(q.sendFetched % uint64(q.cfg.SendEntries))
			q.sendExts = mem.RingExtents(q.sendExts[:0], q.cfg.SendRing.Base, slot, m.avail, q.cfg.SendEntries, SendBDSize)
			m.vec.Start(n.fab, n.port, q.bdStage, q.sendExts, true)
			m.stuck = false
			m.st = txFetchDMA
		case txFetchDMA:
			if !m.vec.Step(h) {
				return
			}
			m.st = txFetched
			if d := n.params.BDFetch; d > 0 {
				h.Rearm(d)
				return
			}
		case txFetched:
			if !m.stuck {
				stuck := 0
				for i := 0; i < m.avail; i++ {
					if n.params.Faults.Hit(fault.NICStuckBD) {
						stuck++
					}
				}
				if stuck > 0 {
					// Stale descriptor reads: re-fetch after the
					// recovery delay.
					n.bdRefetches += int64(stuck)
					m.stuck = true
					m.st = txRefetch
					h.Rearm(sim.Time(stuck) * stuckBDRecovery)
					return
				}
			}
			n.decodeSendBDs(q, m.avail)
			m.st = txScan
		case txRefetch:
			m.vec.Start(n.fab, n.port, q.bdStage, q.sendExts, true)
			m.st = txFetchDMA
		case txScan:
			first, bds, size, ok := n.nextChain(q)
			if !ok {
				switch {
				case q.sendFetched != q.sendTail:
					m.st = txFetch
				case !m.sent:
					// Incomplete chain posted: wait for the rest.
					q.sendKick.WaitH(h)
					m.st = txFetch
					return
				default:
					m.st = txIdle
				}
				continue
			}
			m.first, m.chainLen, m.size = first, bds, size
			m.vec.Start(n.fab, n.port, q.txStage, q.sendExts, true)
			m.st = txGather
		case txGather:
			if !m.vec.Step(h) {
				return
			}
			if !n.prepTransmit(q, m.first, n.fab.Mem().View(q.txStage, m.size)) {
				m.completeChain()
				continue
			}
			m.i, m.ramp = 0, 1
			m.st = txSpace
		case txSpace:
			// Runs go out in batched events: each pays the pipeline
			// cost for a run of frames in one charge and marshals the
			// run back-to-back. Run sizes ramp up exponentially, so the
			// wire is fed after one frame's overhead and never starves
			// while later, larger runs build; the total overhead
			// charged is the per-frame model's.
			if m.i == len(q.segs) {
				m.completeChain()
				continue
			}
			room := txFIFOCap - n.txFIFO.Len()
			if room <= 0 {
				n.txSpace.WaitH(h)
				return
			}
			m.k = m.ramp
			if m.k > room {
				m.k = room
			}
			if rem := len(q.segs) - m.i; m.k > rem {
				m.k = rem
			}
			m.st = txBuild
			// Per-frame pipeline cost overlaps wire serialization: it
			// is paid here, in the build stage, not on the wire.
			if d := n.params.TxOverhead * sim.Time(m.k); d > 0 {
				h.Rearm(d)
				return
			}
		case txBuild:
			n.emitRun(q.segs[m.i : m.i+m.k])
			m.i += m.k
			if m.ramp < txFIFOCap {
				m.ramp *= 2
			}
			m.st = txSpace
		case txStatus:
			if !m.x.Step(h) {
				return
			}
			n.maybeIRQ(q)
			m.sent = true
			m.st = txScan
		}
	}
}

// completeChain retires the chain in transmit and starts its BD
// completion write-back. Its buffers were fully fetched into the FIFO,
// so the submitter may reuse them (wire transmission proceeds
// asynchronously, as on real hardware). The write-back stays per
// chain: withholding it until the whole burst drained would stall
// submitters waiting on completed chains while a later chain's frames
// trickle onto the wire.
func (m *txMachine) completeChain() {
	n, q := m.n, m.q
	q.sendHead += uint64(m.chainLen)
	var cnt [8]byte
	putLE64(cnt[:], q.sendHead)
	n.fab.Mem().Write(q.scratch, cnt[:])
	m.x.Start(n.fab, n.port, q.cfg.SendStatus, q.scratch, 8)
	m.st = txStatus
}

// txWireState enumerates where the wire machine resumes.
type txWireState int

const (
	twGet  txWireState = iota // fetch the next built frame
	twAcq                     // acquire the wire
	twHold                    // serialization elapsed: hand the frame on
)

// txWireMachine drains built frames onto the wire at line rate.
//
// Under fault injection a frame may be corrupted on the wire: the
// corrupted copy is still delivered (the receiver's checksum check
// drops it and counts an rxError) and the link layer retransmits the
// original after a NAK round trip. Replays happen here, before the
// next frame is taken from the FIFO, so per-link FIFO delivery order
// is preserved — receivers never see reordering, only latency.
type txWireMachine struct {
	n       *NIC
	st      txWireState
	f       outFrame
	attempt int
}

// run is the machine's handler body.
func (m *txWireMachine) run(h *sim.HandlerCtx) {
	n := m.n
	for {
		switch m.st {
		case twGet:
			f, ok := n.txFIFO.GetH(h)
			if !ok {
				return
			}
			n.txSpace.Broadcast()
			m.f, m.attempt = f, 0
			m.st = twAcq
		case twAcq:
			if !n.txBW.AcquireH(h) {
				return
			}
			m.st = twHold
			if d := n.txBW.HoldTime(m.f.wireLen); d > 0 {
				h.Rearm(d)
				return
			}
		case twHold:
			n.txBW.CompleteH(m.f.wireLen)
			n.txFrames++
			f := m.f
			if n.peer == nil && n.uplink == nil {
				n.drops++
				n.putFrameBuf(f.frame)
			} else if m.attempt < frameReplayCap && n.params.Faults.Hit(fault.NICCorruptFrame) {
				n.txReplays++
				bad := append([]byte(nil), f.frame...)
				bad[len(bad)-1] ^= 0xFF // breaks the TCP checksum
				n.wireOut(bad, f.wireLen, 0)
				m.attempt++
				m.st = twAcq
				if d := 2 * n.params.PropDelay; d > 0 { // NAK round trip
					h.Rearm(d)
					return
				}
				continue
			} else {
				n.txPayload += int64(f.payLen)
				n.wireOut(f.frame, f.wireLen, f.payLen)
			}
			n.realInFlight--
			n.env.CountIO(1) // one wire frame left the device
			m.f = outFrame{}
			m.st = twGet
		}
	}
}

// rxDemuxState enumerates where the demux machine resumes.
type rxDemuxState int

const (
	rxsGet   rxDemuxState = iota // fetch the next arrival burst
	rxsDemux                     // demux occupancy elapsed; steer frames
	rxsStall                     // a queue FIFO is full; waiting for space
)

// rxDemuxMachine is the shared demux stage: verify, parse, steer.
// Heavy per-frame work (descriptor fetch, payload DMA, completions)
// happens in per-queue pipelines so receive throughput scales with
// queues. The burst slice is scratch that persists across dispatches.
type rxDemuxMachine struct {
	n     *NIC
	st    rxDemuxState
	burst [][]byte
	i     int // next frame to steer within burst

	// Parked-frame context while stalled on a full queue FIFO.
	stallQ   *nicQueue
	stallSeg ether.Segment
}

// run is the machine's handler body.
func (m *rxDemuxMachine) run(h *sim.HandlerCtx) {
	n := m.n
	for {
		switch m.st {
		case rxsGet:
			frame, ok := n.rxQ.GetH(h)
			if !ok {
				return
			}
			m.burst = append(m.burst[:0], frame)
			for len(m.burst) < rxBatch {
				f2, ok := n.rxQ.TryGet()
				if !ok {
					break
				}
				m.burst = append(m.burst, f2)
			}
			// One demux occupancy per arrival burst (interrupt-
			// coalescing analogue): the per-frame cost is uniform, so
			// the charge is the same k*RxDemux a per-frame loop would
			// accumulate. A zero charge falls through inline, the way
			// Sleep(0) returns without an event.
			m.i = 0
			m.st = rxsDemux
			if d := sim.Time(len(m.burst)) * n.params.RxDemux; d > 0 {
				h.Rearm(d)
				return
			}
		case rxsDemux:
			for m.i < len(m.burst) {
				frame := m.burst[m.i]
				seg, err := ether.ParseView(frame)
				if err != nil {
					n.rxErrors++
					n.putFrameBuf(frame)
					m.i++
					continue
				}
				qid, ok := n.steering[seg.Flow.Tuple()]
				if !ok {
					qid = 0
				}
				q, exists := n.queues[qid]
				if !exists {
					n.drops++
					n.putFrameBuf(frame)
					m.i++
					continue
				}
				if q.rxFIFO.Len() >= rxQueueCap {
					m.stallQ, m.stallSeg = q, seg
					m.st = rxsStall
					q.rxSpace.WaitH(h)
					return
				}
				q.rxFIFO.Put(rxFrame{frame: frame, seg: seg})
				m.i++
			}
			for j := range m.burst {
				m.burst[j] = nil // drop frame refs until the next burst
			}
			m.st = rxsGet
		case rxsStall:
			// Re-check on every broadcast (a for-Wait loop); the
			// frame was already parsed.
			q := m.stallQ
			if q.rxFIFO.Len() >= rxQueueCap {
				q.rxSpace.WaitH(h)
				return
			}
			q.rxFIFO.Put(rxFrame{frame: m.burst[m.i], seg: m.stallSeg})
			m.i++
			m.stallQ, m.stallSeg = nil, ether.Segment{}
			m.st = rxsDemux
		}
	}
}

// rxQueueState enumerates where a queue's receive-fill machine resumes.
type rxQueueState int

const (
	rqGet    rxQueueState = iota // fetch the next frame burst
	rqFill                       // land burst[i], refilling descriptors or pausing first
	rqBDDMA                      // receive-BD refill DMA in flight
	rqBDRead                     // BDFetch elapsed: decode the refill
	rqSlot                       // BD consumed: waiting for a free DMA tag
)

// rxQueueMachine is one queue's receive pipeline: it takes parsed
// frames from the demux stage, fills posted buffers (pausing,
// PFC-style, while none are posted), and hands in-flight DMAs to the
// completer. The burst slice is scratch that persists across
// dispatches.
type rxQueueMachine struct {
	n     *NIC
	q     *nicQueue
	st    rxQueueState
	burst []rxFrame
	i     int       // next frame to land within burst
	x     pcie.Xfer // receive-BD refill
	batch int       // BDs in the refill in flight
	bd    RecvBD    // the consumed BD burst[i] lands in
	bdIdx uint32    // its completion index
}

// run is the machine's handler body.
func (m *rxQueueMachine) run(h *sim.HandlerCtx) {
	n, q := m.n, m.q
	for {
		switch m.st {
		case rqGet:
			rf, ok := q.rxFIFO.GetH(h)
			if !ok {
				return
			}
			m.burst = append(m.burst[:0], rf)
			for len(m.burst) < rxBatch {
				rf, ok := q.rxFIFO.TryGet()
				if !ok {
					break
				}
				m.burst = append(m.burst, rf)
			}
			q.rxSpace.Broadcast()
			m.i = 0
			m.st = rqFill
			// One pipeline occupancy per burst; same uniform-cost
			// argument as the demux stage (rxDemuxMachine).
			if d := sim.Time(len(m.burst)) * n.params.RxOverhead; d > 0 {
				h.Rearm(d)
				return
			}
		case rqFill:
			if m.i == len(m.burst) {
				for j := range m.burst {
					m.burst[j] = rxFrame{} // drop frame refs until the next burst
				}
				m.st = rqGet
				continue
			}
			if q.bdLen() == 0 {
				// Per-queue (priority) flow control: with no posted
				// buffer the queue pauses until the consumer recycles
				// some. In-flight DMAs retire meanwhile and the
				// completer flushes them, so the consumer always sees
				// enough completions to make progress.
				addr, batch := n.recvRefill(q)
				if batch == 0 {
					q.recvKick.WaitH(h)
					return
				}
				m.batch = batch
				m.x.Start(n.fab, n.port, q.rxStage, addr, batch*RecvBDSize)
				m.st = rqBDDMA
				continue
			}
			m.bd = q.bdCache[q.bdHead]
			q.bdHead++
			m.bdIdx = uint32(q.cplIssued % uint64(q.cfg.RecvEntries))
			m.st = rqSlot
		case rqBDDMA:
			if !m.x.Step(h) {
				return
			}
			m.st = rqBDRead
			if d := n.params.BDFetch; d > 0 {
				h.Rearm(d)
				return
			}
		case rqBDRead:
			n.decodeRecvBDs(q, m.batch)
			m.st = rqFill
		case rqSlot:
			// The payload DMA goes out on a free tag; the completer
			// retires tags in order so completion entries stay FIFO.
			slot, ok := q.rxSlots.GetH(h)
			if !ok {
				return
			}
			n.landFrame(q, m.burst[m.i], m.bd, m.bdIdx, slot)
			m.i++
			m.st = rqFill
		}
	}
}

// rxCplState enumerates where the completer machine resumes.
type rxCplState int

const (
	csGet     rxCplState = iota // fetch the next in-flight DMA
	csWaitSig                   // waiting for its completion signal
	csFlush                     // flush DMA in progress
)

// rxCplMachine is a queue's completer: in-order DMA retirement, slot
// recycling, coalesced completion flushes.
type rxCplMachine struct {
	n    *NIC
	q    *nicQueue
	st   rxCplState
	pend rxPending
	vec  pcie.XferVec
}

// run is the machine's handler body.
func (m *rxCplMachine) run(h *sim.HandlerCtx) {
	n, q := m.n, m.q
	for {
		switch m.st {
		case csGet:
			pend, ok := q.rxPend.GetH(h)
			if !ok {
				return
			}
			m.pend = pend
			m.st = csWaitSig
		case csWaitSig:
			if sig := m.pend.sig; sig != nil { // nil: a dropped frame's zero-length completion
				if !sig.WaitH(h) {
					return
				}
				// This machine is the signal's only waiter, so it can
				// be recycled as soon as the completion is observed.
				n.fab.RecycleAsyncSignal(sig)
				q.rxSlots.Put(m.pend.slot)
				n.rxFrames++
				n.rxPayload += int64(m.pend.pay)
				n.RxPerQueue[q.cfg.QID]++
			}
			q.cplBuf = append(q.cplBuf, m.pend.cpl)
			m.pend = rxPending{}
			// Flush when the batch fills or no more DMAs are in flight
			// (the queue may be paused waiting for these completions).
			if len(q.cplBuf) >= rxBatch || q.rxPend.Len() == 0 {
				if n.prepFlush(q) > 0 {
					m.vec.Start(n.fab, n.port, q.cplStage, q.cplExts, false)
					m.st = csFlush
					continue
				}
			}
			m.st = csGet
		case csFlush:
			if !m.vec.Step(h) {
				return
			}
			n.finishFlush(q)
			m.st = csGet
		}
	}
}
