package nic

import (
	"cmp"
	"slices"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent NIC has no frame in
// any stage — demux, queue pipelines, DMA tags, FIFO, and wire are all
// empty. What persists across quiescence is the ring bookkeeping
// (posted receive buffers and their prefetched descriptors wait for
// future traffic), the armed-interrupt state, the tag-slot free order
// (which staging slot a future frame gets), and counters. Free lists
// (frame buffers, delivery records) restore empty: a pool miss and a
// pool hit produce identical event timelines.

// RxDMATagSlots is the number of receive DMA tag slots across the
// NIC's queues. Each asynchronous receive DMA holds one until its
// completion is consumed, which bounds the fabric's async-DMA pool.
func (n *NIC) RxDMATagSlots() int { return rxDMATags * len(n.queueList) }

// Snap codes the device state. Queues iterate in queueList
// (configuration) order.
func (n *NIC) Snap(c *snap.Codec) {
	switch {
	case n.rxQ.Len() != 0:
		c.Failf("%s: %d frames in the demux queue", n.Name, n.rxQ.Len())
	case n.txFIFO.Len() != 0:
		c.Failf("%s: %d frames in the transmit FIFO", n.Name, n.txFIFO.Len())
	case n.realInFlight != 0:
		c.Failf("%s: %d frames between FIFO and wire", n.Name, n.realInFlight)
	}
	n.txBW.Snap(c)
	c.I64(&n.txFrames)
	c.I64(&n.rxFrames)
	c.I64(&n.txPayload)
	c.I64(&n.rxPayload)
	c.I64(&n.drops)
	c.I64(&n.rxErrors)
	c.I64(&n.txReplays)
	c.I64(&n.bdRefetches)
	snap.Check(c, "steering rules", uint32(len(n.steering)), c.U32)
	sim.SnapMap(c, &n.RxPerQueue, cmp.Less[uint16], 2+8, func(qid *uint16, frames *int64) {
		c.U16(qid)
		c.I64(frames)
	})
	snap.Check(c, "queues", uint32(len(n.queueList)), c.U32)
	for _, q := range n.queueList {
		n.snapQueue(c, q)
	}
}

func (n *NIC) snapQueue(c *snap.Codec, q *nicQueue) {
	qid := q.cfg.QID
	switch {
	case q.sendHead != q.sendTail || q.sendFetched != q.sendTail:
		c.Failf("%s q%d: unconsumed send BDs (tail=%d head=%d fetched=%d)",
			n.Name, qid, q.sendTail, q.sendHead, q.sendFetched)
	case q.sbdHead != len(q.sbdCache):
		c.Failf("%s q%d: %d cached send BDs", n.Name, qid, len(q.sbdCache)-q.sbdHead)
	case len(q.cplBuf) != 0 || q.cplFirst != q.recvCplN || q.cplIssued != q.recvCplN:
		c.Failf("%s q%d: unflushed completions (buf=%d first=%d issued=%d cplN=%d)",
			n.Name, qid, len(q.cplBuf), q.cplFirst, q.cplIssued, q.recvCplN)
	case q.rxFIFO.Len() != 0:
		c.Failf("%s q%d: %d staged receive frames", n.Name, qid, q.rxFIFO.Len())
	case q.rxPend.Len() != 0:
		c.Failf("%s q%d: %d in-flight receive DMAs", n.Name, qid, q.rxPend.Len())
	case q.irqCheck.Pending():
		c.Failf("%s q%d: a queued interrupt check", n.Name, qid)
	}
	snap.Check(c, "queue", qid, c.U16)
	c.U64(&q.sendTail)
	c.U64(&q.recvTail)
	c.U64(&q.recvHead)
	c.U64(&q.recvCplN)
	// Completions trail consumption, which trails posting by less than
	// a ring: the ring keeps one slot empty.
	if q.recvCplN > q.recvHead || q.recvHead > q.recvTail || q.recvTail-q.recvHead >= uint64(q.cfg.RecvEntries) {
		c.Failf("%s q%d: receive cursors out of reach (completed=%d consumed=%d posted=%d, %d entries)",
			n.Name, qid, q.recvCplN, q.recvHead, q.recvTail, q.cfg.RecvEntries)
	}
	c.Bool(&q.armed)
	c.U64(&q.sendAck)
	c.U64(&q.recvAck)
	if c.Loading() {
		q.sendHead, q.sendFetched = q.sendTail, q.sendTail
		q.cplFirst, q.cplIssued = q.recvCplN, q.recvCplN
	}
	// Prefetched-but-unconsumed receive descriptors: posted buffers the
	// device already pulled out of the ring, waiting for traffic.
	bds := q.bdCache[q.bdHead:]
	nbd := len(bds)
	c.Count(&nbd, 8+4)
	if c.Loading() {
		q.bdCache, q.bdHead = slices.Grow(q.bdCache[:0], nbd)[:nbd], 0
		bds = q.bdCache
	}
	for i := range bds {
		c.U64((*uint64)(&bds[i].Addr))
		c.U32(&bds[i].Len)
	}
	// DMA tag-slot free order: which staging slot a future frame gets.
	sim.SnapQueue(c, q.rxSlots, 8, func(a *mem.Addr) { c.U64((*uint64)(a)) })
}

// Snap codes the submitter-side transmit ring cursor.
func (r *SendRing) Snap(c *snap.Codec) { c.U64(&r.tail) }

// Snap codes the submitter-side receive ring state: cursors plus the
// BD-index → buffer-address slot table future completions resolve
// through.
func (r *RecvRing) Snap(c *snap.Codec) {
	c.U64(&r.tail)
	c.U64(&r.cplHead)
	snap.Check(c, "receive ring slots", uint32(len(r.addrs)), c.U32)
	for i := range r.addrs {
		c.U64((*uint64)(&r.addrs[i]))
	}
}
