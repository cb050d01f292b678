package nvme

import (
	"cmp"
	"maps"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent SSD has no command
// in any stage: every SQE fetched (sqHead == dbTail), no completion
// pending a CQ slot, every CQE consumed and the CQ head doorbell
// delivered (cqHeadSee == cqTail). What remains is ring positions and
// phase bits, flash content, the staging slot free list (order is
// schedule state: which slot a future command gets decides DMA
// extents), bandwidth/execution accounting, and counters. The exec
// worker pool's idle population is schedule state too, so the snapshot
// records it and a load primes it (sim.Pool.Snap).

// Snap codes the device state. QPs iterate in sorted-QID order so
// encode order never leaks map iteration order.
func (s *SSD) Snap(c *snap.Codec) {
	qids := sim.SortedKeys(s.qps)
	depth := 0
	for _, qid := range qids {
		qp := s.qps[qid]
		depth += qp.cfg.Entries
		switch {
		case qp.sqHead != qp.dbTail:
			c.Failf("%s QP %d has unfetched SQEs (head=%d tail=%d)", s.Name, qid, qp.sqHead, qp.dbTail)
		case len(qp.cplPend) != 0:
			c.Failf("%s QP %d has %d pending completions", s.Name, qid, len(qp.cplPend))
		case qp.kick.Pending():
			c.Failf("%s QP %d has a queued doorbell kick", s.Name, qid)
		case qp.cqHeadSee != qp.cqTail:
			c.Failf("%s QP %d has unconsumed CQEs (seen=%d tail=%d)", s.Name, qid, qp.cqHeadSee, qp.cqTail)
		}
	}
	sim.SnapQueue(c, s.slotQ, 8, func(a *mem.Addr) { c.U64((*uint64)(a)) })
	s.readBW.Snap(c)
	s.writeBW.Snap(c)
	s.exec.Snap(c)
	c.I64(&s.cmdsDone)
	c.I64(&s.bytesRd)
	c.I64(&s.bytesWr)
	// The pool grows only while every worker holds a fetched command,
	// and the queue pairs hold fewer than their depth in commands.
	s.execs.Snap(c, depth, "queue pairs hold at most %d commands")

	// Staged and written blocks encode as one map, written blocks
	// winning, so how a block got there does not show in the bytes. A
	// load restores every block as a written one.
	blocks := s.flash
	if !c.Loading() {
		blocks = maps.Clone(s.image)
		maps.Copy(blocks, s.flash)
		c.Grow(len(blocks) * (16 + BlockSize))
	}
	sim.SnapMap(c, &blocks, cmp.Less[uint64], 8+4+BlockSize, func(lba *uint64, blk *[]byte) {
		c.U64(lba)
		c.Bytes(blk)
		if len(*blk) != BlockSize {
			c.Failf("block %d is %d bytes", *lba, len(*blk))
		}
	})
	if c.Loading() {
		s.flash, s.image = blocks, map[uint64][]byte{}
	}

	snap.Check(c, "queue pairs", uint32(len(qids)), c.U32)
	for _, qid := range qids {
		qp := s.qps[qid]
		snap.Check(c, "queue pair", qid, c.U16)
		c.Int(&qp.sqHead)
		c.Int(&qp.cqTail)
		if n := qp.cfg.Entries; qp.sqHead < 0 || qp.sqHead >= n || qp.cqTail < 0 || qp.cqTail >= n {
			c.Failf("%s QP %d: SQ head %d or CQ tail %d outside its %d entries", s.Name, qid, qp.sqHead, qp.cqTail, n)
		}
		c.Bool(&qp.phase)
		if c.Loading() {
			qp.dbTail, qp.cqHeadSee = qp.sqHead, qp.cqTail
		}
	}
}

// Snap codes the submitter-side ring positions. A quiescent submitter
// has no command outstanding.
func (r *Ring) Snap(c *snap.Codec) {
	if len(r.pending) != 0 {
		c.Failf("ring %d has %d outstanding commands", r.cfg.QID, len(r.pending))
	}
	c.Int(&r.sqTail)
	c.Int(&r.cqHead)
	if n := r.cfg.Entries; r.sqTail < 0 || r.sqTail >= n || r.cqHead < 0 || r.cqHead >= n {
		c.Failf("ring %d: SQ tail %d or CQ head %d outside its %d entries", r.cfg.QID, r.sqTail, r.cqHead, n)
	}
	c.Bool(&r.phase)
	c.U16(&r.nextCID)
}
