package hdc

import (
	"slices"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A quiescent engine has parsed
// every doorbelled command (cmdHead == cmdTail), completed and
// retired all of them (submitted/finished empty, scoreboard live 0),
// and its device controllers hold no queued work. What persists is
// the cumulative cursors (command/completion counts drive future
// queue-slot and ring arithmetic), the chunk-pool free orders (which
// DDR3 chunk a future transfer stages through is schedule state),
// per-connection TCP sequence state and buffered receive extents,
// ring cursors, the BRAM header-slot rotation, and counters.
// Setup-determined structure — controller lists, connection
// ownership, NDP streamers, AES keys — is rebuilt by running the
// identical configuration and only checked here.

// Snap codes the engine state. Controllers iterate in attachment
// order, connections in sorted-ID order.
func (e *Engine) Snap(c *snap.Codec) {
	switch {
	case e.dead:
		c.Failf("%s: checkpoint of a failed engine is unsupported", e.name)
	case e.cmdHead != e.cmdTail:
		c.Failf("%s: unparsed commands (head=%d tail=%d)", e.name, e.cmdHead, e.cmdTail)
	case e.kick.Pending():
		c.Failf("%s: a queued parser kick", e.name)
	case len(e.submitted) != 0 || len(e.finished) != 0:
		c.Failf("%s: %d submitted / %d finished commands in flight", e.name, len(e.submitted), len(e.finished))
	case e.sb.live != 0 || e.sb.pendDone != 0:
		c.Failf("%s: %d live / %d retiring scoreboard entries", e.name, e.sb.live, e.sb.pendDone)
	}
	c.U64(&e.cmdTail)
	if c.Loading() {
		e.cmdHead = e.cmdTail
	}
	c.U64(&e.cplCount)
	c.I64(&e.cmdsDone)
	snap.Check(c, "NIC round-robin cursor", e.nextNICRR, c.Int)
	snap.Check(c, "connections", uint32(len(e.connOwner)), c.U32)
	e.chunks.Snap(c)
	e.recvPool.Snap(c)
	c.I64(&e.sb.issued)
	c.I64(&e.sb.done)
	c.Int(&e.sb.maxLive)
	snap.Check(c, "NVMe controllers", uint32(len(e.nvmeCtls)), c.U32)
	for _, ctl := range e.nvmeCtls {
		ctl.snap(c)
	}
	snap.Check(c, "NIC controllers", uint32(len(e.nicCtls)), c.U32)
	for _, ctl := range e.nicCtls {
		ctl.snap(c)
	}
}

func (c *NVMeCtrl) snap(sc *snap.Codec) {
	if l := c.reqQ.Len(); l != 0 {
		sc.Failf("%d queued NVMe requests", l)
	}
	sc.Int(&c.prpNext)
	sc.I64(&c.cmds)
	sc.I64(&c.retries)
	c.ring.Snap(sc)
}

func (c *NICCtrl) snap(sc *snap.Codec) {
	ids := sim.SortedKeys(c.conns)
	switch {
	case c.sendQ.Len() != 0:
		sc.Failf("q%d: %d queued sends", c.qid, c.sendQ.Len())
	case c.recvQ.Len() != 0:
		sc.Failf("q%d: %d queued receives", c.qid, c.recvQ.Len())
	case c.send.Tracked() != 0:
		sc.Failf("q%d: %d unacknowledged transmits", c.qid, c.send.Tracked())
	}
	for _, id := range ids {
		if c.conns[id].waiting {
			sc.Failf("q%d: a receive waiter on connection %d", c.qid, id)
		}
	}
	sc.Int(&c.hdrNext)
	sc.I64(&c.sendJobs)
	sc.I64(&c.recvPkts)
	sc.I64(&c.gatheredBytes)
	c.send.Snap(sc)
	c.recv.Snap(sc)
	snap.Check(sc, "connections", uint32(len(ids)), sc.U32)
	for _, id := range ids {
		cn := c.conns[id]
		snap.Check(sc, "connection", id, sc.U64)
		sc.U32(&cn.txSeq)
		sc.U32(&cn.rxSeq)
		// Buffered, not-yet-consumed receive extents (live chunk data a
		// future RecvFile drains first), in arrival order.
		exts := cn.rxBufs[cn.rxHead:]
		n := len(exts)
		sc.Count(&n, 8+8+8)
		if sc.Loading() {
			cn.rxBufs, cn.rxHead = slices.Grow(cn.rxBufs[:0], n)[:n], 0
			exts = cn.rxBufs
		}
		for i := range exts {
			x := &exts[i]
			sc.U64((*uint64)(&x.addr))
			sc.Int(&x.n)
			sc.U64((*uint64)(&x.buf))
		}
		sc.Int(&cn.rxALen)
	}
}

// Snap codes the driver state. A quiescent driver has every library
// call returned: no command waiting on a completion and no queue slot
// held.
func (d *Driver) Snap(c *snap.Codec) {
	if d.outstanding != 0 || len(d.waiting) != 0 {
		c.Failf("driver has %d outstanding commands", d.outstanding)
	}
	c.U32(&d.nextID)
	c.U64(&d.tail)
	c.U64(&d.cplHead)
	c.Bool(&d.failed)
	c.I64(&d.retries)
	c.I64(&d.timeouts)
	c.I64(&d.orphans)
}
