package core

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// OpenHostConn registers a host-terminated TCP-lite connection; flow
// is the node's transmit direction. With RSS enabled, connections are
// steered round-robin across the host receive queues.
func (n *Node) OpenHostConn(id uint64, flow ether.Flow) {
	if _, dup := n.conns[id]; dup {
		panic(fmt.Sprintf("core: connection %d exists on %s", id, n.Name))
	}
	c := &hostConn{id: id, flow: flow, avail: sim.NewCond(n.Env)}
	n.conns[id] = c
	n.connsRx[flow.Reverse().Tuple()] = c
	if len(n.recvRings) > 1 {
		q := n.nextRSS % len(n.recvRings)
		n.nextRSS++
		n.NIC.SetSteering(flow.Reverse().Tuple(), hostQID(q))
	}
}

// lookupConnByTuple finds the host connection matching an inbound
// packet's tuple (indexed: this runs once per received frame).
func (n *Node) lookupConnByTuple(t ether.Tuple) *hostConn {
	return n.connsRx[t]
}

// rxSeg is one parsed in-order segment awaiting stream delivery.
type rxSeg struct {
	c       *hostConn
	payload []byte // view into the frame buffer, valid until repost
}

// netRxCost returns the NAPI-style batch charge for a poll of k
// frames: per-frame stack cost is uniform, so one core occupancy
// covers the batch. Totals charged to the accountant are unchanged,
// and readers only observe the batch after the delivery broadcast
// either way.
func (n *Node) netRxCost(k int) sim.Time {
	hp := n.Params.Host
	cost := sim.Time(k) * hp.SockPerSeg
	if n.Kind == Vanilla {
		cost += sim.Time(k) * hp.SockBufOp
	}
	return cost
}

// deliverNetRx is the charge-free tail of one receive poll, run once
// the batch stack charge has elapsed: parse, reassemble connection
// streams, wake readers, and repost the consumed buffers. Every
// completion's buffer is reposted, in consumption order, including
// the zero-length ones of dropped frames, so the ring cycles through
// its setup stock (postRecvBuffers) and never touches a fresh page.
// fills, segs and bds are the machine's scratch slices.
func (m *netRxMachine) deliverNetRx() {
	n := m.n
	segs, bds := m.segs[:0], m.bds[:0]
	for _, f := range m.fills {
		bds = append(bds, nic.RecvBD{Addr: f.Addr, Len: hostRxBufLen})
		if f.Cpl.HdrLen == 0 {
			continue // undersized buffer: the NIC dropped the frame
		}
		// View: the payload is copied into c.stream before the
		// buffer is reposted below. Reuse is invisible to timing,
		// which never depends on a buffer's address.
		frame := n.MM.View(f.Addr, int(f.Cpl.HdrLen)+int(f.Cpl.PayLen))
		seg, err := ether.ParseView(frame)
		if err != nil {
			continue // corrupt frame: dropped by checksum
		}
		c := n.lookupConnByTuple(seg.Flow.Tuple())
		if c == nil {
			continue
		}
		if seg.Seq != c.rxSeq {
			panic(fmt.Sprintf("core: out-of-order seq %d (want %d) on conn %d at %s",
				seg.Seq, c.rxSeq, c.id, n.Name))
		}
		c.rxSeq += uint32(len(seg.Payload))
		segs = append(segs, rxSeg{c, seg.Payload})
	}
	// Segment-granularity delivery: a poll batch of a bulk stream is
	// a run of contiguous frames for one connection (the flow fast
	// path delivers whole segments this way). Each run sizes the
	// stream once (reserveRun), so reassembly compacts/grows per run,
	// not per frame. Purely a data-structure change — stream contents,
	// rxSeq advancement, and all charged costs are unchanged.
	for i := 0; i < len(segs); {
		j, runBytes := i, 0
		for ; j < len(segs) && segs[j].c == segs[i].c; j++ {
			runBytes += len(segs[j].payload)
		}
		c := segs[i].c
		c.reserveRun(runBytes)
		for ; i < j; i++ {
			segs[i].c.pushStream(segs[i].payload)
		}
		// Wake only this connection's readers, once per run.
		c.avail.Broadcast()
	}
	if err := m.recv.Post(bds); err != nil {
		panic(err)
	}
	m.recv.RingDoorbell()
	m.segs, m.bds = segs, bds
}

// netRxState enumerates where the handler receive service resumes.
type netRxState int

const (
	nrPoll netRxState = iota // poll the ring (or park on the wake cond)
	nrExec                   // batch stack charge in progress
)

// netRxMachine is the host receive service (softirq/NAPI analogue), a
// run-to-completion state machine (DESIGN.md §16): it drains NIC
// completions, charges per-frame network-stack cost, reassembles
// connection streams, and reposts buffers.
type netRxMachine struct {
	n     *Node
	recv  *nic.RecvRing
	st    netRxState
	fills []nic.Filled
	segs  []rxSeg
	bds   []nic.RecvBD
	exec  hostos.ExecH
}

// run is the machine's handler body.
func (m *netRxMachine) run(h *sim.HandlerCtx) {
	n := m.n
	for {
		switch m.st {
		case nrPoll:
			m.fills = m.recv.AppendPoll(m.fills[:0])
			if len(m.fills) == 0 {
				// Re-arm with the current ack before enrolling:
				// completions that raced in trigger an immediate
				// interrupt (NAPI's re-enable-then-repoll race
				// closure). Every broadcast redispatches here and
				// re-polls.
				m.recv.Arm()
				n.rxWake.WaitH(h)
				return
			}
			m.exec.Start(n.Host, trace.CatNetStack, n.netRxCost(len(m.fills)), nil)
			m.st = nrExec
		case nrExec:
			if !m.exec.Step(h) {
				return
			}
			m.deliverNetRx()
			m.st = nrPoll
		}
	}
}

// hostNetRecv blocks until want bytes of the connection's stream are
// available and consumes them, charging the receive-path costs (the
// user-copy "gathering" of scattered packet payloads).
func (n *Node) hostNetRecv(p *sim.Proc, bd *trace.Breakdown, connID uint64, want int) []byte {
	out := n.awaitStream(p, bd, connID, want).takeStream(want)
	n.finishRecv(p, bd, want)
	return out
}

// hostNetRecvTo is hostNetRecv that lands the bytes at a bus address
// (the contiguous buffer later ops DMA from). They go from the stream
// straight into dst through MM.Write, so dst's write hook fires, and
// the connection keeps its buffer.
func (n *Node) hostNetRecvTo(p *sim.Proc, bd *trace.Breakdown, connID uint64, want int, dst mem.Addr) {
	c := n.awaitStream(p, bd, connID, want)
	n.MM.Write(dst, c.stream[c.rd:c.rd+want])
	c.consumeStream(want)
	n.finishRecv(p, bd, want)
}

// awaitStream charges a receive call's entry and blocks until want
// bytes of the connection's stream are buffered. While it waits the
// connection records want, and deliverNetRx sizes the stream for it
// when the next bytes land; a reader that has received nothing yet
// has allocated nothing.
func (n *Node) awaitStream(p *sim.Proc, bd *trace.Breakdown, connID uint64, want int) *hostConn {
	c, ok := n.conns[connID]
	if !ok {
		panic(fmt.Sprintf("core: recv on unknown conn %d", connID))
	}
	hp := n.Params.Host
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallEntry+hp.SockRecvSetup, bd)
	start := p.Now()
	c.want = want
	for c.streamLen() < want {
		c.avail.Wait(p)
	}
	c.want = 0
	bd.Add(trace.CatIdleWait, p.Now()-start)
	return c
}

// finishRecv charges the rest of a receive call once its bytes are
// consumed: the copy out of kernel buffers into the caller's
// contiguous buffer, and the exit.
func (n *Node) finishRecv(p *sim.Proc, bd *trace.Breakdown, want int) {
	hp := n.Params.Host
	if n.Kind == Vanilla {
		n.Host.Exec(p, trace.CatSockBuf, hp.SockBufOp, bd)
	}
	n.Host.Copy(p, trace.CatDataCopy, want, bd)
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallExit, bd)
}

// sendPayload transmits payload on the connection through the host
// network stack. The NIC DMAs the caller's bytes in place: they are a
// user mapping (mapUser) until the send returns, so the caller must
// not change payload before then.
func (n *Node) sendPayload(p *sim.Proc, bd *trace.Breakdown, connID uint64, payload []byte) {
	r := n.mapUser("send-payload", payload)
	defer n.unmapUser(r)
	n.hostNetSend(p, bd, connID, r.Base, len(payload))
}

// mapUser maps bytes the host already holds into host DRAM, read-only
// and by reference, and attaches them to the host port as the arena
// is, so devices DMA them in place. unmapUser takes the mapping down
// once no device reads it any more.
func (n *Node) mapUser(name string, data []byte) *mem.Region {
	r := n.MM.MapUser(name, data)
	n.Fab.Attach(n.HostPort, r)
	return r
}

func (n *Node) unmapUser(r *mem.Region) {
	n.Fab.Detach(r)
	n.MM.Unmap(r)
}

// hostNetSend transmits nbytes from src (host DRAM, or GPU VRAM under
// SW-P2P) on the connection through the host network stack with LSO.
func (n *Node) hostNetSend(p *sim.Proc, bd *trace.Breakdown, connID uint64, src mem.Addr, nbytes int) {
	c, ok := n.conns[connID]
	if !ok {
		panic(fmt.Sprintf("core: send on unknown conn %d", connID))
	}
	hp := n.Params.Host
	n.trace("kernel", "send() enter")
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallEntry+hp.SockSendSetup, bd)
	if n.Kind == Vanilla {
		n.Host.Exec(p, trace.CatSockBuf, hp.SockBufOp, bd)
		n.Host.Copy(p, trace.CatDataCopy, nbytes, bd)
	}

	// One LSO job per 64 KB.
	for off := 0; off < nbytes; off += lsoJob {
		seg := min(nbytes-off, lsoJob)
		n.Host.Exec(p, trace.CatNetStack, hp.SockPerSeg, bd)
		hdr := n.pushLSO(p, c, src+mem.Addr(off), seg)
		n.trace("driver", "nic doorbell")
		n.Host.Exec(p, trace.CatDevCtrl, hp.SockPerSeg/2, bd)
		sig := sim.NewSignal(n.Env)
		n.sendRing.Track(sig)
		n.sendRing.RingDoorbell()
		// Wait for the NIC to fetch the job (buffer reuse safety).
		n.Host.Exec(p, trace.CatInterrupt, hp.CtxSwitch, bd)
		start := p.Now()
		n.waitSendCompleted(p, sig)
		n.unmapUser(hdr)
		bd.Add(trace.CatNICTransmit, p.Now()-start)
	}
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallExit, bd)
	n.trace("kernel", "send() exit")
}

// lsoJob is the payload of one host LSO job.
const lsoJob = 64 << 10

// pushLSO maps the connection's next header template and pushes one
// LSO job of seg payload bytes at src onto the host send ring, waiting
// for ring space. The caller rings the doorbell and unmaps the
// returned header once the job's fetch completes: the NIC copies a
// chain into its transmit FIFO before it reports the fetch, and a wire
// replay resends the FIFO copy.
func (n *Node) pushLSO(p *sim.Proc, c *hostConn, src mem.Addr, seg int) *mem.Region {
	hdr := n.mapUser("lso-header", ether.HeaderTemplate(c.flow, c.txSeq, ether.FlagACK|ether.FlagPSH))
	c.txSeq += uint32(seg)
	var chain [3]nic.SendBD // a full job: the header and two 32 KB payload BDs
	bds := nic.AppendLSOChain(chain[:0], hdr.Base, int(hdr.Size), src, seg)
	for n.sendRing.FreeSlots() < len(bds) {
		n.sendCond.Wait(p)
	}
	if err := n.sendRing.Push(bds); err != nil {
		panic(err)
	}
	return hdr
}

// waitSendCompleted blocks until the job's fetch completion; the IRQ
// bottom half performs the sweep that fires the signal.
func (n *Node) waitSendCompleted(p *sim.Proc, sig *sim.Signal) {
	n.sendRing.Sweep() // the NIC may already have fetched it
	sig.Wait(p)
}

// StreamLen returns the bytes buffered on a host connection.
func (n *Node) StreamLen(connID uint64) int {
	c, ok := n.conns[connID]
	if !ok {
		return 0
	}
	return c.streamLen()
}
