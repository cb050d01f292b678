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

// deliverNetRx is the charge-free tail of one receive poll, run by
// netRxMachine once the batch stack charge has elapsed: parse,
// reassemble connection streams, wake readers, repost buffers. segs is
// caller-owned scratch, returned for reuse.
func (n *Node) deliverNetRx(recv *nic.RecvRing, fills []nic.Filled, segs []rxSeg) []rxSeg {
	segs = segs[:0]
	for _, f := range fills {
		// View: the payload is copied into c.stream before the
		// buffer is reposted by postRecvBuffers below.
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
	// path delivers whole segments this way). Reserve each run's
	// bytes at once so reassembly compacts/grows per run, not per
	// frame. Purely a data-structure change — stream contents,
	// rxSeq advancement, and all charged costs are unchanged.
	for i := 0; i < len(segs); {
		j, runBytes := i, 0
		for ; j < len(segs) && segs[j].c == segs[i].c; j++ {
			runBytes += len(segs[j].payload)
		}
		segs[i].c.reserveStream(runBytes)
		c := segs[i].c
		for ; i < j; i++ {
			segs[i].c.pushStream(segs[i].payload)
		}
		// Wake only this connection's readers, once per run.
		c.avail.Broadcast()
	}
	n.postRecvBuffers(recv)
	return segs
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
			m.segs = n.deliverNetRx(m.recv, m.fills, m.segs)
			m.st = nrPoll
		}
	}
}

// hostNetRecv blocks until want bytes of the connection's stream are
// available and consumes them, charging the receive-path costs (the
// user-copy "gathering" of scattered packet payloads).
func (n *Node) hostNetRecv(p *sim.Proc, bd *trace.Breakdown, connID uint64, want int) []byte {
	c, ok := n.conns[connID]
	if !ok {
		panic(fmt.Sprintf("core: recv on unknown conn %d", connID))
	}
	hp := n.Params.Host
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallEntry+hp.SockRecvSetup, bd)
	start := p.Now()
	for c.streamLen() < want {
		c.avail.Wait(p)
	}
	bd.Add(trace.CatIdleWait, p.Now()-start)
	out := c.takeStream(want)
	if n.Kind == Vanilla {
		n.Host.Exec(p, trace.CatSockBuf, hp.SockBufOp, bd)
	}
	// Copy out of kernel buffers into the caller's contiguous buffer.
	n.Host.Copy(p, trace.CatDataCopy, want, bd)
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallExit, bd)
	return out
}

// hostNetRecvTo is hostNetRecv that also lands the bytes at a bus
// address (the contiguous buffer later ops DMA from).
func (n *Node) hostNetRecvTo(p *sim.Proc, bd *trace.Breakdown, connID uint64, want int, dst mem.Addr) []byte {
	data := n.hostNetRecv(p, bd, connID, want)
	n.MM.Write(dst, data)
	return data
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

	// One LSO job per 64 KB: header template + payload BDs.
	const job = 64 << 10
	for off := 0; off < nbytes; off += job {
		seg := nbytes - off
		if seg > job {
			seg = job
		}
		n.Host.Exec(p, trace.CatNetStack, hp.SockPerSeg, bd)
		hdr := ether.HeaderTemplate(c.flow, c.txSeq, ether.FlagACK|ether.FlagPSH)
		hdrAddr := n.allocHost(64)
		n.MM.Write(hdrAddr, hdr)
		c.txSeq += uint32(seg)
		bds := []nic.SendBD{{Addr: hdrAddr, Len: uint16(len(hdr)), Flags: nic.SendFlagLSO, MSS: ether.MSS}}
		const frag = 32 << 10
		for o := 0; o < seg; o += frag {
			k := seg - o
			if k > frag {
				k = frag
			}
			bds = append(bds, nic.SendBD{Addr: src + mem.Addr(off+o), Len: uint16(k)})
		}
		bds[len(bds)-1].Flags |= nic.SendFlagEnd
		for n.sendRing.FreeSlots() < len(bds) {
			n.sendCond.Wait(p)
		}
		if err := n.sendRing.Push(bds); err != nil {
			panic(err)
		}
		n.trace("driver", "nic doorbell")
		n.Host.Exec(p, trace.CatDevCtrl, hp.SockPerSeg/2, bd)
		sig := sim.NewSignal(n.Env)
		n.pendTx = append(n.pendTx, hostPendingSend{tail: n.sendRing.Tail(), sig: sig})
		n.sendRing.RingDoorbell()
		// Wait for the NIC to fetch the job (buffer reuse safety).
		n.Host.Exec(p, trace.CatInterrupt, hp.CtxSwitch, bd)
		start := p.Now()
		n.waitSendCompleted(p, sig)
		bd.Add(trace.CatNICTransmit, p.Now()-start)
	}
	n.Host.Exec(p, trace.CatNetStack, hp.SyscallExit, bd)
	n.trace("kernel", "send() exit")
}

// sweepSendCompletions fires pending transmit signals whose BDs the
// NIC has consumed (runs in the IRQ bottom half).
func (n *Node) sweepSendCompletions() {
	completed := n.sendRing.Completed()
	k := 0
	for _, ps := range n.pendTx {
		if ps.tail > completed {
			break
		}
		ps.sig.Fire(nil)
		k++
	}
	n.pendTx = n.pendTx[k:]
}

// waitSendCompleted blocks until the job's fetch completion; the IRQ
// bottom half performs the sweep that fires the signal.
func (n *Node) waitSendCompleted(p *sim.Proc, sig *sim.Signal) {
	n.sweepSendCompletions() // the NIC may already have fetched it
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
