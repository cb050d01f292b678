package hdc

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/sim"
)

// nvmeReq asks the NVMe controller to move blocks between flash and
// an engine buffer.
type nvmeReq struct {
	write   bool
	lba     uint64
	blocks  int
	buf     mem.Addr // engine DDR3 address
	done    *sim.Signal
	attempt int // retries already spent on this request
}

// NVMeCtrl is the standard NVMe device controller of Figure 7a: a
// queue pair in engine BRAM, hardware logic that builds NVMe commands
// and handles completions, and doorbell writes to the SSD — all
// without host involvement.
type NVMeCtrl struct {
	eng  *Engine
	ring *nvme.Ring
	reqQ *sim.Queue[nvmeReq]
	room *sim.Cond

	// requeue re-enqueues a request after a retryable media error's
	// backoff.
	requeue *sim.Deferred[nvmeReq]

	// prpPages rotate per submission; the ring's outstanding cap
	// (entries-1) guarantees a page is reused only after its previous
	// command completed.
	prpPages []mem.Addr
	prpNext  int

	// Per-loop scratch and recycled completion callbacks, so the
	// steady-state submit path allocates nothing (DESIGN.md §11).
	batch  []nvmeReq
	cbFree []*nvmeCb

	cmds    int64
	retries int64
}

// nvmeCb is one in-flight command's completion context. fn is the
// record's bound onCpl method, created once per record and reused.
type nvmeCb struct {
	c   *NVMeCtrl
	req nvmeReq
	fn  func(nvme.Completion)
}

func (cb *nvmeCb) onCpl(cpl nvme.Completion) {
	c, req := cb.c, cb.req
	cb.req = nvmeReq{}
	c.cbFree = append(c.cbFree, cb)
	switch {
	case cpl.Status == nvme.StatusSuccess:
		req.done.Fire(nil)
	case nvme.Retryable(cpl.Status) && req.attempt < nvme.MaxRetries:
		// Transient media error: re-enqueue the request after nvme's
		// retry backoff; deterministic protocol errors still panic
		// (they are model bugs). The callback runs on the scheduler,
		// so the requeue is deferred rather than slept.
		c.retries++
		retry := req
		retry.attempt++
		c.requeue.After(nvme.RetryBackoff<<uint(req.attempt), retry)
	default:
		panic(fmt.Sprintf("hdc: nvme status %#x after %d attempts", cpl.Status, req.attempt+1))
	}
}

func (c *NVMeCtrl) getCb() *nvmeCb {
	if k := len(c.cbFree); k > 0 {
		cb := c.cbFree[k-1]
		c.cbFree = c.cbFree[:k-1]
		return cb
	}
	//dcslint:allow noalloc pool-miss arm: a callback record is made once per ring slot in use, then free-listed
	cb := &nvmeCb{c: c}
	//dcslint:allow noalloc see above: the bound method is made once per record
	cb.fn = cb.onCpl
	return cb
}

func newNVMeCtrl(eng *Engine, ssd *nvme.SSD, qid uint16, entries, idx int) *NVMeCtrl {
	// No MSI: the engine polls its own BRAM (msiVector < 0).
	ring, cq := ssd.NewQueuePair(eng.port, fmt.Sprintf("%s-nvme%d", eng.name, idx), mem.DeviceBRAM, qid, entries, -1)
	c := &NVMeCtrl{
		eng:  eng,
		ring: ring,
		reqQ: sim.NewQueue[nvmeReq](eng.env, eng.name+"-nvme-reqs"),
		room: sim.NewCond(eng.env),
	}
	c.requeue = sim.NewDeferred(eng.env, c.reqQ.Put)
	for i := 0; i < entries; i++ {
		c.prpPages = append(c.prpPages, eng.ddr3.Alloc(256, 64))
	}
	// Completion detection: the SSD DMA-writes CQEs into engine BRAM;
	// the controller's phase-bit snoop is modelled as a write hook.
	cq.SetWriteHook(func(off uint64, n int) {
		if c.ring.ProcessCompletions() > 0 {
			c.room.Broadcast()
		}
	})
	eng.env.SpawnHandler(fmt.Sprintf("%s-nvme%d-ctrl", eng.name, idx), (&nvmeCtrlMachine{c: c}).run)
	return c
}

// Submit enqueues a request; done fires when the SSD completes it.
func (c *NVMeCtrl) Submit(r nvmeReq) { c.reqQ.Put(r) }

// nvmeCtrlState enumerates where the NVMe controller resumes.
type nvmeCtrlState int

const (
	nvmeCtrlGet   nvmeCtrlState = iota // take the next batch of requests
	nvmeCtrlBuilt                      // build time elapsed; submit the batch
)

// nvmeCtrlMachine is the controller's submission hardware: it drains
// every request queued by an instant into one batch, charges the
// batch's command build once and rings the doorbell once per batch
// instead of once per command.
type nvmeCtrlMachine struct {
	c      *NVMeCtrl
	st     nvmeCtrlState
	i      int // next batch entry to submit
	unrung int // submissions since the last doorbell
}

//dcslint:hotpath
func (m *nvmeCtrlMachine) run(h *sim.HandlerCtx) {
	c := m.c
	for {
		switch m.st {
		case nvmeCtrlGet:
			r, ok := c.reqQ.GetH(h)
			if !ok {
				return
			}
			//dcslint:allow noalloc batch scratch is capacity-preserving (reset to [:0] per batch)
			batch := append(c.batch[:0], r)
			for {
				r, ok := c.reqQ.TryGet()
				if !ok {
					break
				}
				//dcslint:allow noalloc see above
				batch = append(batch, r)
			}
			c.batch = batch
			m.i, m.unrung = 0, 0
			m.st = nvmeCtrlBuilt
			// Hardware command build: PRPs point straight at DDR3 pages.
			if d := sim.Time(len(batch)) * c.eng.params.NVMeBuild; d > 0 {
				h.Rearm(d)
				return
			}
		case nvmeCtrlBuilt:
			for ; m.i < len(c.batch); m.i++ {
				if c.ring.Full() {
					// Flush submissions the SSD hasn't been told about
					// before waiting, or it would never free a slot.
					if m.unrung > 0 {
						c.ring.RingDoorbell()
						m.unrung = 0
					}
					c.room.WaitH(h)
					return
				}
				r := c.batch[m.i]
				prpPage := c.prpPages[c.prpNext]
				c.prpNext = (c.prpNext + 1) % len(c.prpPages)
				cmd, err := nvme.IOCommand(c.eng.fab.Mem(), r.write, r.lba, r.buf, r.blocks, prpPage)
				if err != nil {
					panic(err)
				}
				cb := c.getCb()
				cb.req = r
				if _, err := c.ring.Submit(cmd, cb.fn); err != nil {
					panic(err)
				}
				m.unrung++
				c.cmds++
			}
			if m.unrung > 0 {
				c.ring.RingDoorbell()
			}
			m.st = nvmeCtrlGet
		}
	}
}

// sendReq asks the NIC controller to transmit len bytes from an
// engine buffer on a registered connection.
type sendReq struct {
	connID uint64
	buf    mem.Addr
	length int
	done   *sim.Signal
}

// recvReq asks the NIC controller for the next want bytes of a
// connection's in-order stream, gathered into buf.
type recvReq struct {
	connID uint64
	want   int
	buf    mem.Addr
	done   *sim.Signal
}

// conn is a registered connection's hardware state.
type conn struct {
	id     uint64
	flow   ether.Flow // transmit direction
	txSeq  uint32
	rxSeq  uint32 // next expected receive sequence
	rxBufs []rxExtent
	rxHead int     // next unconsumed rxBufs entry (capacity-preserving)
	rxALen int     // bytes available in rxBufs
	waiter recvReq // the outstanding receive, when waiting
	// waiting marks a pending receive: at most one per connection.
	waiting bool
}

type rxExtent struct {
	addr mem.Addr // payload location in a receive buffer
	n    int
	buf  mem.Addr // owning 2 KB receive buffer (for recycling)
}

// NICCtrl is the standard NIC controller of Figure 7b: send/recv
// rings and a header buffer in BRAM, TCP/IP header generation, packet
// parsing and payload gathering in hardware.
type NICCtrl struct {
	eng *Engine
	dev *nic.NIC
	qid uint16

	send   *nic.SendRing
	recv   *nic.RecvRing
	hdrBuf *mem.Region

	sendQ     *sim.Queue[sendReq]
	recvQ     *sim.Queue[recvReq]
	sendSpace *sim.Cond
	cplKick   *sim.Cond

	// Reused per-loop scratch (BD chains, restock lists, poll results,
	// header template) — each is touched by exactly one controller
	// process, so a single slice apiece suffices.
	bds        []nic.SendBD
	rbds       []nic.RecvBD
	fills      []nic.Filled
	hdrScratch []byte
	sendBatch  []sendReq

	conns   map[uint64]*conn
	connsRx map[ether.Tuple]*conn // receive-tuple index for the rx path

	// hdrNext rotates through the BRAM header-buffer slots; a field (not
	// a sendLoop local) so a checkpoint restore resumes the rotation at
	// the same slot and header writes stay byte-identical.
	hdrNext int

	sendJobs, recvPkts int64
	gatheredBytes      int64
}

func newNICCtrl(eng *Engine, dev *nic.NIC, qid uint16, entries int) *NICCtrl {
	pfx := fmt.Sprintf("%s-nic-q%d", eng.name, qid)
	// The engine snoops its BRAM, no interrupts; hardware header/data
	// split (§IV-C).
	send, recv, status := dev.NewQueuePair(eng.port, pfx, mem.DeviceBRAM, qid, entries, -1, true)
	hdrBuf := eng.fab.Mem().AddRegion(pfx+"-hdrs", mem.DeviceBRAM, 64<<10, true)
	eng.fab.Attach(eng.port, hdrBuf)
	c := &NICCtrl{
		eng: eng, dev: dev, qid: qid,
		send:      send,
		recv:      recv,
		hdrBuf:    hdrBuf,
		sendQ:     sim.NewQueue[sendReq](eng.env, pfx+"-send"),
		recvQ:     sim.NewQueue[recvReq](eng.env, pfx+"-recv"),
		sendSpace: sim.NewCond(eng.env),
		cplKick:   sim.NewCond(eng.env),
		conns:     map[uint64]*conn{},
		connsRx:   map[ether.Tuple]*conn{},
	}
	// Status words double as the completion snoop points.
	status.SetWriteHook(func(off uint64, n int) { c.onStatus() })
	eng.env.SpawnHandler(pfx+"-sendctrl", (&sendMachine{c: c, hdrSlots: int(hdrBuf.Size / 64)}).run)
	eng.env.SpawnHandler(pfx+"-recvctrl", (&recvMachine{c: c}).run)
	// Keep the NIC stocked with receive buffers from DDR3.
	c.restockRecvBuffers()
	return c
}

// RegisterConnection installs a connection's flow state and steers its
// inbound packets to the engine's dedicated queue.
func (c *NICCtrl) RegisterConnection(id uint64, flow ether.Flow, txSeq, rxSeq uint32) {
	if _, dup := c.conns[id]; dup {
		panic(fmt.Sprintf("hdc: connection %d already registered", id))
	}
	cn := &conn{id: id, flow: flow, txSeq: txSeq, rxSeq: rxSeq}
	rx := flow.Reverse().Tuple()
	c.conns[id] = cn
	c.connsRx[rx] = cn
	c.dev.SetSteering(rx, c.qid)
}

// DrainConn removes a connection from the controller and returns its
// flow state plus any buffered in-order payload bytes. This is the
// fail-over path: after an engine hard failure the driver salvages
// connection state and DDR3-buffered receive data (DDR3 is a P2P-
// readable BAR) so the host network stack can take the connection
// over without losing stream bytes. Frames arriving after the drain
// find no registered connection and are recycled; the caller must
// re-steer the flow to a host queue first.
func (c *NICCtrl) DrainConn(id uint64) (flow ether.Flow, txSeq, rxSeq uint32, buffered []byte, ok bool) {
	cn, ok := c.conns[id]
	if !ok {
		return ether.Flow{}, 0, 0, nil, false
	}
	mm := c.eng.fab.Mem()
	for _, ext := range cn.rxBufs[cn.rxHead:] {
		buffered = append(buffered, mm.View(ext.addr, ext.n)...)
		c.eng.recvPool.Put(ext.buf)
	}
	delete(c.conns, id)
	delete(c.connsRx, cn.flow.Reverse().Tuple())
	return cn.flow, cn.txSeq, cn.rxSeq, buffered, true
}

func (c *NICCtrl) onStatus() {
	// Send completions: fire every send the NIC has fetched.
	c.send.Sweep()
	c.sendSpace.Broadcast()
	// Receive completions: wake the receive controller.
	c.cplKick.Broadcast()
}

// sendState enumerates where the send controller resumes.
type sendState int

const (
	sendGet  sendState = iota // take the next batch of sends
	sendItem                  // generate the next send's header and chain
	sendRoom                  // push the chain once the ring has room
)

// sendMachine implements hardware transmit: header generation into the
// BRAM header buffer, BD chain construction, doorbell. It drains every
// send queued by an instant into one batch: the header-generation cost
// is charged once and the doorbell rings once per batch instead of
// once per job.
type sendMachine struct {
	c        *NICCtrl
	st       sendState
	hdrSlots int
	i        int // batch entry in progress
	unrung   int // chains pushed since the last doorbell
}

//dcslint:hotpath
func (m *sendMachine) run(h *sim.HandlerCtx) {
	c := m.c
	for {
		switch m.st {
		case sendGet:
			r, ok := c.sendQ.GetH(h)
			if !ok {
				return
			}
			//dcslint:allow noalloc batch scratch is capacity-preserving (reset to [:0] per batch)
			batch := append(c.sendBatch[:0], r)
			for {
				r, ok := c.sendQ.TryGet()
				if !ok {
					break
				}
				//dcslint:allow noalloc see above
				batch = append(batch, r)
			}
			c.sendBatch = batch
			m.i, m.unrung = 0, 0
			m.st = sendItem
			// Generate the TCP/IP header templates in hardware.
			if d := sim.Time(len(batch)) * c.eng.params.NICHeaderGen; d > 0 {
				h.Rearm(d)
				return
			}
		case sendItem:
			if m.i == len(c.sendBatch) {
				if m.unrung > 0 {
					c.send.RingDoorbell()
				}
				m.st = sendGet
				continue
			}
			r := c.sendBatch[m.i]
			cn, ok := c.conns[r.connID]
			if !ok {
				panic(fmt.Sprintf("hdc: send on unknown connection %d", r.connID))
			}
			hdr := ether.HeaderTemplateTo(c.hdrScratch, cn.flow, cn.txSeq, ether.FlagACK|ether.FlagPSH)
			c.hdrScratch = hdr
			slotAddr := c.hdrBuf.Base + mem.Addr(c.hdrNext*64)
			c.hdrNext = (c.hdrNext + 1) % m.hdrSlots
			c.eng.fab.Mem().Write(slotAddr, hdr)
			cn.txSeq += uint32(r.length)
			// The LSO chain: header from BRAM, payload from DDR3.
			c.bds = nic.AppendLSOChain(c.bds[:0], slotAddr, len(hdr), r.buf, r.length)
			m.st = sendRoom
		case sendRoom:
			if c.send.FreeSlots() < len(c.bds) {
				// Flush chains the NIC hasn't been told about before
				// waiting, or it would never free a slot.
				if m.unrung > 0 {
					c.send.RingDoorbell()
					m.unrung = 0
				}
				c.sendSpace.WaitH(h)
				return
			}
			if err := c.send.Push(c.bds); err != nil {
				panic(err)
			}
			c.send.Track(c.sendBatch[m.i].done)
			m.unrung++
			c.sendJobs++
			m.i++
			m.st = sendItem
		}
	}
}

// SubmitSend queues a transmit request.
func (c *NICCtrl) SubmitSend(r sendReq) { c.sendQ.Put(r) }

// SubmitRecv queues a receive request and wakes the controller.
func (c *NICCtrl) SubmitRecv(r recvReq) {
	c.recvQ.Put(r)
	c.cplKick.Broadcast()
}

// restockRecvBuffers posts 2 KB DDR3 buffers until the ring is full.
func (c *NICCtrl) restockRecvBuffers() {
	bds := c.rbds[:0]
	for c.recv.Unconsumed()+len(bds) < c.eng.params.NICEntries-1 {
		buf, ok := c.eng.recvPool.Get()
		if !ok {
			break
		}
		//dcslint:allow noalloc restock scratch is capacity-preserving (reset to [:0] per restock)
		bds = append(bds, nic.RecvBD{Addr: buf, Len: uint32(c.eng.recvPool.ChunkSize())})
	}
	if len(bds) > 0 {
		if err := c.recv.Post(bds); err != nil {
			panic(err)
		}
		c.recv.RingDoorbell()
	}
	c.rbds = bds
}

// recvState enumerates where the receive controller resumes.
type recvState int

const (
	recvAdopt    recvState = iota // adopt submitted requests; poll the ring
	recvAdopted                   // an adopted request's gather time elapsed
	recvFill                      // parse the next received frame
	recvParsed                    // its parse time elapsed; account it
	recvGathered                  // the frame's gather time elapsed
)

// recvMachine implements hardware receive: packet header parsing, flow
// identification, payload bookkeeping, and gather into contiguous
// chunks — the NIC-specific intermediate processing of §IV-C.
type recvMachine struct {
	c  *NICCtrl
	st recvState
	i  int   // next entry of c.fills
	cn *conn // the connection whose gather is elapsing
}

//dcslint:hotpath
func (m *recvMachine) run(h *sim.HandlerCtx) {
	c := m.c
	mm := c.eng.fab.Mem()
	for {
		switch m.st {
		case recvAdopt:
			// Adopt newly submitted receive requests; buffered bytes may
			// already satisfy them.
			for c.recvQ.Len() > 0 {
				r, _ := c.recvQ.TryGet()
				cn := c.conns[r.connID]
				if cn == nil {
					panic(fmt.Sprintf("hdc: recv on unknown connection %d", r.connID))
				}
				if cn.waiting {
					panic(fmt.Sprintf("hdc: two receive requests on connection %d", r.connID))
				}
				cn.waiter, cn.waiting = r, true
				if m.gather(h, cn, recvAdopted) {
					return
				}
			}
			c.fills = c.recv.AppendPoll(c.fills[:0])
			if len(c.fills) == 0 {
				c.cplKick.WaitH(h)
				return
			}
			m.i = 0
			m.st = recvFill
		case recvAdopted:
			c.gathered(m.cn)
			m.st = recvAdopt
		case recvFill:
			if m.i == len(c.fills) {
				c.restockRecvBuffers()
				m.st = recvAdopt
				continue
			}
			m.st = recvParsed
			if d := c.eng.params.RecvParse; d > 0 {
				h.Rearm(d)
				return
			}
		case recvParsed:
			f := c.fills[m.i]
			m.i++
			m.st = recvFill
			if f.Cpl.HdrLen == 0 {
				// Zero-length completion: the buffer was too small and
				// the NIC dropped the frame. Recycle it for restocking.
				c.eng.recvPool.Put(f.Addr)
				continue
			}
			hdr := mm.View(f.Addr, int(f.Cpl.HdrLen))
			seg, err := ether.ParseHeaders(hdr)
			if err != nil {
				panic(fmt.Sprintf("hdc: unparsable received header: %v", err))
			}
			cn := c.connsRx[seg.Flow.Tuple()]
			if cn == nil {
				// Not ours: recycle the buffer and move on.
				c.eng.recvPool.Put(f.Addr)
				continue
			}
			if seg.Seq != cn.rxSeq {
				panic(fmt.Sprintf("hdc: out-of-order segment on conn %d: seq %d want %d", cn.id, seg.Seq, cn.rxSeq))
			}
			cn.rxSeq += uint32(f.Cpl.PayLen)
			if f.Cpl.PayLen > 0 {
				if cn.rxHead == len(cn.rxBufs) {
					// Fully drained: rewind so the backing array is reused.
					cn.rxBufs = cn.rxBufs[:0]
					cn.rxHead = 0
				}
				//dcslint:allow noalloc receive extents are capacity-preserving (rewound when drained)
				cn.rxBufs = append(cn.rxBufs, rxExtent{addr: f.Addr + nic.HdrOff, n: int(f.Cpl.PayLen), buf: f.Addr})
				cn.rxALen += int(f.Cpl.PayLen)
			} else {
				c.eng.recvPool.Put(f.Addr)
			}
			c.recvPkts++
			if m.gather(h, cn, recvGathered) {
				return
			}
		case recvGathered:
			c.gathered(m.cn)
			m.st = recvFill
		}
	}
}

// gather satisfies the connection's pending receive request when
// enough in-order bytes have accumulated: the packet-gather hardware
// copies scattered payloads into the contiguous destination chunk,
// taking DDR3-internal copy time. When that time is due, gather
// re-arms the proc, moves the machine to next and reports true; the
// request completes in gathered. Otherwise gather completes it (or
// leaves it pending) inline and reports false.
func (m *recvMachine) gather(h *sim.HandlerCtx, cn *conn, next recvState) bool {
	c := m.c
	if !cn.waiting || cn.rxALen < cn.waiter.want {
		return false
	}
	r := cn.waiter
	mm := c.eng.fab.Mem()
	remaining := r.want
	off := 0
	for remaining > 0 {
		ext := cn.rxBufs[cn.rxHead]
		take := ext.n
		if take > remaining {
			take = remaining
		}
		mm.Copy(r.buf+mem.Addr(off), ext.addr, take)
		off += take
		remaining -= take
		if take == ext.n {
			cn.rxHead++
			c.eng.recvPool.Put(ext.buf)
		} else {
			cn.rxBufs[cn.rxHead].addr += mem.Addr(take)
			cn.rxBufs[cn.rxHead].n -= take
		}
	}
	cn.rxALen -= r.want
	// Gather engine time: DDR3-internal copy bandwidth.
	if d := sim.BpsToTime(r.want, c.eng.params.GatherBps); d > 0 {
		m.cn, m.st = cn, next
		h.Rearm(d)
		return true
	}
	c.gathered(cn)
	return false
}

// gathered completes the connection's pending receive once its gather
// time has elapsed.
func (c *NICCtrl) gathered(cn *conn) {
	r := cn.waiter
	c.gatheredBytes += int64(r.want)
	cn.waiter, cn.waiting = recvReq{}, false
	c.restockRecvBuffers()
	r.done.Fire(nil)
}
