package nvme

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Params are the SSD performance characteristics, defaulting to the
// Intel 750 400 GB of Table V.
type Params struct {
	ReadLatency  sim.Time // media access latency per read command
	WriteLatency sim.Time // media program latency per write command
	ReadBps      float64  // internal read bandwidth (17.2 Gbps)
	WriteBps     float64  // internal write bandwidth (7.2 Gbps)
	Channels     int      // concurrently executing commands
	CmdDecode    sim.Time // on-device command decode/setup
	// Faults injects media errors (uncorrectable reads, failed
	// programs) reported via CQ status; nil disables injection.
	Faults *fault.Injector
}

// DefaultParams return the Intel 750-calibrated values.
func DefaultParams() Params {
	return Params{
		ReadLatency:  20 * sim.Microsecond,
		WriteLatency: 20 * sim.Microsecond,
		ReadBps:      17.2e9,
		WriteBps:     7.2e9,
		Channels:     4,
		CmdDecode:    500 * sim.Nanosecond,
	}
}

// doorbell register layout inside the SSD BAR: 32 bytes per queue
// pair, SQ tail at +0 and CQ head at +16.
const dbStride = 32

// SSD is the NVMe device model: it owns a doorbell BAR and an
// internal (non-P2P-addressable) staging buffer, fetches SQEs by DMA,
// executes them against a flash backend holding real block contents,
// moves data to/from PRP pages by DMA, posts CQEs, and optionally
// raises MSI.
type SSD struct {
	Name string

	env    *sim.Env
	fab    *pcie.Fabric
	params Params
	port   *pcie.Port

	Doorbells *mem.Region
	staging   *mem.Region
	slotQ     *sim.Queue[mem.Addr] // free 64 KB staging slots

	readBW  *sim.BandwidthServer
	writeBW *sim.BandwidthServer
	exec    *sim.Resource // concurrent command execution (channels)

	// flash holds the device's own blocks (written ones and copied
	// short tails); image holds staged blocks by reference to the
	// stager's bytes. Both map an LBA to BlockSize bytes. A read looks
	// in flash, then image, then zeroBlock; a write lands in flash, so
	// image blocks are never written.
	flash map[uint64][]byte
	image map[uint64][]byte
	qps   map[uint16]*devQP

	// Command-execution worker pool: finished workers park instead of
	// exiting, so steady-state command execution reuses proc stacks
	// and scratch slices rather than allocating per command.
	execs *sim.Pool[execJob]

	// zeroBlock is the shared read-only content of never-written LBAs.
	zeroBlock []byte

	cmdsDone int64
	bytesRd  int64
	bytesWr  int64
}

// execJob is one fetched command handed to an execution worker.
type execJob struct {
	qp     *devQP
	cmd    Command
	sqHead int
}

type devQP struct {
	cfg       RingConfig
	msiVector int
	sqHead    int
	dbTail    int // last SQ tail doorbell value
	cqTail    int
	phase     bool
	cqHeadSee int       // last CQ head doorbell value
	sqKick    *sim.Cond // SQ tail doorbell arrived
	cqKick    *sim.Cond // CQ head doorbell arrived
	sqBatch   mem.Addr  // staging for burst-fetched SQEs (Entries slots)
	cqBatch   mem.Addr  // staging for coalesced CQE posts (Entries slots)

	// kick coalesces same-instant SQ doorbell rings into one sqKick
	// broadcast.
	kick *sim.Coalesced

	// cplPend holds finished commands awaiting a CQ slot; the per-QP
	// completer drains it in same-instant batches. Bounded by the
	// submitter's ring flow control (< Entries outstanding commands).
	cplPend []Completion
	cplWork *sim.Cond
	sqExts  []mem.Extent // wrap-aware fetch extents (fetch machine only)
	cqExts  []mem.Extent // wrap-aware post extents (completer only)
}

// NewSSD builds the device, allocating its BAR and staging regions and
// attaching them to a new fabric port.
func NewSSD(env *sim.Env, fab *pcie.Fabric, name string, params Params) *SSD {
	s := &SSD{
		Name:      name,
		env:       env,
		fab:       fab,
		params:    params,
		flash:     map[uint64][]byte{},
		image:     map[uint64][]byte{},
		qps:       map[uint16]*devQP{},
		zeroBlock: make([]byte, BlockSize),
	}
	s.port = fab.AddPort(name)
	mm := fab.Mem()
	s.Doorbells = mm.AddRegion(name+"-doorbells", mem.MMIO, 4096, true)
	s.staging = mm.AddRegion(name+"-staging", mem.DeviceInternal, 16<<20, false)
	fab.Attach(s.port, s.Doorbells)
	fab.Attach(s.port, s.staging)

	nSlots := params.Channels * 4
	s.slotQ = sim.NewQueue[mem.Addr](env, name+"-slots")
	for i := 0; i < nSlots; i++ {
		s.slotQ.Put(s.staging.Alloc(64<<10, 4096))
	}
	s.readBW = sim.NewBandwidthServer(env, name+"-flash-rd", params.ReadBps, 0)
	s.writeBW = sim.NewBandwidthServer(env, name+"-flash-wr", params.WriteBps, 0)
	s.exec = sim.NewResource(env, name+"-exec", params.Channels)
	s.execs = sim.NewPool(env, name+" exec", func(job execJob, ok bool) {
		// A worker is a handler proc; its machine, scratch slices and
		// bound body are made once per pooled worker.
		w := &execWorker{
			s:     s,
			job:   job,
			st:    exAcquire,
			pages: make([]mem.Addr, 0, MaxBlocksPerCmd),
			exts:  make([]mem.Extent, 0, MaxBlocksPerCmd),
		}
		if !ok {
			w.st = exFetch
		}
		env.SpawnHandler(name+"-exec", w.run)
	})

	s.Doorbells.SetWriteHook(s.onDoorbell)
	return s
}

// Stats returns commands completed and bytes read/written.
func (s *SSD) Stats() (cmds, bytesRead, bytesWritten int64) {
	return s.cmdsDone, s.bytesRd, s.bytesWr
}

// NewQueuePair sets up a submitter's queue pair qid of entries
// commands, the admin-queue step of a real device, performed at
// configuration time: it allocates <prefix>-sq and <prefix>-cq in the
// submitter's memory (kind, attached to port), registers the pair with
// the SSD, starts its fetch and completion loops, and returns the
// submitter's ring and the CQ region, whose write hook is the
// completion snoop of a submitter without interrupts. msiVector < 0
// means no interrupt: the submitter detects completions by CQ memory
// write (the HDC Engine mode).
func (s *SSD) NewQueuePair(port *pcie.Port, prefix string, kind mem.Kind, qid uint16, entries, msiVector int) (*Ring, *mem.Region) {
	if entries < 2 {
		panic(fmt.Sprintf("nvme: queue pair %d too small (%d entries)", qid, entries))
	}
	if _, dup := s.qps[qid]; dup {
		panic(fmt.Sprintf("nvme: QP %d exists on %s", qid, s.Name))
	}
	mm := s.fab.Mem()
	sq := mm.AddRegion(prefix+"-sq", kind, uint64(entries*CommandSize), true)
	cq := mm.AddRegion(prefix+"-cq", kind, uint64(entries*CompletionSize), true)
	s.fab.Attach(port, sq)
	s.fab.Attach(port, cq)
	db := s.Doorbells.Base + mem.Addr(uint64(qid)*dbStride) // SQ tail; CQ head at +16
	cfg := RingConfig{QID: qid, Entries: entries, SQ: sq, CQ: cq, SQDoorbell: db, CQDoorbell: db + 16}
	qp := &devQP{
		cfg:       cfg,
		msiVector: msiVector,
		phase:     true,
		sqKick:    sim.NewCond(s.env),
		cqKick:    sim.NewCond(s.env),
		sqBatch:   s.staging.Alloc(uint64(entries)*CommandSize, 64),
		cqBatch:   s.staging.Alloc(uint64(entries)*CompletionSize, 64),
		cplPend:   make([]Completion, 0, entries),
		cplWork:   sim.NewCond(s.env),
		sqExts:    make([]mem.Extent, 0, 2),
		cqExts:    make([]mem.Extent, 0, 2),
	}
	qp.kick = sim.NewCoalesced(s.env, qp.sqKick.Broadcast)
	s.qps[qid] = qp
	s.env.SpawnHandler(fmt.Sprintf("%s-qp%d", s.Name, qid), (&fetchMachine{s: s, qp: qp}).run)
	s.env.SpawnHandler(fmt.Sprintf("%s-qp%d-cpl", s.Name, qid), (&cplMachine{s: s, qp: qp}).run)
	return &Ring{cfg: cfg, fab: s.fab, phase: true, pending: map[uint16]func(Completion){}}, cq
}

func (s *SSD) onDoorbell(off uint64, n int) {
	qid := uint16(off / dbStride)
	qp, ok := s.qps[qid]
	if !ok {
		panic(fmt.Sprintf("nvme: doorbell for unknown QP %d on %s", qid, s.Name))
	}
	val := int(le64(s.Doorbells.Bytes(off, 8)))
	if off%dbStride == 0 {
		// Coalesce same-instant tail rings: the deferred kick runs after
		// every doorbell delivery queued for this instant, so the QP loop
		// wakes once and sees the final tail (a multi-entry doorbell
		// drain, as real NVMe devices do). The continuation is a pure
		// scheduling action, so Chain may legally run it inline.
		qp.dbTail = val
		qp.kick.Raise()
	} else {
		qp.cqHeadSee = val
		qp.cqKick.Broadcast()
	}
}

// fetchState enumerates where a queue pair's fetch machine resumes.
type fetchState int

const (
	fetchWait   fetchState = iota // wait for the SQ tail doorbell
	fetchDMA                      // burst-fetch the posted SQEs
	fetchDecode                   // decode time elapsed; dispatch
)

// fetchMachine is a queue pair's SQ fetch loop as a handler: on each
// doorbell it drains every newly posted SQE in one pass — a burst
// fetch of the whole window by vectored DMA (one or two extents
// depending on ring wrap), one decode charge for the batch, then
// dispatch to the exec pool.
type fetchMachine struct {
	s     *SSD
	qp    *devQP
	st    fetchState
	avail int
	v     pcie.XferVec
}

//dcslint:hotpath
func (m *fetchMachine) run(h *sim.HandlerCtx) {
	s, qp := m.s, m.qp
	for {
		switch m.st {
		case fetchWait:
			if qp.sqHead == qp.dbTail {
				qp.sqKick.WaitH(h)
				return
			}
			m.avail = (qp.dbTail - qp.sqHead + qp.cfg.Entries) % qp.cfg.Entries
			qp.sqExts = mem.RingExtents(qp.sqExts[:0], qp.cfg.SQ.Base, qp.sqHead, m.avail, qp.cfg.Entries, CommandSize)
			m.v.Start(s.fab, s.port, qp.sqBatch, qp.sqExts, true)
			m.st = fetchDMA
		case fetchDMA:
			if !m.v.Step(h) {
				return
			}
			m.st = fetchDecode
			if d := s.params.CmdDecode * sim.Time(m.avail); d > 0 {
				h.Rearm(d)
				return
			}
		case fetchDecode:
			for i := 0; i < m.avail; i++ {
				raw := s.fab.Mem().View(qp.sqBatch+mem.Addr(i*CommandSize), CommandSize)
				cmd, err := DecodeCommand(raw)
				sqHead := (qp.sqHead + 1) % qp.cfg.Entries
				qp.sqHead = sqHead
				if err != nil {
					s.finishCmd(qp, Completion{CID: cmd.CID, SQHead: uint16(sqHead), SQID: qp.cfg.QID, Status: StatusInternalErr})
					continue
				}
				// Execute concurrently up to the channel count; completions
				// may land out of order, which the CID matching absorbs.
				s.execs.Submit(execJob{qp: qp, cmd: cmd, sqHead: sqHead})
			}
			m.st = fetchWait
		}
	}
}

// exState enumerates where an exec worker resumes. A read runs media
// latency, flash bandwidth, then the scatter DMA; a write runs the
// gather DMA, program latency, then flash bandwidth.
type exState int

const (
	exFetch     exState = iota // fetch the next job from the pool
	exAcquire                  // acquire an execution channel
	exSlot                     // take a staging slot
	exFlush                    // charge the flush latency
	exFlushed                  // flush latency elapsed
	exReadLat                  // read media latency elapsed
	exReadBW                   // acquire the flash read bandwidth
	exReadHold                 // read bandwidth occupancy elapsed
	exReadDMA                  // scatter the slot across the PRP pages
	exWriteDMA                 // gather the PRP pages into the slot
	exWriteLat                 // program latency elapsed
	exWriteBW                  // acquire the flash write bandwidth
	exWriteHold                // write bandwidth occupancy elapsed
)

// execWorker runs fetched commands for the lifetime of the SSD,
// waiting on the pool between commands; a primed worker starts at
// exFetch. The PRP-page and DMA-extent scratch slices live for the
// worker's lifetime, so steady-state execution allocates nothing.
type execWorker struct {
	s       *SSD
	st      exState
	job     execJob
	slot    mem.Addr
	hasSlot bool
	pages   []mem.Addr
	exts    []mem.Extent
	v       pcie.XferVec
}

//dcslint:hotpath
func (w *execWorker) run(h *sim.HandlerCtx) {
	s := w.s
	for {
		switch w.st {
		case exFetch:
			job, ok := s.execs.GetH(h)
			if !ok {
				return
			}
			w.job = job
			w.st = exAcquire
		case exAcquire:
			if !s.exec.AcquireH(h) {
				return
			}
			if st, done := w.begin(); done {
				w.finish(st)
				continue
			}
		case exSlot:
			slot, ok := s.slotQ.GetH(h)
			if !ok {
				return
			}
			w.slot, w.hasSlot = slot, true
			if w.job.cmd.Opcode == OpRead {
				// Media access: latency once, bandwidth for the span.
				w.st = exReadLat
				if d := s.params.ReadLatency; d > 0 {
					h.Rearm(d)
					return
				}
				continue
			}
			w.startDMA(false)
			w.st = exWriteDMA
		case exFlush:
			w.st = exFlushed
			if d := s.params.WriteLatency; d > 0 {
				h.Rearm(d)
				return
			}
		case exFlushed:
			w.finish(StatusSuccess)
		case exReadLat:
			if s.params.Faults.Hit(fault.NVMeReadError) {
				// Uncorrectable ECC on this access: fail before any data
				// leaves the device. A retry re-reads the media.
				w.finish(StatusMediaErr)
				continue
			}
			w.st = exReadBW
		case exReadBW:
			if !s.readBW.AcquireH(h) {
				return
			}
			w.st = exReadHold
			if d := s.readBW.HoldTime(w.job.cmd.Bytes()); d > 0 {
				h.Rearm(d)
				return
			}
		case exReadHold:
			cmd := w.job.cmd
			s.readBW.CompleteH(cmd.Bytes())
			for i := 0; i < cmd.Blocks(); i++ {
				s.fab.Mem().Write(w.slot+mem.Addr(i*BlockSize), s.readBlock(cmd.SLBA+uint64(i)))
			}
			w.startDMA(true)
			w.st = exReadDMA
		case exReadDMA:
			done, err := w.v.StepErr(h)
			if err != nil {
				w.finish(StatusInvalidPRP)
				continue
			}
			if !done {
				return
			}
			s.bytesRd += int64(w.job.cmd.Bytes())
			s.cmdsDone++
			w.finish(StatusSuccess)
		case exWriteDMA:
			done, err := w.v.StepErr(h)
			if err != nil {
				w.finish(StatusInvalidPRP)
				continue
			}
			if !done {
				return
			}
			w.st = exWriteLat
			if d := s.params.WriteLatency; d > 0 {
				h.Rearm(d)
				return
			}
		case exWriteLat:
			if s.params.Faults.Hit(fault.NVMeWriteError) {
				// Program failure before commit: flash is untouched, so
				// re-issuing the write is idempotent.
				w.finish(StatusMediaErr)
				continue
			}
			w.st = exWriteBW
		case exWriteBW:
			if !s.writeBW.AcquireH(h) {
				return
			}
			w.st = exWriteHold
			if d := s.writeBW.HoldTime(w.job.cmd.Bytes()); d > 0 {
				h.Rearm(d)
				return
			}
		case exWriteHold:
			cmd := w.job.cmd
			s.writeBW.CompleteH(cmd.Bytes())
			for i := 0; i < cmd.Blocks(); i++ {
				// Overwrites land in the existing block — the flash map
				// is the device's deterministic block cache; only first
				// writes to an LBA allocate. A first write over a staged
				// LBA gets its own block, which hides the image block.
				lba := cmd.SLBA + uint64(i)
				blk, ok := s.flash[lba]
				if !ok {
					//dcslint:allow noalloc a first write to an LBA gives it its own flash block, kept for the SSD's lifetime
					blk = make([]byte, BlockSize)
					s.flash[lba] = blk
				}
				s.fab.Mem().ReadInto(w.slot+mem.Addr(i*BlockSize), blk)
			}
			s.bytesWr += int64(cmd.Bytes())
			s.cmdsDone++
			w.finish(StatusSuccess)
		}
	}
}

// begin starts executing the job's command once a channel is held: it
// checks the opcode and the PRPs and picks the first stage. done means
// the command already finished with status, before any stage.
func (w *execWorker) begin() (status uint16, done bool) {
	s, cmd := w.s, w.job.cmd
	switch cmd.Opcode {
	case OpFlush:
		w.st = exFlush
		return 0, false
	case OpRead, OpWrite:
	default:
		return StatusInvalidOp, true
	}
	if cmd.Blocks() > MaxBlocksPerCmd {
		return StatusInvalidPRP, true
	}
	pages, err := AppendDataPages(w.pages[:0], s.fab.Mem(), cmd)
	if err != nil {
		return StatusInvalidPRP, true
	}
	w.pages = pages
	w.st = exSlot
	return 0, false
}

// startDMA stages the data movement between the staging slot and the
// PRP pages, coalescing physically contiguous pages into extents for
// one vectored DMA. toPages=true moves staging->pages (a read command
// scatters the slot across the pages); toPages=false gathers the
// pages into the slot.
func (w *execWorker) startDMA(toPages bool) {
	exts := w.exts[:0]
	pages := w.pages
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+BlockSize {
			j++
		}
		//dcslint:allow noalloc the worker's extent scratch holds MaxBlocksPerCmd extents, one per page at most
		exts = append(exts, mem.Extent{Addr: pages[i], Len: (j - i) * BlockSize})
		i = j
	}
	w.exts = exts
	w.v.Start(w.s.fab, w.s.port, w.slot, exts, !toPages)
}

// finish tears the finished command down in a fixed order — slot
// back, channel released, completion handed to the completer, worker
// counted idle — and sends the worker to fetch its next job.
func (w *execWorker) finish(status uint16) {
	s, job := w.s, w.job
	if w.hasSlot {
		s.slotQ.Put(w.slot)
		w.slot, w.hasSlot = 0, false
	}
	s.exec.Release()
	s.finishCmd(job.qp, Completion{CID: job.cmd.CID, SQHead: uint16(job.sqHead), SQID: job.qp.cfg.QID, Status: status})
	s.execs.Done()
	w.job = execJob{}
	w.st = exFetch
}

// finishCmd hands a finished command to the QP's completer. It never
// blocks: CQ flow control is absorbed by cplPend, which the submitter's
// ring bounds to fewer than Entries outstanding commands.
func (s *SSD) finishCmd(qp *devQP, cpl Completion) {
	//dcslint:allow noalloc cplPend has the queue pair's depth in capacity, and the submitter's ring keeps fewer commands outstanding
	qp.cplPend = append(qp.cplPend, cpl)
	qp.cplWork.Broadcast()
}

// cqFree returns the number of free CQ slots under NVMe flow control
// (one slot is always left open to distinguish full from empty).
func (s *SSD) cqFree(qp *devQP) int {
	return (qp.cqHeadSee - qp.cqTail - 1 + qp.cfg.Entries) % qp.cfg.Entries
}

// cplState enumerates where a queue pair's completer resumes.
type cplState int

const (
	cplWait cplState = iota // wait for a finished command
	cplRoom                 // wait for a free CQ slot; post the batch
	cplPost                 // the batch's CQE DMA is in flight
)

// cplMachine is the QP's completion coalescer: it gathers every
// command that finished at the current instant and posts their CQEs in
// one pass — one vectored DMA (two extents on ring wrap) and at most
// one MSI per batch, instead of a DMA and an interrupt per command.
// Submitters are insensitive to MSI count: ProcessCompletions drains
// the CQ by phase bit regardless of how many interrupts coalesced.
type cplMachine struct {
	s  *SSD
	qp *devQP
	st cplState
	k  int
	v  pcie.XferVec
}

//dcslint:hotpath
func (m *cplMachine) run(h *sim.HandlerCtx) {
	s, qp := m.s, m.qp
	for {
		switch m.st {
		case cplWait:
			if len(qp.cplPend) == 0 {
				qp.cplWork.WaitH(h)
				return
			}
			// Let every command finishing at this instant land first.
			m.st = cplRoom
			if !h.Yield() {
				return
			}
		case cplRoom:
			if s.cqFree(qp) == 0 {
				qp.cqKick.WaitH(h)
				return
			}
			k := len(qp.cplPend)
			if free := s.cqFree(qp); k > free {
				k = free
			}
			qp.cqExts = mem.RingExtents(qp.cqExts[:0], qp.cfg.CQ.Base, qp.cqTail, k, qp.cfg.Entries, CompletionSize)
			for i := 0; i < k; i++ {
				cpl := qp.cplPend[i]
				cpl.Phase = qp.phase
				raw := cpl.Encode()
				s.fab.Mem().Write(qp.cqBatch+mem.Addr(i*CompletionSize), raw[:])
				qp.cqTail++
				if qp.cqTail == qp.cfg.Entries {
					qp.cqTail = 0
					qp.phase = !qp.phase
				}
			}
			m.k = k
			m.v.Start(s.fab, s.port, qp.cqBatch, qp.cqExts, false)
			m.st = cplPost
		case cplPost:
			if !m.v.Step(h) {
				return
			}
			n := copy(qp.cplPend, qp.cplPend[m.k:])
			qp.cplPend = qp.cplPend[:n]
			s.env.CountIO(m.k)
			if qp.msiVector >= 0 {
				s.fab.RaiseMSI(qp.msiVector)
			}
			m.st = cplWait
		}
	}
}

// readBlock returns the content of lba: its written block, else its
// staged image block, else the shared zero block. Image and zero
// blocks are shared, so no caller may mutate the result (every use
// copies out of it).
func (s *SSD) readBlock(lba uint64) []byte {
	if b, ok := s.flash[lba]; ok {
		return b
	}
	if b, ok := s.image[lba]; ok {
		return b
	}
	return s.zeroBlock
}

// Preload stages data at lba at setup time (no simulated cost) — the
// testbed's way of staging datasets. The SSD keeps each full block of
// data by reference as its disk image, so the caller must not modify
// data after staging; a later write command gives the LBA a private
// block instead. A short tail block is copied, zero-padded.
func (s *SSD) Preload(lba uint64, data []byte) {
	for off := 0; off < len(data); off += BlockSize {
		l := lba + uint64(off/BlockSize)
		if end := off + BlockSize; end <= len(data) {
			delete(s.flash, l)
			s.image[l] = data[off:end:end]
			continue
		}
		blk := make([]byte, BlockSize)
		copy(blk, data[off:])
		delete(s.image, l)
		s.flash[l] = blk
	}
}

// PeekBlock returns a copy of a flash block for verification.
func (s *SSD) PeekBlock(lba uint64) []byte {
	blk := make([]byte, BlockSize)
	copy(blk, s.readBlock(lba))
	return blk
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
