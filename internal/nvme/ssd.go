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
	sqExts  []mem.Extent // wrap-aware fetch extents (qpLoop only)
	cqExts  []mem.Extent // wrap-aware post extents (cplLoop only)
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
		env.Spawn(name+"-exec", func(ep *sim.Proc) { s.execWorker(ep, job, ok) })
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
	s.env.Spawn(fmt.Sprintf("%s-qp%d", s.Name, qid), func(p *sim.Proc) { s.qpLoop(p, qp) })
	s.env.Spawn(fmt.Sprintf("%s-qp%d-cpl", s.Name, qid), func(p *sim.Proc) { s.cplLoop(p, qp) })
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

func (s *SSD) qpLoop(p *sim.Proc, qp *devQP) {
	for {
		for qp.sqHead == qp.dbTail {
			qp.sqKick.Wait(p)
		}
		// Drain every newly posted SQE in one pass: burst-fetch the
		// whole window by vectored DMA (one or two extents depending on
		// ring wrap), decode the batch in one sitting, then dispatch.
		avail := (qp.dbTail - qp.sqHead + qp.cfg.Entries) % qp.cfg.Entries
		qp.sqExts = mem.RingExtents(qp.sqExts[:0], qp.cfg.SQ.Base, qp.sqHead, avail, qp.cfg.Entries, CommandSize)
		s.fab.MustDMAVec(p, s.port, qp.sqBatch, qp.sqExts, true)
		p.Sleep(s.params.CmdDecode * sim.Time(avail))
		for i := 0; i < avail; i++ {
			raw := s.fab.Mem().View(qp.sqBatch+mem.Addr(i*CommandSize), CommandSize)
			cmd, err := DecodeCommand(raw)
			sqHead := (qp.sqHead + 1) % qp.cfg.Entries
			qp.sqHead = sqHead
			if err != nil {
				s.finishCmd(qp, Completion{CID: cmd.CID, SQHead: uint16(sqHead), SQID: qp.cfg.QID, Status: StatusInternalErr})
				continue
			}
			// Execute concurrently up to the channel count; completions may
			// land out of order, which the CID matching absorbs.
			s.execs.Submit(execJob{qp: qp, cmd: cmd, sqHead: sqHead})
		}
	}
}

// execWorker runs fetched commands for the lifetime of the SSD,
// parking on the pool between commands; a primed worker (ok false)
// fetches its first. The PRP-page and DMA-extent scratch slices live
// for the worker's lifetime, so steady-state execution allocates
// nothing.
func (s *SSD) execWorker(ep *sim.Proc, job execJob, ok bool) {
	pages := make([]mem.Addr, 0, MaxBlocksPerCmd)
	exts := make([]mem.Extent, 0, MaxBlocksPerCmd)
	if !ok {
		job = s.execs.Get(ep)
	}
	for {
		s.exec.Acquire(ep)
		status := s.execute(ep, job.cmd, &pages, &exts)
		s.exec.Release()
		s.finishCmd(job.qp, Completion{CID: job.cmd.CID, SQHead: uint16(job.sqHead), SQID: job.qp.cfg.QID, Status: status})
		s.execs.Done()
		job = s.execs.Get(ep)
	}
}

func (s *SSD) execute(p *sim.Proc, cmd Command, pageScratch *[]mem.Addr, extScratch *[]mem.Extent) uint16 {
	switch cmd.Opcode {
	case OpFlush:
		p.Sleep(s.params.WriteLatency)
		return StatusSuccess
	case OpRead, OpWrite:
	default:
		return StatusInvalidOp
	}
	if cmd.Blocks() > MaxBlocksPerCmd {
		return StatusInvalidPRP
	}
	pages, err := AppendDataPages((*pageScratch)[:0], s.fab.Mem(), cmd)
	if err != nil {
		return StatusInvalidPRP
	}
	*pageScratch = pages
	slot := s.slotQ.Get(p)
	defer s.slotQ.Put(slot)
	n := cmd.Bytes()

	if cmd.Opcode == OpRead {
		// Media access: latency once, bandwidth for the span.
		p.Sleep(s.params.ReadLatency)
		if s.params.Faults.Hit(fault.NVMeReadError) {
			// Uncorrectable ECC on this access: fail before any data
			// leaves the device. A retry re-reads the media.
			return StatusMediaErr
		}
		s.readBW.Transfer(p, n)
		for i := 0; i < cmd.Blocks(); i++ {
			s.fab.Mem().Write(slot+mem.Addr(i*BlockSize), s.readBlock(cmd.SLBA+uint64(i)))
		}
		if err := s.dmaPages(p, pages, slot, true, extScratch); err != nil {
			return StatusInvalidPRP
		}
		s.bytesRd += int64(n)
	} else {
		if err := s.dmaPages(p, pages, slot, false, extScratch); err != nil {
			return StatusInvalidPRP
		}
		p.Sleep(s.params.WriteLatency)
		if s.params.Faults.Hit(fault.NVMeWriteError) {
			// Program failure before commit: flash is untouched, so
			// re-issuing the write is idempotent.
			return StatusMediaErr
		}
		s.writeBW.Transfer(p, n)
		for i := 0; i < cmd.Blocks(); i++ {
			// Overwrites land in the existing block — the flash map is
			// the device's deterministic block cache; only first writes
			// to an LBA allocate. A first write over a staged LBA gets
			// its own block, which hides the image block.
			lba := cmd.SLBA + uint64(i)
			blk, ok := s.flash[lba]
			if !ok {
				blk = make([]byte, BlockSize)
				s.flash[lba] = blk
			}
			s.fab.Mem().ReadInto(slot+mem.Addr(i*BlockSize), blk)
		}
		s.bytesWr += int64(n)
	}
	s.cmdsDone++
	return StatusSuccess
}

// dmaPages moves data between the staging slot and the PRP pages,
// coalescing physically contiguous pages into extents and issuing one
// vectored DMA. toPages=true moves staging->pages (a read command
// scatters the slot across the pages); toPages=false gathers the
// pages into the slot.
func (s *SSD) dmaPages(p *sim.Proc, pages []mem.Addr, slot mem.Addr, toPages bool, extScratch *[]mem.Extent) error {
	exts := (*extScratch)[:0]
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+BlockSize {
			j++
		}
		exts = append(exts, mem.Extent{Addr: pages[i], Len: (j - i) * BlockSize})
		i = j
	}
	*extScratch = exts
	return s.fab.DMAVec(p, s.port, slot, exts, !toPages)
}

// finishCmd hands a finished command to the QP's completer. It never
// blocks: CQ flow control is absorbed by cplPend, which the submitter's
// ring bounds to fewer than Entries outstanding commands.
func (s *SSD) finishCmd(qp *devQP, cpl Completion) {
	qp.cplPend = append(qp.cplPend, cpl)
	qp.cplWork.Broadcast()
}

// cqFree returns the number of free CQ slots under NVMe flow control
// (one slot is always left open to distinguish full from empty).
func (s *SSD) cqFree(qp *devQP) int {
	return (qp.cqHeadSee - qp.cqTail - 1 + qp.cfg.Entries) % qp.cfg.Entries
}

// cplLoop is the QP's completion coalescer: it gathers every command
// that finished at the current instant and posts their CQEs in one
// pass — one vectored DMA (two extents on ring wrap) and at most one
// MSI per batch, instead of a DMA and an interrupt per command.
// Submitters are insensitive to MSI count: ProcessCompletions drains
// the CQ by phase bit regardless of how many interrupts coalesced.
func (s *SSD) cplLoop(p *sim.Proc, qp *devQP) {
	for {
		for len(qp.cplPend) == 0 {
			qp.cplWork.Wait(p)
		}
		// Let every command finishing at this instant land first.
		p.Yield()
		for s.cqFree(qp) == 0 {
			qp.cqKick.Wait(p)
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
		s.fab.MustDMAVec(p, s.port, qp.cqBatch, qp.cqExts, false)
		n := copy(qp.cplPend, qp.cplPend[k:])
		qp.cplPend = qp.cplPend[:n]
		s.env.CountIO(k)
		if qp.msiVector >= 0 {
			s.fab.RaiseMSI(qp.msiVector)
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
