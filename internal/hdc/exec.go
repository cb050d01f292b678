package hdc

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// chunkMsg is one 64 KB (or final partial) chunk flowing through a
// command's source → NDP → destination pipeline.
type chunkMsg struct {
	buf  mem.Addr
	n    int
	seq  int
	last bool
}

// lbaRun is a contiguous block run within one NVMe command.
type lbaRun struct {
	lba    uint64
	blocks int
	bufOff int
}

// blockRuns maps the byte range [byteOff, byteOff+n) of a command's
// extent list to NVMe commands of at most MaxBlocksPerCmd blocks.
func blockRuns(ext []ExtentEntry, byteOff, n int) ([]lbaRun, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hdc: empty block range")
	}
	startBlk := byteOff / nvme.BlockSize
	numBlk := (byteOff%nvme.BlockSize + n + nvme.BlockSize - 1) / nvme.BlockSize
	var runs []lbaRun
	blk := 0
	bufOff := 0
	for _, e := range ext {
		if numBlk == 0 {
			break
		}
		if blk+int(e.Blocks) <= startBlk {
			blk += int(e.Blocks)
			continue
		}
		skip := 0
		if startBlk > blk {
			skip = startBlk - blk
		}
		avail := int(e.Blocks) - skip
		take := avail
		if take > numBlk {
			take = numBlk
		}
		lba := e.LBA + uint64(skip)
		for take > 0 {
			cmd := take
			if cmd > nvme.MaxBlocksPerCmd {
				cmd = nvme.MaxBlocksPerCmd
			}
			runs = append(runs, lbaRun{lba: lba, blocks: cmd, bufOff: bufOff})
			lba += uint64(cmd)
			bufOff += cmd * nvme.BlockSize
			take -= cmd
			numBlk -= cmd
		}
		startBlk = blk + int(e.Blocks)
		blk += int(e.Blocks)
	}
	if numBlk > 0 {
		return nil, fmt.Errorf("hdc: extent list short by %d blocks", numBlk)
	}
	return runs, nil
}

// A D2D command runs as handler procs (DESIGN.md §16), spawned where
// the engine's hardware would start each pipeline: the parser starts
// the command, the command starts its source stage and, with an NDP
// function, its NDP stage, and then runs the destination stage itself.
// The NVMe source starts one read per chunk and the destination one
// completion per chunk, plus a collector per chunk bound for an SSD.
// Each start is one SpawnHandler, so every stage keeps its first
// dispatch. A command's state lives in a cmdRun record and each
// per-chunk stage's in a chunkJob; both come from the engine's free
// lists with their signals reset. What a command still allocates is
// its handler procs, its decoded extent tables and block runs, and its
// NDP stream.

// Per-command handler names: constants, so starting a stage formats
// nothing.
const (
	procCmd        = "hdc-cmd"
	procSrc        = "hdc-cmd-src"
	procNDP        = "hdc-cmd-ndp"
	procRead       = "hdc-cmd-rd"
	procDstCollect = "dst-collect"
	procDstFinish  = "dst-finish"
)

// cmdState enumerates where a command's own handler resumes.
type cmdState int

const (
	cmdStart    cmdState = iota // admitted: draw the poison fault, fetch extents
	cmdSrcExt                   // the source extent-table DMA is in flight
	cmdDstExt                   // the destination extent-table DMA is in flight
	cmdDstGet                   // destination: take the next chunk
	cmdDstIssue                 // destination: allocate its scoreboard entry
	cmdDstDrain                 // destination: wait for every chunk's completion
	cmdAux                      // wait for the NDP stage's auxiliary result
)

// cmdRun is one D2D command in flight: its own handler (the command
// and destination stage), its source and NDP stages, and the queues
// and signals that join them.
type cmdRun struct {
	e   *Engine
	cmd Command
	st  cmdState

	x      pcie.Xfer // extent-table fetch
	srcExt []ExtentEntry
	dstExt []ExtentEntry

	window   *sim.Resource        // in-flight chunk credits
	srcOut   *sim.Queue[chunkMsg] // source → NDP or destination
	ndpOut   *sim.Queue[chunkMsg] // NDP → destination
	dstIn    *sim.Queue[chunkMsg] // srcOut or ndpOut
	auxReady *sim.Signal          // the NDP stage closed its stream
	aux      []byte               // the NDP stage's auxiliary result

	// Destination stage state.
	msg         chunkMsg
	issue       Issue
	dstOff      int
	outstanding int
	drained     int
	doneQ       *sim.Queue[int]

	// delivered[i] fires when chunk i may be handed downstream (an
	// NVMe source reads out of order and delivers in order).
	delivered []*sim.Signal

	src srcStage
	ndp ndpStage

	// The stage bodies, bound once so that starting a stage makes no
	// method value.
	stepFn, srcFn, ndpFn func(*sim.HandlerCtx)
}

// newCmdRun takes a command record from the free list (or makes one).
func (e *Engine) newCmdRun(cmd Command) *cmdRun {
	var c *cmdRun
	if k := len(e.cmdFree); k > 0 {
		c = e.cmdFree[k-1]
		e.cmdFree = e.cmdFree[:k-1]
	} else {
		// A record and its queues are made once, then free-listed.
		c = &cmdRun{
			e:        e,
			window:   sim.NewResource(e.env, "hdc-cmd-window", e.params.Window),
			auxReady: sim.NewSignal(e.env),
		}
		c.src.recv = sim.NewSignal(e.env)
		//dcslint:allow noblockhandler generic constructor: makes an empty queue and takes no Proc
		c.srcOut = sim.NewQueue[chunkMsg](e.env, "src-out")
		//dcslint:allow noblockhandler generic constructor: makes an empty queue and takes no Proc
		c.ndpOut = sim.NewQueue[chunkMsg](e.env, "ndp-out")
		//dcslint:allow noblockhandler generic constructor: makes an empty queue and takes no Proc
		c.doneQ = sim.NewQueue[int](e.env, "dst-done")
		c.src.c, c.ndp.c = c, c
		c.stepFn, c.srcFn, c.ndpFn = c.step, c.src.step, c.ndp.step
	}
	c.cmd = cmd
	c.st = cmdStart
	return c
}

// startCommand starts an admitted command's handler.
func (e *Engine) startCommand(cmd Command) {
	c := e.newCmdRun(cmd)
	e.env.SpawnHandler(procCmd, c.stepFn)
}

// end records the command's result and returns its record to the free
// list; the caller's handler must exit.
func (c *cmdRun) end(h *sim.HandlerCtx, status uint32, aux []byte) {
	e := c.e
	e.finish(c.cmd.ID, status, aux)
	c.srcExt, c.dstExt, c.aux = nil, nil, nil
	c.msg = chunkMsg{}
	c.dstOff, c.outstanding, c.drained = 0, 0, 0
	e.cmdFree = append(e.cmdFree, c)
	h.Exit()
}

// startExtents stages the DMA of a command's extent table from host
// memory into the command slot's private staging buffer (concurrent
// commands must not share staging). The table address comes from the
// host: an unmapped or unreachable one fails the command rather than
// the simulator.
func (c *cmdRun) startExtents(addr uint64, count uint32) error {
	if count == 0 || count > 256 {
		return fmt.Errorf("hdc: extent count %d out of range", count)
	}
	e := c.e
	buf := e.extBufs[int(c.cmd.ID)%len(e.extBufs)]
	return c.x.StartErr(e.fab, e.port, buf, mem.Addr(addr), int(count)*ExtentEntrySize)
}

// decodeExtents decodes a fetched extent table. View: DecodeExtents
// copies into its own []ExtentEntry, nothing aliases the staging
// buffer after it returns.
func (c *cmdRun) decodeExtents(count uint32) ([]ExtentEntry, error) {
	e := c.e
	buf := e.extBufs[int(c.cmd.ID)%len(e.extBufs)]
	return DecodeExtents(e.fab.Mem().View(buf, int(count)*ExtentEntrySize), int(count))
}

// step is the command's handler body: admission, the extent fetches,
// the source/NDP starts, then the destination stage, which consumes
// chunks and issues destination device commands, overlapping their
// completions, until every write or send is done. It is no noalloc
// root: it decodes the extent tables and starts the stages' procs.
func (c *cmdRun) step(h *sim.HandlerCtx) {
	e, cmd := c.e, c.cmd
	for {
		switch c.st {
		case cmdStart:
			if e.params.Faults.Hit(fault.HDCPoisonCpl) {
				// Pipeline parity error detected at admission: the
				// completion entry is poisoned with a transient status
				// before any device command is issued or stream byte
				// consumed, so the driver's re-issue of the same command
				// is idempotent.
				c.end(h, CplStatusTransient, nil)
				return
			}
			if cmd.SrcClass == ClassSSD {
				if err := c.startExtents(cmd.SrcArg, cmd.SrcCount); err != nil {
					c.end(h, CplStatusInvalid, nil)
					return
				}
				c.st = cmdSrcExt
				continue
			}
			if !c.dstExtents(h) {
				return
			}
		case cmdSrcExt:
			if !c.x.Step(h) {
				return
			}
			ext, err := c.decodeExtents(cmd.SrcCount)
			if err != nil {
				c.end(h, CplStatusInvalid, nil)
				return
			}
			c.srcExt = ext
			if !c.dstExtents(h) {
				return
			}
		case cmdDstExt:
			if !c.x.Step(h) {
				return
			}
			ext, err := c.decodeExtents(cmd.DstCount)
			if err != nil {
				c.end(h, CplStatusInvalid, nil)
				return
			}
			c.dstExt = ext
			if !c.admit(h) {
				return
			}
		case cmdDstGet:
			msg, ok := c.dstIn.GetH(h)
			if !ok {
				return
			}
			c.msg = msg
			if msg.n > 0 {
				c.st = cmdDstIssue
				continue
			}
			c.nextChunk()
		case cmdDstIssue:
			if !e.sb.AllocIssue(h, &c.issue) {
				return
			}
			c.issueDst()
			c.nextChunk()
		case cmdDstDrain:
			for c.drained < c.outstanding {
				if _, ok := c.doneQ.GetH(h); !ok {
					return
				}
				c.drained++
			}
			c.st = cmdAux
		case cmdAux:
			if !c.auxReady.WaitH(h) {
				return
			}
			c.auxReady.Reset()
			c.end(h, CplStatusOK, c.aux)
			return
		}
	}
}

// dstExtents starts the destination extent-table fetch, or moves on to
// admission when the destination is no SSD. It reports false when the
// command has ended.
func (c *cmdRun) dstExtents(h *sim.HandlerCtx) bool {
	if c.cmd.DstClass != ClassSSD {
		return c.admit(h)
	}
	if err := c.startExtents(c.cmd.DstArg, c.cmd.DstCount); err != nil {
		c.end(h, CplStatusInvalid, nil)
		return false
	}
	c.st = cmdDstExt
	return true
}

// admit checks the command's NDP function and devices, then starts the
// source stage and, with an NDP function, the NDP stage; the command's
// handler goes on as the destination stage. It reports false when the
// command has ended.
func (c *cmdRun) admit(h *sim.HandlerCtx) bool {
	e, cmd := c.e, c.cmd
	if cmd.Fn != FnNone {
		if _, ok := e.banks[cmd.Fn]; !ok {
			c.end(h, CplStatusInvalid, nil)
			return false
		}
	}
	if (cmd.SrcClass == ClassSSD && int(cmd.SrcDev) >= len(e.nvmeCtls)) ||
		(cmd.DstClass == ClassSSD && int(cmd.DstDev) >= len(e.nvmeCtls)) {
		c.end(h, CplStatusInvalid, nil)
		return false
	}
	c.src.begin()
	e.env.SpawnHandler(procSrc, c.srcFn)
	if cmd.Fn != FnNone {
		c.dstIn = c.ndpOut
		c.ndp.begin()
		e.env.SpawnHandler(procNDP, c.ndpFn)
	} else {
		c.dstIn = c.srcOut
		c.auxReady.Fire(nil)
	}
	c.st = cmdDstGet
	return true
}

// sizeChanging reports whether the command's NDP function re-chunks
// its output (gzip), so the NDP stage, not the destination, returns
// the window credits.
func (c *cmdRun) sizeChanging() bool {
	return c.cmd.Fn == FnGZIP || c.cmd.Fn == FnGUNZIP
}

// issueDst issues the destination device commands for c.msg, whose
// scoreboard entry is allocated, and starts its completion stage.
func (c *cmdRun) issueDst() {
	e, cmd, msg := c.e, c.cmd, c.msg
	j := e.newChunkJob(c)
	j.msg = msg
	if cmd.DstClass == ClassNIC {
		e.ctrlFor(cmd.DstArg).SubmitSend(sendReq{connID: cmd.DstArg, buf: msg.buf, length: msg.n, done: j.sig})
	} else {
		runs, err := blockRuns(c.dstExt, c.dstOff, msg.n)
		if err != nil {
			panic(err)
		}
		j.submit(e.nvmeCtls[cmd.DstDev], true, msg.buf, runs)
		e.env.SpawnHandler(procDstCollect, j.collectFn)
	}
	c.outstanding++
	e.env.SpawnHandler(procDstFinish, j.finishFn)
	c.dstOff += msg.n
}

// nextChunk moves the destination stage past c.msg.
func (c *cmdRun) nextChunk() {
	if c.msg.last {
		c.st = cmdDstDrain
		return
	}
	c.st = cmdDstGet
}

// srcState enumerates where a command's source stage resumes.
type srcState int

const (
	srcWindow srcState = iota // take a window credit (or finish)
	srcChunk                  // take an intermediate buffer
	srcIssue                  // allocate the scoreboard entry; issue
	srcRecv                   // NIC: wait for the gathered chunk
)

// srcStage produces chunks: NVMe reads (overlapped up to the window,
// one chunkJob each, delivered in order) or in-order NIC receives.
type srcStage struct {
	c     *cmdRun
	st    srcState
	seq   int
	off   int
	buf   mem.Addr
	n     int
	issue Issue
	recv  *sim.Signal // NIC receive completion
}

// begin resets the stage for its command's first chunk.
func (s *srcStage) begin() {
	c := s.c
	s.st, s.seq, s.off = srcWindow, 0, 0
	if c.cmd.SrcClass == ClassNIC {
		return
	}
	// NVMe reads: issue up to the window in parallel, deliver in order.
	n := c.chunks() + 1
	for len(c.delivered) < n { // grows to the record's largest command
		c.delivered = append(c.delivered, sim.NewSignal(c.e.env))
	}
	c.delivered[0].Fire(nil)
}

// chunks returns the number of chunks the command moves.
func (c *cmdRun) chunks() int {
	return (int(c.cmd.Length) + ChunkSize - 1) / ChunkSize
}

// step is the source stage's handler body. It is no noalloc root: it
// starts a read proc per NVMe chunk.
func (s *srcStage) step(h *sim.HandlerCtx) {
	c := s.c
	e, cmd := c.e, c.cmd
	total := int(cmd.Length)
	nChunks := c.chunks()
	for {
		switch s.st {
		case srcWindow:
			if s.seq == nChunks {
				h.Exit()
				return
			}
			if !c.window.AcquireH(h) {
				return
			}
			s.st = srcChunk
		case srcChunk:
			buf, ok := e.allocChunk(h)
			if !ok {
				return
			}
			s.buf = buf
			s.n = total - s.off
			if s.n > ChunkSize {
				s.n = ChunkSize
			}
			s.st = srcIssue
		case srcIssue:
			if cmd.SrcClass == ClassNIC {
				if !e.sb.AllocIssue(h, &s.issue) {
					return
				}
				// NIC receive: inherently serial per connection; the
				// receive controller gathers split packets into each
				// chunk.
				e.ctrlFor(cmd.SrcArg).SubmitRecv(recvReq{connID: cmd.SrcArg, want: s.n, buf: s.buf, done: s.recv})
				s.st = srcRecv
				continue
			}
			if !e.sb.AllocIssue(h, &s.issue) {
				return
			}
			runs, err := blockRuns(c.srcExt, s.off, s.n)
			if err != nil {
				panic(err) // validated by the driver; a mismatch is a model bug
			}
			j := e.newChunkJob(c)
			j.msg = chunkMsg{buf: s.buf, n: s.n, seq: s.seq, last: s.seq == nChunks-1}
			j.lbas = runs
			e.env.SpawnHandler(procRead, j.readFn)
			s.next()
		case srcRecv:
			if !s.recv.WaitH(h) {
				return
			}
			s.recv.Reset()
			e.sb.DeferDone()
			c.srcOut.Put(chunkMsg{buf: s.buf, n: s.n, seq: s.seq, last: s.seq == nChunks-1})
			s.next()
		}
	}
}

// next moves the source stage to the following chunk.
func (s *srcStage) next() {
	s.off += s.n
	s.seq++
	s.st = srcWindow
}

// chunkJob is one chunk's device commands and their completion: an
// NVMe source read (read), or a destination write or send (finish,
// plus collect for an SSD destination). Its handlers exit when the
// chunk is delivered; finish, the last of a destination chunk's,
// returns the record to the engine's free list.
// maxChunkRuns bounds the NVMe commands of one chunk: one per block.
const maxChunkRuns = ChunkSize / nvme.BlockSize

type chunkJob struct {
	c    *cmdRun
	msg  chunkMsg
	lbas []lbaRun      // read: the block runs its first dispatch submits
	sig  *sim.Signal   // the chunk's device commands all completed
	sigs []*sim.Signal // one per NVMe command (maxChunkRuns made)
	runs int           // NVMe commands of the chunk (sigs[:runs])
	i    int           // runs observed so far
	rdSt readState

	// The stage bodies, bound once (see cmdRun.stepFn).
	readFn, collectFn, finishFn func(*sim.HandlerCtx)
}

// newChunkJob takes a chunk record from the free list (or makes one).
func (e *Engine) newChunkJob(c *cmdRun) *chunkJob {
	var j *chunkJob
	if k := len(e.jobFree); k > 0 {
		j = e.jobFree[k-1]
		e.jobFree = e.jobFree[:k-1]
	} else {
		// A record and its signals are made once, then free-listed. A
		// 64 KB chunk spans at most maxChunkRuns NVMe commands.
		j = &chunkJob{sig: sim.NewSignal(e.env), sigs: make([]*sim.Signal, maxChunkRuns)}
		for i := range j.sigs {
			j.sigs[i] = sim.NewSignal(e.env)
		}
		j.readFn, j.collectFn, j.finishFn = j.readStep, j.collectStep, j.finishStep
	}
	j.c = c
	return j
}

// free resets the record's signals and returns it to the free list.
func (j *chunkJob) free() {
	e := j.c.e
	for _, s := range j.sigs[:j.runs] {
		s.Reset()
	}
	j.runs, j.i, j.rdSt = 0, 0, readSubmit
	j.c, j.msg, j.lbas = nil, chunkMsg{}, nil
	//dcslint:allow noalloc free list of chunk records: grows to the chunks in flight, then keeps its capacity
	e.jobFree = append(e.jobFree, j)
}

// submit queues one NVMe command per block run of the chunk at buf.
func (j *chunkJob) submit(ctl *NVMeCtrl, write bool, buf mem.Addr, runs []lbaRun) {
	for i, r := range runs {
		ctl.Submit(nvmeReq{write: write, lba: r.lba, blocks: r.blocks, buf: buf + mem.Addr(r.bufOff), done: j.sigs[i]})
	}
	j.runs = len(runs)
}

// awaitRuns reports whether every NVMe command of the chunk completed,
// enrolling on the first that has not.
func (j *chunkJob) awaitRuns(h *sim.HandlerCtx) bool {
	for j.i < j.runs {
		if !j.sigs[j.i].WaitH(h) {
			return false
		}
		j.i++
	}
	return true
}

// readState enumerates where an NVMe source chunk resumes.
type readState int

const (
	readSubmit readState = iota // submit the chunk's reads
	readWait                    // wait for every read
	readTurn                    // wait for the chunk's turn downstream
)

// readStep is an NVMe source chunk: submit its reads, wait for them,
// retire the scoreboard entry, then deliver the chunk in order.
//
//dcslint:hotpath
func (j *chunkJob) readStep(h *sim.HandlerCtx) {
	c := j.c
	if j.rdSt == readSubmit {
		j.submit(c.e.nvmeCtls[c.cmd.SrcDev], false, j.msg.buf, j.lbas)
		j.rdSt = readWait
	}
	if j.rdSt == readWait {
		if !j.awaitRuns(h) {
			return
		}
		c.e.sb.DeferDone()
		j.rdSt = readTurn
	}
	seq := j.msg.seq
	if !c.delivered[seq].WaitH(h) {
		return
	}
	c.delivered[seq].Reset()
	c.srcOut.Put(j.msg)
	c.delivered[seq+1].Fire(nil)
	if j.msg.last {
		c.delivered[seq+1].Reset() // nothing waits past the last chunk
	}
	j.free()
	h.Exit()
}

// collectStep completes an SSD destination chunk once all its writes
// have.
//
//dcslint:hotpath
func (j *chunkJob) collectStep(h *sim.HandlerCtx) {
	if !j.awaitRuns(h) {
		return
	}
	j.sig.Fire(nil)
	h.Exit()
}

// finishStep retires a destination chunk once its write or send
// completed: the scoreboard entry, the buffer and (unless the NDP stage
// re-chunks) the window credit.
//
//dcslint:hotpath
func (j *chunkJob) finishStep(h *sim.HandlerCtx) {
	if !j.sig.WaitH(h) {
		return
	}
	j.sig.Reset()
	c := j.c
	c.e.sb.DeferDone()
	c.e.freeChunk(j.msg.buf)
	if !c.sizeChanging() {
		c.window.Release()
	}
	c.doneQ.Put(j.msg.seq)
	j.free()
	h.Exit()
}

// ndpState enumerates where a command's NDP stage resumes.
type ndpState int

const (
	ndpGet   ndpState = iota // take the next chunk
	ndpIssue                 // allocate its scoreboard entry
	ndpChunk                 // the bank is processing the chunk
	ndpEmit                  // re-chunk output into intermediate buffers
	ndpClose                 // the bank is finalizing the stream
)

// ndpStage streams chunks through the command's NDP bank. Integrity
// and cipher units transform in place; size-changing units (gzip)
// re-chunk their output.
type ndpStage struct {
	c      *cmdRun
	st     ndpState
	bank   *ndp.Bank
	stream ndp.Stream
	op     ndp.Op
	msg    chunkMsg
	issue  Issue

	// Output accumulator for size-changing functions.
	outBuf   mem.Addr
	outFill  int
	outSeq   int
	emitData []byte // output still to accumulate
	flushAll bool   // emitting the stream's tail
}

// begin opens the command's stream on its bank.
func (s *ndpStage) begin() {
	cmd := s.c.cmd
	s.bank = s.c.e.banks[cmd.Fn]
	unit := s.bank.Unit()
	if cmd.Fn == FnAES256 && cmd.AuxData != 0 {
		keyed, ok := s.c.e.aesKeys[cmd.AuxData]
		if !ok {
			panic(fmt.Sprintf("hdc: AES key slot %d not provisioned", cmd.AuxData))
		}
		unit = keyed
	}
	//dcslint:allow noblockhandler a unit's NewStream builds stdlib hash/cipher/compress state; it takes no Proc and cannot park
	s.stream = unit.NewStream()
	s.st = ndpGet
	s.outBuf, s.outFill, s.outSeq = 0, 0, 0
}

// step is the NDP stage's handler body. It is no noalloc root: the
// unit's transformation makes its output.
func (s *ndpStage) step(h *sim.HandlerCtx) {
	c := s.c
	e := c.e
	mm := e.fab.Mem()
	for {
		switch s.st {
		case ndpGet:
			msg, ok := c.srcOut.GetH(h)
			if !ok {
				return
			}
			s.msg = msg
			s.st = ndpIssue
		case ndpIssue:
			if !e.sb.AllocIssue(h, &s.issue) {
				return
			}
			s.op.StartChunk(s.bank, s.msg.n)
			s.st = ndpChunk
		case ndpChunk:
			if !s.op.Step(h) {
				return
			}
			msg := s.msg
			// View: msg.buf is not freed (and the window credit not
			// released) until after StreamChunk returns. In-place units
			// mutating the view write the same bytes mm.Write stores
			// back below.
			outBytes, err := s.bank.StreamChunk(s.stream, mm.View(msg.buf, msg.n))
			if err != nil {
				panic(err)
			}
			e.sb.DeferDone()
			if c.sizeChanging() {
				e.freeChunk(msg.buf)
				c.window.Release()
				s.emitData, s.flushAll = outBytes, false
				s.st = ndpEmit
				continue
			}
			// In-place transform: same buffer continues downstream.
			if len(outBytes) != msg.n {
				panic("hdc: identity-size unit changed length")
			}
			mm.Write(msg.buf, outBytes)
			c.ndpOut.Put(msg)
			s.afterChunk()
		case ndpEmit:
			if !s.emit(h) {
				return
			}
			if !s.flushAll {
				s.afterChunk()
				continue
			}
			// Terminal sentinel so the destination sees last=true.
			c.ndpOut.Put(chunkMsg{buf: 0, n: 0, seq: s.outSeq, last: true})
			s.done(h)
			return
		case ndpClose:
			if !s.op.Step(h) {
				return
			}
			tail, aux, err := s.bank.StreamClose(s.stream)
			if err != nil {
				panic(err)
			}
			c.aux = aux
			if c.sizeChanging() {
				s.emitData, s.flushAll = tail, true
				s.st = ndpEmit
				continue
			}
			s.done(h)
			return
		}
	}
}

// afterChunk closes the stream after the last chunk, or takes the
// next.
func (s *ndpStage) afterChunk() {
	if s.msg.last {
		s.op.StartClose(s.bank)
		s.st = ndpClose
		return
	}
	s.st = ndpGet
}

// done hands the auxiliary result to the command and exits.
func (s *ndpStage) done(h *sim.HandlerCtx) {
	s.stream, s.emitData = nil, nil
	s.c.auxReady.Fire(nil)
	h.Exit()
}

// emit accumulates s.emitData into 64 KB output chunks, handing each
// full one (and, flushing, the partial last) downstream. It reports
// false while waiting for an intermediate buffer.
func (s *ndpStage) emit(h *sim.HandlerCtx) bool {
	c := s.c
	mm := c.e.fab.Mem()
	for len(s.emitData) > 0 || (s.flushAll && s.outFill > 0) {
		if s.outBuf == 0 {
			buf, ok := c.e.allocChunk(h)
			if !ok {
				return false
			}
			s.outBuf = buf
		}
		take := ChunkSize - s.outFill
		if take > len(s.emitData) {
			take = len(s.emitData)
		}
		if take > 0 {
			mm.Write(s.outBuf+mem.Addr(s.outFill), s.emitData[:take])
			s.outFill += take
			s.emitData = s.emitData[take:]
		}
		if s.outFill == ChunkSize || (s.flushAll && len(s.emitData) == 0 && s.outFill > 0) {
			c.ndpOut.Put(chunkMsg{buf: s.outBuf, n: s.outFill, seq: s.outSeq, last: false})
			s.outBuf, s.outFill = 0, 0
			s.outSeq++
		}
		if s.flushAll && len(s.emitData) == 0 {
			break
		}
	}
	return true
}
