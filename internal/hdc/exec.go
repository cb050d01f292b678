package hdc

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/nvme"
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

// fetchExtents DMAs a command's extent table from host memory into
// the command slot's private staging buffer (concurrent commands must
// not share staging).
func (e *Engine) fetchExtents(p *sim.Proc, cmdID uint32, addr uint64, count uint32) ([]ExtentEntry, error) {
	if count == 0 || count > 256 {
		return nil, fmt.Errorf("hdc: extent count %d out of range", count)
	}
	buf := e.extBufs[int(cmdID)%len(e.extBufs)]
	n := int(count) * ExtentEntrySize
	// The table address comes from the host: an unmapped or
	// unreachable one fails the command rather than the simulator.
	if err := e.fab.DMA(p, e.port, buf, mem.Addr(addr), n); err != nil {
		return nil, err
	}
	// View: DecodeExtents copies into its own []ExtentEntry, nothing
	// aliases the staging buffer after it returns.
	return DecodeExtents(e.fab.Mem().View(buf, n), int(count))
}

// execute runs one D2D command through the scoreboard pipeline:
// source device → optional NDP unit → destination device, chunk by
// chunk with a bounded in-flight window.
func (e *Engine) execute(p *sim.Proc, cmd Command) {
	if e.params.Faults.Hit(fault.HDCPoisonCpl) {
		// Pipeline parity error detected at admission: the completion
		// entry is poisoned with a transient status before any device
		// command is issued or stream byte consumed, so the driver's
		// re-issue of the same command is idempotent.
		e.finish(cmd.ID, CplStatusTransient, nil)
		return
	}
	var srcExt, dstExt []ExtentEntry
	var err error
	if cmd.SrcClass == ClassSSD {
		if srcExt, err = e.fetchExtents(p, cmd.ID, cmd.SrcArg, cmd.SrcCount); err != nil {
			e.finish(cmd.ID, CplStatusInvalid, nil)
			return
		}
	}
	if cmd.DstClass == ClassSSD {
		if dstExt, err = e.fetchExtents(p, cmd.ID, cmd.DstArg, cmd.DstCount); err != nil {
			e.finish(cmd.ID, CplStatusInvalid, nil)
			return
		}
	}
	if cmd.Fn != FnNone {
		if _, ok := e.banks[cmd.Fn]; !ok {
			e.finish(cmd.ID, CplStatusInvalid, nil)
			return
		}
	}
	if cmd.SrcClass == ClassSSD && int(cmd.SrcDev) >= len(e.nvmeCtls) {
		e.finish(cmd.ID, CplStatusInvalid, nil)
		return
	}
	if cmd.DstClass == ClassSSD && int(cmd.DstDev) >= len(e.nvmeCtls) {
		e.finish(cmd.ID, CplStatusInvalid, nil)
		return
	}

	window := sim.NewResource(e.env, fmt.Sprintf("%s-cmd%d-window", e.name, cmd.ID), e.params.Window)
	srcOut := sim.NewQueue[chunkMsg](e.env, "src-out")
	var dstIn *sim.Queue[chunkMsg]

	e.env.Spawn(fmt.Sprintf("%s-cmd%d-src", e.name, cmd.ID), func(sp *sim.Proc) {
		e.sourceStage(sp, cmd, srcExt, window, srcOut)
	})

	var aux []byte
	auxReady := sim.NewSignal(e.env)
	if cmd.Fn != FnNone {
		dstIn = sim.NewQueue[chunkMsg](e.env, "ndp-out")
		e.env.Spawn(fmt.Sprintf("%s-cmd%d-ndp", e.name, cmd.ID), func(np *sim.Proc) {
			e.ndpStage(np, cmd, window, srcOut, dstIn, auxReady)
		})
	} else {
		dstIn = srcOut
		auxReady.Fire([]byte(nil))
	}

	e.destStage(p, cmd, dstExt, window, dstIn)
	aux, _ = auxReady.Wait(p).([]byte)
	e.finish(cmd.ID, CplStatusOK, aux)
}

// sourceStage produces chunks: NVMe reads (overlapped up to the
// window) or in-order NIC receives.
func (e *Engine) sourceStage(p *sim.Proc, cmd Command, ext []ExtentEntry,
	window *sim.Resource, out *sim.Queue[chunkMsg]) {
	total := int(cmd.Length)
	nChunks := (total + ChunkSize - 1) / ChunkSize
	if cmd.SrcClass == ClassNIC {
		// NIC receive: inherently serial per connection; the receive
		// controller gathers split packets into each chunk.
		off := 0
		for seq := 0; seq < nChunks; seq++ {
			window.Acquire(p)
			buf := e.allocChunk(p)
			n := total - off
			if n > ChunkSize {
				n = ChunkSize
			}
			e.sb.AllocIssue(p)
			sig := sim.NewSignal(e.env)
			e.ctrlFor(cmd.SrcArg).SubmitRecv(recvReq{connID: cmd.SrcArg, want: n, buf: buf, done: sig})
			sig.Wait(p)
			e.sb.DeferDone()
			out.Put(chunkMsg{buf: buf, n: n, seq: seq, last: seq == nChunks-1})
			off += n
		}
		return
	}

	// NVMe reads: issue up to the window in parallel, deliver in order.
	delivered := make([]*sim.Signal, nChunks+1)
	for i := range delivered {
		delivered[i] = sim.NewSignal(e.env)
	}
	delivered[0].Fire(nil)
	off := 0
	for seq := 0; seq < nChunks; seq++ {
		window.Acquire(p)
		buf := e.allocChunk(p)
		n := total - off
		if n > ChunkSize {
			n = ChunkSize
		}
		runs, err := blockRuns(ext, off, n)
		if err != nil {
			panic(err) // validated by the driver; a mismatch is a model bug
		}
		e.sb.AllocIssue(p)
		seq, n, buf := seq, n, buf
		ctl := e.nvmeCtls[cmd.SrcDev]
		e.env.Spawn(fmt.Sprintf("%s-cmd%d-rd%d", e.name, cmd.ID, seq), func(rp *sim.Proc) {
			sigs := make([]*sim.Signal, len(runs))
			for i, r := range runs {
				sigs[i] = sim.NewSignal(e.env)
				ctl.Submit(nvmeReq{lba: r.lba, blocks: r.blocks, buf: buf + mem.Addr(r.bufOff), done: sigs[i]})
			}
			for _, s := range sigs {
				s.Wait(rp)
			}
			e.sb.DeferDone()
			delivered[seq].Wait(rp)
			out.Put(chunkMsg{buf: buf, n: n, seq: seq, last: seq == nChunks-1})
			delivered[seq+1].Fire(nil)
		})
		off += n
	}
}

// ndpStage streams chunks through the command's NDP bank. Integrity
// and cipher units transform in place; size-changing units (gzip)
// re-chunk their output.
func (e *Engine) ndpStage(p *sim.Proc, cmd Command, window *sim.Resource,
	in, out *sim.Queue[chunkMsg], auxReady *sim.Signal) {
	bank := e.banks[cmd.Fn]
	unit := bank.Unit()
	if cmd.Fn == FnAES256 && cmd.AuxData != 0 {
		keyed, ok := e.aesKeys[cmd.AuxData]
		if !ok {
			panic(fmt.Sprintf("hdc: AES key slot %d not provisioned", cmd.AuxData))
		}
		unit = keyed
	}
	stream := unit.NewStream()
	mm := e.fab.Mem()
	sizeChanging := cmd.Fn == FnGZIP || cmd.Fn == FnGUNZIP

	// Output accumulator for size-changing functions.
	var outBuf mem.Addr
	outFill := 0
	outSeq := 0
	emit := func(ep *sim.Proc, data []byte, flushAll bool) {
		for len(data) > 0 || (flushAll && outFill > 0) {
			if outBuf == 0 {
				outBuf = e.allocChunk(ep)
			}
			take := ChunkSize - outFill
			if take > len(data) {
				take = len(data)
			}
			if take > 0 {
				mm.Write(outBuf+mem.Addr(outFill), data[:take])
				outFill += take
				data = data[take:]
			}
			if outFill == ChunkSize || (flushAll && len(data) == 0 && outFill > 0) {
				out.Put(chunkMsg{buf: outBuf, n: outFill, seq: outSeq, last: false})
				outBuf, outFill = 0, 0
				outSeq++
			}
			if flushAll && len(data) == 0 {
				return
			}
		}
	}

	for {
		msg := in.Get(p)
		e.sb.AllocIssue(p)
		// View: msg.buf is not freed (and the window credit not
		// released) until after StreamChunk returns, so the bytes are
		// stable across its simulated delays. In-place units mutating
		// the view write the same bytes mm.Write stores back below.
		data := mm.View(msg.buf, msg.n)
		outBytes, err := bank.StreamChunk(p, stream, data)
		if err != nil {
			panic(err)
		}
		e.sb.DeferDone()

		if sizeChanging {
			e.freeChunk(msg.buf)
			window.Release()
			emit(p, outBytes, false)
			if msg.last {
				tail, aux, err := bank.StreamClose(p, stream)
				if err != nil {
					panic(err)
				}
				emit(p, tail, true)
				// Terminal sentinel so the destination sees last=true.
				out.Put(chunkMsg{buf: 0, n: 0, seq: outSeq, last: true})
				auxReady.Fire(aux)
				return
			}
		} else {
			// In-place transform: same buffer continues downstream.
			if len(outBytes) != msg.n {
				panic("hdc: identity-size unit changed length")
			}
			mm.Write(msg.buf, outBytes)
			out.Put(msg)
			if msg.last {
				_, aux, err := bank.StreamClose(p, stream)
				if err != nil {
					panic(err)
				}
				auxReady.Fire(aux)
				return
			}
		}
	}
}

// destStage consumes chunks and issues destination device commands,
// overlapping completions; it returns when every write/send is done.
func (e *Engine) destStage(p *sim.Proc, cmd Command, ext []ExtentEntry,
	window *sim.Resource, in *sim.Queue[chunkMsg]) {
	sizeChanging := cmd.Fn == FnGZIP || cmd.Fn == FnGUNZIP
	outstanding := 0
	doneQ := sim.NewQueue[int](e.env, "dst-done")
	off := 0
	for {
		msg := in.Get(p)
		if msg.n > 0 {
			e.sb.AllocIssue(p)
			sig := sim.NewSignal(e.env)
			if cmd.DstClass == ClassNIC {
				e.ctrlFor(cmd.DstArg).SubmitSend(sendReq{connID: cmd.DstArg, buf: msg.buf, length: msg.n, done: sig})
			} else {
				runs, err := blockRuns(ext, off, msg.n)
				if err != nil {
					panic(err)
				}
				inner := make([]*sim.Signal, len(runs))
				ctl := e.nvmeCtls[cmd.DstDev]
				for i, r := range runs {
					inner[i] = sim.NewSignal(e.env)
					ctl.Submit(nvmeReq{write: true, lba: r.lba, blocks: r.blocks,
						buf: msg.buf + mem.Addr(r.bufOff), done: inner[i]})
				}
				e.env.Spawn("dst-collect", func(cp *sim.Proc) {
					for _, s := range inner {
						s.Wait(cp)
					}
					sig.Fire(nil)
				})
			}
			outstanding++
			msgCopy := msg
			e.env.Spawn("dst-finish", func(fp *sim.Proc) {
				sig.Wait(fp)
				e.sb.DeferDone()
				e.freeChunk(msgCopy.buf)
				if !sizeChanging {
					window.Release()
				}
				doneQ.Put(msgCopy.seq)
			})
			off += msg.n
		}
		if msg.last {
			break
		}
	}
	for i := 0; i < outstanding; i++ {
		doneQ.Get(p)
	}
}
