package core

import (
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// runsOf maps a file byte range onto per-command LBA runs (bounded by
// the NVMe per-command limit).
type ioRun struct {
	lba    uint64
	blocks int
	off    int // byte offset within the destination buffer
}

func runsOf(f *hostos.File, off, nbytes int) []ioRun {
	lbas, err := f.LBARange(off, nbytes)
	if err != nil {
		panic(err)
	}
	var runs []ioRun
	for i := 0; i < len(lbas); {
		j := i + 1
		for j < len(lbas) && lbas[j] == lbas[j-1]+1 && j-i < nvme.MaxBlocksPerCmd {
			j++
		}
		runs = append(runs, ioRun{lba: lbas[i], blocks: j - i, off: i * hostos.BlockSize})
		i = j
	}
	return runs
}

// collectCompletion funnels one command-completion signal into the
// caller's tally queue. The collector is a run-to-completion handler:
// it enrolls on the signal, fires the tally, and exits.
func (n *Node) collectCompletion(name string, sig *sim.Signal, done *sim.Queue[int]) {
	n.Env.SpawnHandler(name, func(h *sim.HandlerCtx) {
		if !sig.WaitH(h) {
			return
		}
		done.Put(1)
		h.Exit()
	})
}

// hostNVMeIO moves a file range between the SSD and the contiguous
// buffer buf through the host NVMe driver: one command per LBA run,
// all in flight at once, each funnelled into a per-direction collector.
// It blocks until every command completes, charging submission, the
// context switch, the device wait (to CatRead or CatWrite) and
// completion handling.
func (n *Node) hostNVMeIO(p *sim.Proc, bd *trace.Breakdown, f *hostos.File, off, nbytes int, buf mem.Addr, write bool) {
	hp := n.Params.Host
	dev := n.fileDev[f.Name]
	queue, collector, wait := "read-done", "read-collect", trace.CatRead
	if write {
		queue, collector, wait = "write-done", "write-collect", trace.CatWrite
	}
	runs := runsOf(f, off, nbytes)
	done := sim.NewQueue[int](n.Env, queue)
	for _, r := range runs {
		n.trace("driver", "nvme submit")
		n.Host.Exec(p, trace.CatDevCtrl, hp.BlockSubmit, bd)
		sig := sim.NewSignal(n.Env)
		n.submitHostNVMe(p, dev, write, r.lba, buf+mem.Addr(r.off), r.blocks, sig)
		n.collectCompletion(collector, sig, done)
	}
	n.Host.Exec(p, trace.CatInterrupt, hp.CtxSwitch, bd)
	start := p.Now()
	for range runs {
		done.Get(p)
	}
	bd.Add(wait, p.Now()-start)
	n.trace("device", "nvme complete")
	// Completion handling beyond the IRQ-side cost: per-command
	// completion work in the caller's context.
	n.Host.Exec(p, trace.CatDevCtrl, sim.Time(len(runs))*hp.BlockComplete/2, bd)
}

// hostReadFile reads a file range to dst (any bus address the SSD may
// DMA to: host DRAM always; GPU VRAM under SW-P2P) using the host
// kernel storage path. Costs follow the configuration: the Vanilla
// path adds page-cache management and a kernel→destination copy.
func (n *Node) hostReadFile(p *sim.Proc, bd *trace.Breakdown, f *hostos.File, off, nbytes int, dst mem.Addr) {
	dev := n.fileDev[f.Name]
	hp := n.Params.Host
	n.trace("kernel", "read() enter")
	n.Host.Exec(p, trace.CatFileSystem, hp.SyscallEntry+hp.VFSLookup, bd)

	vanilla := n.Kind == Vanilla
	allCached := false
	if vanilla {
		pages := (nbytes + hostos.BlockSize - 1) / hostos.BlockSize
		n.Host.Exec(p, trace.CatPageCache, sim.Time(pages)*hp.PageCacheOp, bd)
		// Page-cache lookup: fully cached reads never touch the device
		// (the stock kernel's one advantage over direct I/O).
		allCached = true
		firstPage := off / hostos.BlockSize
		for pg := 0; pg < pages; pg++ {
			if _, hit := n.FSs[dev].CacheLookup(f.Name, firstPage+pg); !hit {
				allCached = false
			}
		}
		if allCached {
			pageBuf := make([]byte, hostos.BlockSize)
			for pg := 0; pg < pages; pg++ {
				data, _ := n.FSs[dev].CacheLookup(f.Name, firstPage+pg)
				copy(pageBuf, data)
				end := (pg + 1) * hostos.BlockSize
				if end > nbytes {
					end = nbytes
				}
				n.MM.Write(dst+mem.Addr(pg*hostos.BlockSize), pageBuf[:end-pg*hostos.BlockSize])
			}
			n.Host.Copy(p, trace.CatDataCopy, nbytes, bd)
			n.Host.Exec(p, trace.CatFileSystem, hp.SyscallExit, bd)
			n.trace("kernel", "read() exit (cache hit)")
			return
		}
	}

	n.hostNVMeIO(p, bd, f, off, nbytes, dst, false)

	if vanilla {
		// Page-cache fill + copy to the caller's buffer.
		firstPage := off / hostos.BlockSize
		pages := (nbytes + hostos.BlockSize - 1) / hostos.BlockSize
		for pg := 0; pg < pages; pg++ {
			start := pg * hostos.BlockSize
			end := start + hostos.BlockSize
			if end > nbytes {
				end = nbytes
			}
			n.FSs[dev].CacheFill(f.Name, firstPage+pg, n.MM.Read(dst+mem.Addr(start), end-start))
		}
		n.Host.Copy(p, trace.CatDataCopy, nbytes, bd)
	}
	n.Host.Exec(p, trace.CatFileSystem, hp.SyscallExit, bd)
	n.trace("kernel", "read() exit")
}

// hostWriteFile writes a buffer to a file range through the host
// kernel storage path.
func (n *Node) hostWriteFile(p *sim.Proc, bd *trace.Breakdown, f *hostos.File, off, nbytes int, src mem.Addr) {
	hp := n.Params.Host
	n.Host.Exec(p, trace.CatFileSystem, hp.SyscallEntry+hp.VFSLookup, bd)
	vanilla := n.Kind == Vanilla
	if vanilla {
		pages := (nbytes + hostos.BlockSize - 1) / hostos.BlockSize
		n.Host.Exec(p, trace.CatPageCache, sim.Time(pages)*hp.PageCacheOp, bd)
		n.Host.Copy(p, trace.CatDataCopy, nbytes, bd)
	}
	n.hostNVMeIO(p, bd, f, off, nbytes, src, true)
	n.Host.Exec(p, trace.CatFileSystem, hp.SyscallExit, bd)
}

// StageFile creates a file (round-robin across the node's SSDs) and
// loads its content onto that SSD (testbed setup, no simulated cost).
// The SSD keeps content by reference as its disk image, so the caller
// must not modify content after staging.
func (n *Node) StageFile(name string, content []byte) (*hostos.File, error) {
	f, err := n.CreateFile(name, len(content))
	if err != nil {
		return nil, err
	}
	ssd := n.SSDs[n.fileDev[name]]
	off := 0
	for _, e := range f.Extents() {
		nb := e.Blocks * hostos.BlockSize
		if off+nb > len(content) {
			nb = len(content) - off
		}
		if nb > 0 {
			ssd.Preload(e.LBA, content[off:off+nb])
		}
		off += nb
	}
	return f, nil
}

// ReadBack fetches a file's SSD contents directly (verification).
func (n *Node) ReadBack(f *hostos.File) []byte {
	ssd := n.SSDs[n.fileDev[f.Name]]
	out := make([]byte, 0, f.Size)
	for _, lba := range f.LBAs() {
		out = append(out, ssd.PeekBlock(lba)...)
	}
	return out[:f.Size]
}
