package core

import (
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/gpu"
	"dcsctrl/internal/hdc"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// OpResult is a completed multi-device task.
type OpResult struct {
	Breakdown *trace.Breakdown
	Latency   sim.Time
	Digest    []byte // intermediate-processing result, when computed
}

// cpuHashBps is the single-core software checksum rate used when a
// baseline must compute a digest on the CPU (no GPU kernel for it).
const cpuHashBps = 4e9

// SendFileOp executes the paper's flagship multi-device task — read a
// file range from the SSD, optionally apply intermediate processing,
// and transmit it on a connection — using the node's configuration.
func (n *Node) SendFileOp(p *sim.Proc, f *hostos.File, off, nbytes int, connID uint64, proc Processing) (OpResult, error) {
	bd := trace.NewBreakdown()
	start := p.Now()
	var digest []byte
	var err error
	switch n.Kind {
	case DCSCtrl:
		n.trace("user", "hdc_sendfile()")
		n.trace("driver", "resolve metadata, post D2D command")
		var res hdc.Result
		res, err = n.Driver.SendFileDev(p, bd, n.fileDev[f.Name], f, off, nbytes, connID, uint8(proc))
		n.trace("driver", "completion interrupt, return to user")
		digest = res.Aux
		if err == hdc.ErrEngineFailed {
			n.failoverToHost(p, bd)
			n.fallbacks++
			n.trace("kernel", "engine failed: host-mediated fallback")
			digest, err = n.softwareSend(p, bd, f, off, nbytes, connID, proc)
		} else if err == nil && res.Status != 0 {
			err = fmt.Errorf("core: D2D command failed with status %d", res.Status)
		}
	case DevIntegration:
		digest, err = n.integratedSend(p, bd, f, off, nbytes, connID, proc)
	default:
		digest, err = n.softwareSend(p, bd, f, off, nbytes, connID, proc)
	}
	return OpResult{Breakdown: bd, Latency: p.Now() - start, Digest: digest}, err
}

// softwareSend is the Vanilla / SWOpt / SWP2P path: the host CPU runs
// every control action; data is staged in host DRAM, or directly in
// GPU VRAM when SW-P2P has a P2P target to use.
func (n *Node) softwareSend(p *sim.Proc, bd *trace.Breakdown, f *hostos.File, off, nbytes int, connID uint64, proc Processing) ([]byte, error) {
	hp := n.Params.Host
	n.trace("user", "read+process+send")
	n.Host.Exec(p, trace.CatUser, hp.SyscallEntry, bd) // app dispatch

	kernel, gpuOK := proc.gpuKernel()
	useP2P := n.Kind == SWP2P && proc != ProcNone && gpuOK && n.GPU != nil
	var digest []byte

	if useP2P {
		// SW-ctrl P2P: the SSD DMAs straight into GPU VRAM (the GPU is
		// the only P2P target); the NIC later DMA-reads VRAM. Control
		// stays on the CPU.
		vbuf := n.allocVRAM(uint64(nbytes) + 4096)
		vres := n.allocVRAM(4096)
		n.hostReadFile(p, bd, f, off, nbytes, vbuf)
		n.Host.Exec(p, trace.CatGPUCtrl, hp.GPULaunch, bd)
		start := p.Now()
		var err error
		digest, err = n.GPU.RunHashKernel(p, kernel, vbuf, nbytes, vres)
		if err != nil {
			return nil, err
		}
		bd.Add(trace.CatHash, p.Now()-start)
		// Fetch the digest to host memory (tiny copy).
		n.Host.Exec(p, trace.CatGPUCtrl, hp.GPUDMASetup, bd)
		hres := n.allocHost(64)
		if err := n.GPU.Copy(p, hres, vres, len(digest)); err != nil {
			return nil, err
		}
		n.hostNetSend(p, bd, connID, vbuf, nbytes)
		return digest, nil
	}

	// Host-staged path (Vanilla, SWOpt; and SWP2P when no P2P target
	// exists — the paper's SSD↔NIC observation).
	buf := n.allocHost(uint64(nbytes) + 4096)
	n.hostReadFile(p, bd, f, off, nbytes, buf)
	if proc != ProcNone {
		var err error
		digest, err = n.hostProcess(p, bd, buf, nbytes, proc)
		if err != nil {
			return nil, err
		}
	}
	n.hostNetSend(p, bd, connID, buf, nbytes)
	return digest, nil
}

// hostProcess runs intermediate processing for a host-staged buffer:
// offloaded to the GPU when a kernel exists (copy + launch + copy
// back), otherwise computed on the CPU.
func (n *Node) hostProcess(p *sim.Proc, bd *trace.Breakdown, buf mem.Addr, nbytes int, proc Processing) ([]byte, error) {
	hp := n.Params.Host
	kernel, gpuOK := proc.gpuKernel()
	if gpuOK && n.GPU != nil {
		vbuf := n.allocVRAM(uint64(nbytes) + 4096)
		vres := n.allocVRAM(4096)
		n.trace("driver", "cudaMemcpy h2d")
		n.Host.Exec(p, trace.CatGPUCtrl, hp.GPUDMASetup, bd)
		start := p.Now()
		if err := n.GPU.Copy(p, vbuf, buf, nbytes); err != nil {
			return nil, err
		}
		bd.Add(trace.CatGPUCopy, p.Now()-start)
		n.trace("driver", "kernel launch")
		n.Host.Exec(p, trace.CatGPUCtrl, hp.GPULaunch, bd)
		start = p.Now()
		digest, err := n.GPU.RunHashKernel(p, kernel, vbuf, nbytes, vres)
		if err != nil {
			return nil, err
		}
		bd.Add(trace.CatHash, p.Now()-start)
		n.Host.Exec(p, trace.CatGPUCtrl, hp.GPUDMASetup, bd)
		start = p.Now()
		hres := n.allocHost(64)
		if err := n.GPU.Copy(p, hres, vres, len(digest)); err != nil {
			return nil, err
		}
		bd.Add(trace.CatGPUCopy, p.Now()-start)
		return digest, nil
	}
	// CPU fallback: hash/encrypt on a core.
	n.Host.Exec(p, trace.CatHash, sim.BpsToTime(nbytes, cpuHashBps), bd)
	// View: cpuDigest only reads the bytes, synchronously.
	return cpuDigest(proc, n.MM.View(buf, nbytes)), nil
}

// cpuDigest computes the real digest for a processing kind (nil when
// the kind yields no digest).
func cpuDigest(proc Processing, data []byte) []byte {
	switch proc {
	case ProcMD5:
		_, aux, _ := ndp.MD5{}.Transform(data)
		return aux
	case ProcCRC32:
		_, aux, _ := ndp.CRC32{}.Transform(data)
		return aux
	case ProcSHA256:
		_, aux, _ := ndp.SHA256{}.Transform(data)
		return aux
	default:
		return nil
	}
}

// RecvFileOp receives nbytes from a connection, optionally processes
// them, and writes them to a file range — the PUT-side task. Under
// SW-P2P the receive side degenerates to the host-staged path: split
// packets must be gathered by the CPU before any peer transfer, the
// paper's "data gathering problem".
func (n *Node) RecvFileOp(p *sim.Proc, connID uint64, f *hostos.File, off, nbytes int, proc Processing) (OpResult, error) {
	bd := trace.NewBreakdown()
	start := p.Now()
	var digest []byte
	var err error
	switch n.Kind {
	case DCSCtrl:
		var res hdc.Result
		res, err = n.Driver.RecvFileDev(p, bd, connID, n.fileDev[f.Name], f, off, nbytes, uint8(proc))
		digest = res.Aux
		if err == hdc.ErrEngineFailed {
			n.failoverToHost(p, bd)
			n.fallbacks++
			digest, err = n.hostStagedRecv(p, bd, connID, f, off, nbytes, proc)
		} else if err == nil && res.Status != 0 {
			err = fmt.Errorf("core: D2D command failed with status %d", res.Status)
		}
	case DevIntegration:
		err = fmt.Errorf("core: integrated device receive path not modelled")
	default:
		digest, err = n.hostStagedRecv(p, bd, connID, f, off, nbytes, proc)
	}
	return OpResult{Breakdown: bd, Latency: p.Now() - start, Digest: digest}, err
}

// hostStagedRecv is the host-mediated receive path: gather the stream
// into a DRAM staging buffer, process, write to the file — shared by
// the software baselines and the DCS fallback path.
func (n *Node) hostStagedRecv(p *sim.Proc, bd *trace.Breakdown, connID uint64, f *hostos.File, off, nbytes int, proc Processing) ([]byte, error) {
	hp := n.Params.Host
	n.Host.Exec(p, trace.CatUser, hp.SyscallEntry, bd)
	buf := n.allocHost(uint64(nbytes) + 4096)
	n.hostNetRecvTo(p, bd, connID, nbytes, buf)
	var digest []byte
	if proc != ProcNone {
		var err error
		digest, err = n.hostProcess(p, bd, buf, nbytes, proc)
		if err != nil {
			return nil, err
		}
	}
	n.hostWriteFile(p, bd, f, off, nbytes, buf)
	return digest, nil
}

// CopyFileOp moves nbytes between two files. On a DCS node it is a
// single D2D command; if the engine has failed it degrades to a
// host-staged read+process+write so the operation still completes.
func (n *Node) CopyFileOp(p *sim.Proc, srcF *hostos.File, srcOff int, dstF *hostos.File, dstOff, nbytes int, proc Processing) (OpResult, error) {
	bd := trace.NewBreakdown()
	start := p.Now()
	if n.Kind != DCSCtrl {
		return OpResult{}, fmt.Errorf("core: CopyFileOp requires a DCS-ctrl node")
	}
	res, err := n.Driver.CopyFile(p, bd, n.fileDev[srcF.Name], srcF, srcOff,
		n.fileDev[dstF.Name], dstF, dstOff, nbytes, uint8(proc))
	digest := res.Aux
	if err == hdc.ErrEngineFailed {
		n.failoverToHost(p, bd)
		n.fallbacks++
		buf := n.allocHost(uint64(nbytes) + 4096)
		n.hostReadFile(p, bd, srcF, srcOff, nbytes, buf)
		if proc != ProcNone {
			digest, err = n.hostProcess(p, bd, buf, nbytes, proc)
			if err != nil {
				return OpResult{Breakdown: bd}, err
			}
		} else {
			err = nil
		}
		n.hostWriteFile(p, bd, dstF, dstOff, nbytes, buf)
	} else if err == nil && res.Status != 0 {
		err = fmt.Errorf("core: D2D command failed with status %d", res.Status)
	}
	return OpResult{Breakdown: bd, Latency: p.Now() - start, Digest: digest}, err
}

// failoverToHost adopts the engine's connections into the host network
// stack after an unrecoverable engine failure. It runs once; the
// salvaged per-connection state (sequence numbers plus any payload
// already reassembled in engine DDR3) seeds host connections so
// streams continue without loss. The reconfiguration cost is charged
// to trace.CatFallback so fail-overs show up in breakdowns.
//
// Every connection is installed before the first charge: a concurrent
// op that also saw the failure returns at once (adopted is set) and
// may use any adopted connection while this one is still paying for
// the setup.
func (n *Node) failoverToHost(p *sim.Proc, bd *trace.Breakdown) {
	n.Host.Exec(p, trace.CatFallback, n.Params.Host.CtxSwitch, bd)
	if n.adopted {
		return
	}
	n.adopted = true
	adopted := n.Engine.AdoptConnections()
	for _, ac := range adopted {
		// Dropping the steering rule sends subsequent frames to host
		// queue 0 (the RSS default).
		n.NIC.ClearSteering(ac.Flow.Reverse().Tuple())
		if _, dup := n.conns[ac.ID]; dup {
			panic(fmt.Sprintf("core: adopted connection %d collides on %s", ac.ID, n.Name))
		}
		c := &hostConn{
			id: ac.ID, flow: ac.Flow, txSeq: ac.TxSeq, rxSeq: ac.RxSeq,
			stream: ac.Buffered, avail: sim.NewCond(n.Env),
		}
		n.conns[ac.ID] = c
		n.connsRx[ac.Flow.Reverse().Tuple()] = c
	}
	for range adopted {
		n.Host.Exec(p, trace.CatFallback, n.Params.Host.SockSendSetup, bd)
	}
}

// integratedSend models the tightly integrated device of Figure 3: a
// consolidated storage+NIC+accelerator executes the whole task with a
// hardware control path and an internal interconnect; the host posts
// one command and takes one interrupt.
func (n *Node) integratedSend(p *sim.Proc, bd *trace.Breakdown, f *hostos.File, off, nbytes int, connID uint64, proc Processing) ([]byte, error) {
	hp := n.Params.Host
	n.Host.Exec(p, trace.CatUser, hp.SyscallEntry, bd)
	n.Host.Exec(p, trace.CatDevCtrl, n.Params.IntegratedCtrl, bd)

	// Internal hardware pipeline: media read, internal transfer,
	// optional line-rate processing — all off-host.
	sp := n.Params.SSD
	readTime := sp.ReadLatency + sim.BpsToTime(nbytes, sp.ReadBps)
	p.Sleep(readTime)
	bd.Add(trace.CatRead, readTime)
	xfer := sim.BpsToTime(nbytes, n.Params.IntegratedInternalBps)
	p.Sleep(xfer)
	bd.Add(trace.CatDevCtrl, xfer)

	// Fetch the real bytes for functional fidelity.
	buf := n.allocHost(uint64(nbytes) + 4096)
	data := make([]byte, 0, nbytes)
	ssd := n.SSDs[n.fileDev[f.Name]]
	for _, r := range runsOf(f, off, nbytes) {
		for b := 0; b < r.blocks; b++ {
			data = append(data, ssd.PeekBlock(r.lba+uint64(b))...)
		}
	}
	data = data[:nbytes]
	n.MM.Write(buf, data)

	var digest []byte
	if proc != ProcNone {
		hw := sim.BpsToTime(nbytes, 10e9)
		p.Sleep(hw)
		bd.Add(trace.CatHash, hw)
		digest = cpuDigest(proc, data)
	}

	// Transmit through the integrated NIC: reuse the node's send ring
	// without charging host CPU (the integrated controller drives it).
	c := n.conns[connID]
	if c == nil {
		return nil, fmt.Errorf("core: unknown conn %d", connID)
	}
	startTx := p.Now()
	n.deviceSend(p, c, buf, nbytes)
	bd.Add(trace.CatNICTransmit, p.Now()-startTx)
	n.Host.RaiseIRQ(trace.CatInterrupt, 0, nil)
	n.Host.Exec(p, trace.CatInterrupt, hp.CtxSwitch, bd)
	return digest, nil
}

// deviceSend pushes LSO jobs onto the host send ring without CPU cost
// (hardware-initiated transmit for the integrated-device model).
func (n *Node) deviceSend(p *sim.Proc, c *hostConn, src mem.Addr, nbytes int) {
	const job = 64 << 10
	for off := 0; off < nbytes; off += job {
		seg := nbytes - off
		if seg > job {
			seg = job
		}
		hdr := ether.HeaderTemplate(c.flow, c.txSeq, ether.FlagACK|ether.FlagPSH)
		c.txSeq += uint32(seg)
		hdrAddr := n.allocHost(64)
		n.MM.Write(hdrAddr, hdr)
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
		sig := sim.NewSignal(n.Env)
		n.pendTx = append(n.pendTx, hostPendingSend{tail: n.sendRing.Tail(), sig: sig})
		n.sendRing.RingDoorbell()
		n.sendRing.Arm()
		n.waitSendCompleted(p, sig)
	}
}

// GPUForNode exposes the node's GPU (nil on DCS/integration nodes).
func (n *Node) GPUForNode() *gpu.GPU { return n.GPU }
