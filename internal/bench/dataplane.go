package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Data-plane microbenchmarks: the per-operation mechanical cost of the
// simulator's hot paths (memory copies, DMA, NVMe reads, NIC frame
// round trips). cmd/dcsbench emits them as BENCH_dataplane.json; CI
// diffs the artifact against the checked-in baseline and fails on
// ns/op regressions or any allocation creeping onto a zero-alloc path.

// DataplaneStat is one microbenchmark measurement.
type DataplaneStat struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	BytesPerOp  int     `json:"bytes_per_op"` // payload bytes moved per op
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HeapPerOp   float64 `json:"heap_bytes_per_op"`       // allocator bytes, not payload
	EventsPerOp float64 `json:"events_per_op,omitempty"` // kernel events dispatched per op
}

// DataplaneReport is the BENCH_dataplane.json payload.
type DataplaneReport struct {
	GoVersion  string          `json:"go_version"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Benches    []DataplaneStat `json:"benches"`
}

// noiseMallocs is the ambient-allocation floor: a few mallocs across
// an entire measured run (thousands of ops) come from the runtime
// itself (GC bookkeeping, timers), not the measured path — a path
// that truly allocates does so at least once per op, four orders of
// magnitude above this. Snapping sub-noise counts to zero keeps the
// zero-alloc baselines (and benchdiff's ALLOCS gate) stable across
// runs; the per-path ZeroAlloc tests still assert exact zeros.
const noiseMallocs = 8

// measureOps runs fn(warm) to reach steady state (pools primed, slices
// grown), then measures fn(ops) with the allocator deltas attributed
// per operation.
func measureOps(name string, bytesPerOp, warm, ops int, fn func(n int)) DataplaneStat {
	fn(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn(ops)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	heap := after.TotalAlloc - before.TotalAlloc
	if mallocs <= noiseMallocs {
		mallocs, heap = 0, 0
	}
	return DataplaneStat{
		Name:        name,
		Ops:         ops,
		BytesPerOp:  bytesPerOp,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(mallocs) / float64(ops),
		HeapPerOp:   float64(heap) / float64(ops),
	}
}

// measureSimOps is measureOps for simulator-backed benches: it also
// attributes the kernel's dispatched-event delta per operation, the
// protocol-efficiency number the batching work optimizes.
func measureSimOps(env *sim.Env, name string, bytesPerOp, warm, ops int, fn func(n int)) DataplaneStat {
	fn(warm)
	before := env.Stats()
	st := measureOps(name, bytesPerOp, 0, ops, fn)
	after := env.Stats()
	st.EventsPerOp = float64(after.Events-before.Events) / float64(ops)
	return st
}

// simRunner couples a work queue to a driver process so the measured
// window covers only steady-state operations: the process, queue, and
// every device pool are primed during warmup.
func simRunner(env *sim.Env, op func(p *sim.Proc, i int)) func(n int) {
	work := sim.NewQueue[int](env, "bench-work")
	env.Spawn("bench-driver", func(p *sim.Proc) {
		for {
			n := work.Get(p)
			for i := 0; i < n; i++ {
				op(p, i)
			}
		}
	})
	return func(n int) {
		work.Put(n)
		env.Run(-1)
	}
}

const dpPage = 4096

// benchMemCopy measures Map.Copy on the same-map fast path (4 KiB).
func benchMemCopy() DataplaneStat {
	mm := mem.NewMap()
	r := mm.AddRegion("dram", mem.HostDRAM, 1<<20, true)
	src := r.Base
	dst := r.Base + 512<<10
	mm.Write(src, make([]byte, dpPage))
	return measureOps("mem_copy_same_map_4k", dpPage, 1000, 200000, func(n int) {
		for i := 0; i < n; i++ {
			mm.Copy(dst, src, dpPage)
		}
	})
}

// benchReadInto measures Map.ReadInto (4 KiB into a caller buffer).
func benchReadInto() DataplaneStat {
	mm := mem.NewMap()
	r := mm.AddRegion("dram", mem.HostDRAM, 1<<20, true)
	buf := make([]byte, dpPage)
	return measureOps("mem_read_into_4k", dpPage, 1000, 200000, func(n int) {
		for i := 0; i < n; i++ {
			mm.ReadInto(r.Base, buf)
		}
	})
}

// benchDMA measures a synchronous 4 KiB fabric DMA between two host
// regions (setup + payload model, simulated latency dispatched for
// real).
func benchDMA() DataplaneStat {
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	port := fab.AddPort("root")
	a := mm.AddRegion("a", mem.HostDRAM, 1<<20, true)
	b := mm.AddRegion("b", mem.HostDRAM, 1<<20, true)
	fab.Attach(port, a)
	fab.Attach(port, b)
	run := simRunner(env, func(p *sim.Proc, i int) {
		fab.MustDMA(p, port, b.Base, a.Base, dpPage)
	})
	return measureSimOps(env, "pcie_dma_4k", dpPage, 500, 20000, run)
}

// benchDMAVec measures a vectored gather DMA: 8 scattered 512 B
// extents into one contiguous 4 KiB buffer — the shape of the HDC
// Engine's packet-gather and PRP-list transfers.
func benchDMAVec() DataplaneStat {
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	port := fab.AddPort("root")
	a := mm.AddRegion("a", mem.HostDRAM, 1<<20, true)
	b := mm.AddRegion("b", mem.HostDRAM, 1<<20, true)
	fab.Attach(port, a)
	fab.Attach(port, b)
	exts := make([]mem.Extent, 8)
	for i := range exts {
		exts[i] = mem.Extent{Addr: a.Base + mem.Addr(i*8192), Len: 512}
	}
	run := simRunner(env, func(p *sim.Proc, i int) {
		fab.MustDMAVec(p, port, b.Base, exts, true)
	})
	return measureSimOps(env, "hdc_gather_8x512", dpPage, 500, 20000, run)
}

// nvmeBench wires one SSD to a driver-style ring, mirroring the model
// used by both the host kernel path and the HDC NVMe controller.
type nvmeBench struct {
	env  *sim.Env
	ring *nvme.Ring
	kick *sim.Cond
	cb   func(nvme.Completion) // bound once; a per-Submit method value would allocate
	done int
}

func (b *nvmeBench) onCpl(cpl nvme.Completion) {
	if cpl.Status != nvme.StatusSuccess {
		panic("bench: nvme read failed")
	}
	b.done++
	b.kick.Broadcast()
}

// benchNVMeRead measures one 4 KiB (single-block) read end to end:
// SQE encode, doorbell, device fetch/decode/flash/DMA, CQE decode,
// callback dispatch.
func benchNVMeRead() DataplaneStat {
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	port := fab.AddPort("root")
	dram := mm.AddRegion("dram", mem.HostDRAM, 1<<20, true)
	fab.Attach(port, dram)
	ssd := nvme.NewSSD(env, fab, "nvme0", nvme.DefaultParams())
	const entries = 64
	sq := mm.AddRegion("sq", mem.HostDRAM, entries*nvme.CommandSize, true)
	cq := mm.AddRegion("cq", mem.HostDRAM, entries*nvme.CompletionSize, true)
	fab.Attach(port, sq)
	fab.Attach(port, cq)
	sqdb, cqdb := ssd.DoorbellAddrs(1)
	cfg := nvme.RingConfig{QID: 1, Entries: entries, SQ: sq, CQ: cq, SQDoorbell: sqdb, CQDoorbell: cqdb}
	ring := nvme.NewRing(fab, cfg)
	cq.SetWriteHook(func(off uint64, n int) { ring.ProcessCompletions() })
	ssd.CreateQueuePair(cfg, -1)
	ssd.Preload(0, make([]byte, nvme.BlockSize))

	b := &nvmeBench{env: env, ring: ring, kick: sim.NewCond(env)}
	b.cb = b.onCpl
	cmd := nvme.Command{Opcode: nvme.OpRead, NSID: 1, PRP1: dram.Base, SLBA: 0, NLB: 0}
	run := simRunner(env, func(p *sim.Proc, i int) {
		want := b.done + 1
		if _, err := b.ring.Submit(cmd, b.cb); err != nil {
			panic(err)
		}
		b.ring.RingDoorbell()
		for b.done < want {
			b.kick.Wait(p)
		}
	})
	return measureSimOps(env, "nvme_read_4k", nvme.BlockSize, 500, 10000, run)
}

// nicNode is one endpoint of the frame-echo pair: its own address
// map/fabric and a NIC with one host-driven queue.
type nicNode struct {
	mm     *mem.Map
	fab    *pcie.Fabric
	dram   *mem.Region
	status *mem.Region
	nic    *nic.NIC
	send   *nic.SendRing
	recv   *nic.RecvRing

	fills []nic.Filled
	rbds  []nic.RecvBD
}

func newNicNode(env *sim.Env, name string) *nicNode {
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	port := fab.AddPort(name + "-root")
	dram := mm.AddRegion(name+"-dram", mem.HostDRAM, 16<<20, true)
	fab.Attach(port, dram)
	n := nic.NewNIC(env, fab, name+"-nic", nic.DefaultParams())
	const entries = 256
	sring := mm.AddRegion(name+"-sring", mem.HostDRAM, entries*nic.SendBDSize, true)
	rring := mm.AddRegion(name+"-rring", mem.HostDRAM, entries*nic.RecvBDSize, true)
	rcpl := mm.AddRegion(name+"-rcpl", mem.HostDRAM, entries*nic.RecvCplSize, true)
	status := mm.AddRegion(name+"-status", mem.HostDRAM, 64, true)
	for _, r := range []*mem.Region{sring, rring, rcpl, status} {
		fab.Attach(port, r)
	}
	cfg := nic.QueueConfig{
		QID: 0, SendRing: sring, SendEntries: entries,
		SendStatus: status.Base,
		RecvRing:   rring, RecvEntries: entries,
		RecvCpl: rcpl, RecvStatus: status.Base + 8,
		MSIVector: -1,
	}
	n.ConfigureQueue(cfg)
	return &nicNode{
		mm: mm, fab: fab, dram: dram, status: status, nic: n,
		send: nic.NewSendRing(fab, n, cfg),
		recv: nic.NewRecvRing(fab, n, cfg),
	}
}

// postBufs posts count 2 KiB receive buffers carved from addr.
func (n *nicNode) postBufs(addr mem.Addr, count int) {
	bds := n.rbds[:0]
	for i := 0; i < count; i++ {
		bds = append(bds, nic.RecvBD{Addr: addr + mem.Addr(i*2048), Len: 2048})
	}
	n.rbds = bds
	if err := n.recv.Post(bds); err != nil {
		panic(err)
	}
	n.recv.RingDoorbell()
}

// benchNICEcho measures a full frame round trip: node A pushes a
// one-frame send chain, the frame crosses the wire, node B's receive
// completion (write hook) reposts the buffer and fires B's pre-staged
// reply, and the measured op completes when A sees the reply land.
func benchNICEcho() DataplaneStat {
	env := sim.NewEnv()
	a := newNicNode(env, "a")
	b := newNicNode(env, "b")
	nic.Connect(a.nic, b.nic)
	flow := ether.Flow{
		SrcMAC: ether.MAC{2, 0, 0, 0, 0, 1}, DstMAC: ether.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: ether.IP{10, 0, 0, 1}, DstIP: ether.IP{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 80,
	}
	const payLen = 1024

	// Static frame contents: header template + payload staged once per
	// node; sequence numbers are not advanced (the raw NIC does not
	// check them) so every op transmits identical bytes.
	stage := func(n *nicNode, fl ether.Flow) (hdrAddr, payAddr mem.Addr) {
		hdr := ether.HeaderTemplate(fl, 0, ether.FlagACK|ether.FlagPSH)
		hdrAddr = n.dram.Alloc(uint64(len(hdr)), 64)
		n.mm.Write(hdrAddr, hdr)
		payAddr = n.dram.Alloc(payLen, 64)
		n.mm.Write(payAddr, make([]byte, payLen))
		return
	}
	aHdr, aPay := stage(a, flow)
	bHdr, bPay := stage(b, flow.Reverse())
	aBufs := a.dram.Alloc(64*2048, 4096)
	bBufs := b.dram.Alloc(64*2048, 4096)
	a.postBufs(aBufs, 64)
	b.postBufs(bBufs, 64)

	sendFrame := func(n *nicNode, hdrAddr, payAddr mem.Addr) {
		bds := [...]nic.SendBD{
			{Addr: hdrAddr, Len: ether.HeadersLen},
			{Addr: payAddr, Len: payLen, Flags: nic.SendFlagEnd},
		}
		if err := n.send.Push(bds[:]); err != nil {
			panic(err)
		}
		n.send.RingDoorbell()
	}

	echoed := 0
	kick := sim.NewCond(env)
	// B: every received frame triggers the pre-staged reply and a
	// buffer repost (runs from B's completion write hook).
	b.status.SetWriteHook(func(off uint64, n int) {
		b.fills = b.recv.AppendPoll(b.fills[:0])
		for range b.fills {
			sendFrame(b, bHdr, bPay)
		}
		if len(b.fills) > 0 {
			b.postBufs(bBufs, len(b.fills))
		}
	})
	// A: count replies and wake the driver.
	a.status.SetWriteHook(func(off uint64, n int) {
		a.fills = a.recv.AppendPoll(a.fills[:0])
		if len(a.fills) == 0 {
			return
		}
		echoed += len(a.fills)
		a.postBufs(aBufs, len(a.fills))
		kick.Broadcast()
	})

	run := simRunner(env, func(p *sim.Proc, i int) {
		want := echoed + 1
		sendFrame(a, aHdr, aPay)
		for echoed < want {
			kick.Wait(p)
		}
	})
	return measureSimOps(env, "nic_frame_echo", 2*(ether.HeadersLen+payLen), 500, 10000, run)
}

// benchNICBulkStream measures one 64 KiB LSO job delivered end to end:
// node A posts a two-BD LSO chain, the NIC segments it into 45 frames
// that cross the wire one by one, and the op completes when B's
// completion hook has seen every frame of the job. Completion-driven
// like the echo; the events_per_op baseline guards the transmit path
// workloads run.
func benchNICBulkStream() DataplaneStat {
	env := sim.NewEnv()
	a := newNicNode(env, "a")
	b := newNicNode(env, "b")
	nic.Connect(a.nic, b.nic)
	flow := ether.Flow{
		SrcMAC: ether.MAC{2, 0, 0, 0, 0, 1}, DstMAC: ether.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: ether.IP{10, 0, 0, 1}, DstIP: ether.IP{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 80,
	}
	const jobLen = 64 << 10
	frames := (jobLen + ether.MSS - 1) / ether.MSS

	hdr := ether.HeaderTemplate(flow, 0, ether.FlagACK|ether.FlagPSH)
	hdrAddr := a.dram.Alloc(uint64(len(hdr)), 64)
	a.mm.Write(hdrAddr, hdr)
	payAddr := a.dram.Alloc(jobLen, 4096)
	a.mm.Write(payAddr, make([]byte, jobLen))
	bBufs := b.dram.Alloc(128*2048, 4096)
	b.postBufs(bBufs, 128)

	got := 0
	kick := sim.NewCond(env)
	b.status.SetWriteHook(func(off uint64, n int) {
		b.fills = b.recv.AppendPoll(b.fills[:0])
		if len(b.fills) == 0 {
			return
		}
		got += len(b.fills)
		b.postBufs(bBufs, len(b.fills))
		kick.Broadcast()
	})

	run := simRunner(env, func(p *sim.Proc, i int) {
		want := got + frames
		// SendBD.Len is 16-bit: the 64 KiB payload rides as two 32 KiB
		// descriptors, the same split the host kernel's LSO path uses.
		bds := [...]nic.SendBD{
			{Addr: hdrAddr, Len: ether.HeadersLen, Flags: nic.SendFlagLSO, MSS: ether.MSS},
			{Addr: payAddr, Len: 32 << 10},
			{Addr: payAddr + 32<<10, Len: 32 << 10, Flags: nic.SendFlagEnd},
		}
		if err := a.send.Push(bds[:]); err != nil {
			panic(err)
		}
		a.send.RingDoorbell()
		for got < want {
			kick.Wait(p)
		}
	})
	return measureSimOps(env, "nic_bulk_stream_64k", jobLen, 100, 2000, run)
}

// NewDataplaneReport runs all data-plane microbenchmarks.
func NewDataplaneReport() *DataplaneReport {
	return &DataplaneReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benches: []DataplaneStat{
			benchMemCopy(),
			benchReadInto(),
			benchDMA(),
			benchDMAVec(),
			benchNVMeRead(),
			benchNICEcho(),
			benchNICBulkStream(),
		},
	}
}

// WriteJSON writes the report to path.
func (r *DataplaneReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
