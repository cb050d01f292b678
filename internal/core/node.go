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
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// MSI vector assignments on a node.
const (
	msiHDC      = 3
	msiNICBase  = 40 // vectors 40..40+HostNICQueues-1
	msiNVMeBase = 10 // vectors 10..10+NumSSDs-1
)

// Node is one server: host complex, PCIe fabric, devices, and the
// software or hardware control paths of its configuration.
type Node struct {
	Name   string
	Kind   Config
	Params Params

	Env      *sim.Env
	MM       *mem.Map
	Fab      *pcie.Fabric
	HostPort *pcie.Port
	DRAM     *mem.Region
	Host     *hostos.Host

	SSDs []*nvme.SSD          // all SSDs, indexed by device number
	FSs  []*hostos.FileSystem // one namespace per SSD
	NIC  *nic.NIC
	GPU  *gpu.GPU

	Engine *hdc.Engine
	Driver *hdc.Driver

	// Host-driven device interfaces (software configurations; on a
	// DCS node they serve the control-plane connections the engine
	// does not own).
	nvmeRings []*nvme.Ring
	nvmeWait  *sim.Cond
	fileDev   map[string]uint8 // file name -> SSD index
	nextDev   int              // round-robin file placement
	sendRing  *nic.SendRing
	recvRings []*nic.RecvRing // one per RSS queue
	sendCond  *sim.Cond
	nextRSS   int // round-robin connection-to-queue assignment

	conns   map[uint64]*hostConn
	connsRx map[ether.Tuple]*hostConn // receive-tuple index for the rx hot path
	rxWake  *sim.Cond
	// arena holds the receive-buffer stock, which the NIC rings own
	// for the node's lifetime (postRecvBuffers), and above it the
	// staging buffers, which staging hands out and takes back.
	arena   *mem.Region
	staging *mem.Arena
	vram    *mem.Arena // GPU VRAM staging buffers (nil without a GPU)

	adopted         bool  // engine connections taken over by the host
	fallbacks       int64 // ops completed on the host-mediated path
	hostNVMeRetries int64 // host-driver NVMe re-submissions

	timeline []TimelineEvent
	tracing  bool
}

// hostConn is a host-terminated TCP-lite endpoint.
type hostConn struct {
	id     uint64
	flow   ether.Flow // transmit direction
	txSeq  uint32
	rxSeq  uint32
	stream []byte // reassembled in-order payload; stream[rd:] is unconsumed
	rd     int    // consumed prefix (head index, capacity-preserving)
	want   int    // unconsumed bytes a waiting reader wants (awaitStream), else 0

	// avail signals stream growth to this connection's readers. Waking
	// per connection instead of per node matters at rack scale: a node
	// with dozens of parked receivers would otherwise wake every one of
	// them (a goroutine handoff each) on every delivered batch.
	avail *sim.Cond
}

// reserveStream guarantees room for extra more unconsumed bytes,
// compacting the consumed prefix and growing to at least double the
// capacity: Go's native large-slice growth (~1.25x) plus the capacity
// bleed of reslicing on consume made reassembly a top copy cost at
// 40 GbE. The stream is sized when bytes arrive (reserveRun), never
// when a reader starts to wait.
func (c *hostConn) reserveStream(extra int) {
	if len(c.stream)+extra > cap(c.stream) && c.rd > 0 {
		m := copy(c.stream, c.stream[c.rd:])
		c.stream = c.stream[:m]
		c.rd = 0
	}
	if need := len(c.stream) + extra; need > cap(c.stream) {
		ns := make([]byte, len(c.stream), max(need, 2*cap(c.stream)))
		copy(ns, c.stream)
		c.stream = ns
	}
}

// reserveRun sizes the stream for a delivered run of n bytes: the run
// itself, or all that a waiting reader still misses (want) when that
// is more. So after a hand-off (takeStream) a message's first run
// grows the buffer once, to the exact message size; bytes nobody waits
// for yet grow it once per run, not per frame; and a reader allocates
// nothing before its bytes land.
func (c *hostConn) reserveRun(n int) { c.reserveStream(max(n, c.want-c.streamLen())) }

// pushStream appends payload bytes to the reassembled stream.
func (c *hostConn) pushStream(b []byte) {
	c.reserveStream(len(b))
	c.stream = append(c.stream, b...)
}

// streamLen returns the unconsumed byte count.
func (c *hostConn) streamLen() int { return len(c.stream) - c.rd }

// takeStream consumes want bytes. A take that drains the stream from
// offset 0 hands the caller the backing array itself, its capacity
// clipped to want, and the connection drops it: later pushes land in a
// fresh buffer, never in the caller's bytes. Any other take copies,
// keeping the buffer's capacity for the next reassembly round.
func (c *hostConn) takeStream(want int) []byte {
	if c.rd == 0 && want == len(c.stream) {
		out := c.stream[:want:want]
		c.stream = nil
		return out
	}
	out := append([]byte(nil), c.stream[c.rd:c.rd+want]...)
	c.consumeStream(want)
	return out
}

// consumeStream drops want bytes from the head of the stream; a
// drained buffer rewinds and keeps its capacity.
func (c *hostConn) consumeStream(want int) {
	c.rd += want
	if c.rd == len(c.stream) {
		c.stream, c.rd = c.stream[:0], 0
	}
}

// TimelineEvent is a Figure 2-style trace point.
type TimelineEvent struct {
	At    sim.Time
	Where string // "user", "kernel", "driver", "device", "engine"
	What  string
}

// NewNode builds a node of the given configuration on a fresh fabric.
func NewNode(env *sim.Env, name string, kind Config, params Params) *Node {
	if params.Faults != nil {
		params.PCIe.Faults = params.Faults
		params.SSD.Faults = params.Faults
		params.NIC.Faults = params.Faults
		params.HDC.Faults = params.Faults
		if params.Driver.CmdTimeout == 0 {
			// Arm the watchdog only under fault injection: in clean runs
			// the timer events would stretch the event horizon of
			// open-ended simulations for no benefit.
			params.Driver.CmdTimeout = 20 * sim.Millisecond
		}
	}
	n := &Node{
		Name: name, Kind: kind, Params: params,
		Env:     env,
		MM:      mem.NewMap(),
		conns:   map[uint64]*hostConn{},
		connsRx: map[ether.Tuple]*hostConn{},
	}
	n.Fab = pcie.NewFabric(env, n.MM, params.PCIe)
	n.HostPort = n.Fab.AddPort(name + "-root")
	n.DRAM = n.MM.AddRegion(name+"-dram", mem.HostDRAM, 16<<20, true)
	n.Fab.Attach(n.HostPort, n.DRAM)
	n.Host = hostos.NewHost(env, params.Host)
	n.rxWake = sim.NewCond(env)
	n.nvmeWait = sim.NewCond(env)
	n.sendCond = sim.NewCond(env)

	if params.NumSSDs < 1 {
		params.NumSSDs = 1
		n.Params.NumSSDs = 1
	}
	for i := 0; i < params.NumSSDs; i++ {
		n.SSDs = append(n.SSDs, nvme.NewSSD(env, n.Fab, fmt.Sprintf("%s-ssd%d", name, i), params.SSD))
		n.FSs = append(n.FSs, hostos.NewFileSystem(64<<30))
	}
	n.fileDev = map[string]uint8{}
	n.NIC = nic.NewNIC(env, n.Fab, name+"-nic", params.NIC)
	if kind == Vanilla || kind == SWOpt || kind == SWP2P {
		n.GPU = gpu.NewGPU(env, n.Fab, name+"-gpu", params.GPU)
	}
	arenaBytes := params.HostArenaBytes
	if arenaBytes == 0 {
		arenaBytes = 128 << 20
	}
	n.arena = n.MM.AddRegion(name+"-arena", mem.HostDRAM, arenaBytes, true)
	n.Fab.Attach(n.HostPort, n.arena)

	n.setupHostNVMe()
	n.setupHostNIC()
	n.staging = mem.NewArena(n.arena)
	if n.GPU != nil {
		n.vram = mem.NewArena(n.GPU.VRAM)
	}

	if kind == DCSCtrl {
		n.Engine = hdc.NewEngine(env, n.Fab, name+"-hdc", params.HDC)
		for _, ssd := range n.SSDs {
			n.Engine.AttachSSD(ssd, 2) // QP 2: QP 1 belongs to the host driver
		}
		// Queue 1 plus (for >10GbE provisioning) queues 16+ belong to
		// the engine; queue 0 and 2..15 are the host's RSS range.
		engineQIDs := []uint16{1}
		for i := 1; i < params.EngineNICQueues; i++ {
			engineQIDs = append(engineQIDs, uint16(15+i))
		}
		n.Engine.AttachNIC(n.NIC, engineQIDs...)
		units := map[uint8]ndp.Unit{
			hdc.FnMD5: ndp.MD5{}, hdc.FnCRC32: ndp.CRC32{}, hdc.FnSHA256: ndp.SHA256{},
			hdc.FnAES256: &ndp.AES256{Key: [32]byte{0x2a}}, hdc.FnGZIP: ndp.GZIP{}, hdc.FnGUNZIP: ndp.GUNZIP{},
		}
		fns := params.NDPFuncs
		if fns == nil {
			fns = []uint8{hdc.FnMD5, hdc.FnCRC32, hdc.FnSHA256, hdc.FnAES256, hdc.FnGZIP, hdc.FnGUNZIP}
		}
		for _, fn := range fns {
			if err := n.Engine.AddNDP(fn, units[fn]); err != nil {
				panic(err)
			}
		}
		n.Driver = hdc.NewDriver(env, n.Host, n.FSs, n.Fab, n.HostPort, n.Engine, msiHDC, params.Driver)
		n.Driver.Writeback = n.writebackPage
	}
	return n
}

// DevOf returns the SSD index backing a file.
func (n *Node) DevOf(f *hostos.File) uint8 { return n.fileDev[f.Name] }

// CreateFile creates an empty file, placing it on the next SSD in
// round-robin order.
func (n *Node) CreateFile(name string, size int) (*hostos.File, error) {
	dev := n.nextDev % len(n.FSs)
	n.nextDev++
	f, err := n.FSs[dev].Create(name, size)
	if err != nil {
		return nil, err
	}
	n.fileDev[name] = uint8(dev)
	return f, nil
}

// StartTrace begins recording timeline events.
func (n *Node) StartTrace() { n.tracing = true; n.timeline = nil }

// StopTrace stops recording and returns the events.
func (n *Node) StopTrace() []TimelineEvent {
	n.tracing = false
	return n.timeline
}

func (n *Node) trace(where, what string) {
	if n.tracing {
		n.timeline = append(n.timeline, TimelineEvent{At: n.Env.Now(), Where: where, What: what})
	}
}

// allocHost takes a staging buffer of at least size bytes from the
// node's DRAM arena; the caller returns it with freeHost once the
// devices are done with it. allocVRAM and freeVRAM do the same in GPU
// VRAM. Running out is a sizing bug (Params.HostArenaBytes must exceed
// the peak in-flight footprint), so it panics, as Region.Alloc does.
func (n *Node) allocHost(size uint64) mem.Addr { return n.stage(n.staging, n.arena, size) }

func (n *Node) freeHost(a mem.Addr, size uint64) { n.staging.Free(a, size) }

func (n *Node) allocVRAM(size uint64) mem.Addr { return n.stage(n.vram, n.GPU.VRAM, size) }

func (n *Node) freeVRAM(a mem.Addr, size uint64) { n.vram.Free(a, size) }

func (n *Node) stage(a *mem.Arena, r *mem.Region, size uint64) mem.Addr {
	addr, ok := a.Alloc(size)
	if !ok {
		_, live := a.Live()
		panic(fmt.Sprintf("core: %s: staging region %s exhausted: %d bytes requested, %d bytes live",
			n.Name, r.Name, size, live))
	}
	return addr
}

// StagingLive returns the staging buffers outstanding in host DRAM
// and GPU VRAM, and their bytes. A quiescent node holds none.
func (n *Node) StagingLive() (spans int, bytes uint64) {
	spans, bytes = n.staging.Live()
	if n.vram != nil {
		s, b := n.vram.Live()
		spans, bytes = spans+s, bytes+b
	}
	return spans, bytes
}

// setupHostNVMe creates the host kernel driver's queue pair (QP 1) in
// host DRAM with MSI completion, one per SSD. Each interrupt's bottom
// half is bound once here, not per interrupt.
func (n *Node) setupHostNVMe() {
	for i, ssd := range n.SSDs {
		vector := msiNVMeBase + i
		ring, _ := ssd.NewQueuePair(n.HostPort, fmt.Sprintf("%s-h-nvme%d", n.Name, i), mem.HostDRAM, 1, 256, vector)
		n.nvmeRings = append(n.nvmeRings, ring)
		bottom := func() {
			if ring.ProcessCompletions() > 0 {
				n.nvmeWait.Broadcast()
			}
		}
		n.Fab.OnMSI(vector, func() { n.Host.RaiseIRQ("interrupt", n.Params.Host.BlockComplete, bottom) })
	}
}

// setupHostNIC creates the host kernel driver's NIC queues in host
// DRAM with armed MSI, and starts one receive-service process per
// queue (multi-queue RSS: the 40 GbE experiments need the softirq
// path to scale across cores).
func (n *Node) setupHostNIC() {
	queues := n.Params.HostNICQueues
	if queues < 1 {
		queues = 1
	}
	for q := 0; q < queues; q++ {
		send, recv, _ := n.NIC.NewQueuePair(n.HostPort, fmt.Sprintf("%s-h-nic%d", n.Name, q), mem.HostDRAM, hostQID(q), 1024, msiNICBase+q, false)
		n.recvRings = append(n.recvRings, recv)
		if q == 0 {
			n.sendRing = send
		}
		// NAPI-style bottom half: complete transmit jobs and re-arm the
		// send side (queue 0 owns transmit); each receive service
		// re-arms its own queue after draining.
		bottom := n.rxWake.Broadcast
		if q == 0 {
			bottom = func() {
				n.sendRing.Sweep()
				n.sendRing.Arm()
				n.sendCond.Broadcast()
				n.rxWake.Broadcast()
			}
		}
		n.Fab.OnMSI(msiNICBase+q, func() { n.Host.RaiseIRQ("interrupt", 0, bottom) })
		n.Env.SpawnHandler(fmt.Sprintf("%s-net-rx%d", n.Name, q), (&netRxMachine{n: n, recv: recv}).run)
		n.postRecvBuffers(recv)
		recv.Arm()
	}
	n.sendRing.Arm()
}

// hostQID maps a host RSS queue index to a NIC queue id, skipping
// queue 1 (reserved for the HDC Engine on DCS nodes).
func hostQID(q int) uint16 {
	if q == 0 {
		return 0
	}
	return uint16(q + 1) // 2, 3, 4, ...
}

// Host receive-buffer stock: one ring's worth of MTU-sized kernel
// buffers (the ring holds one slot fewer than its 1024 entries), two
// to each 4 KB arena page.
const (
	hostRxBufs   = 1023
	hostRxBufLen = 2048
)

// postRecvBuffers stocks a host receive ring at setup. The stock is
// carved from the arena region before the staging allocator takes the
// rest, so no staging buffer ever lands on it; deliverNetRx reposts
// each buffer it consumes, so the stock is every buffer the ring ever
// holds.
func (n *Node) postRecvBuffers(r *nic.RecvRing) {
	base := n.arena.Alloc(hostRxBufs*hostRxBufLen, mem.PageSize)
	bds := make([]nic.RecvBD, hostRxBufs)
	for i := range bds {
		bds[i] = nic.RecvBD{Addr: base + mem.Addr(i*hostRxBufLen), Len: hostRxBufLen}
	}
	if err := r.Post(bds); err != nil {
		panic(err)
	}
	r.RingDoorbell()
}

// writebackPage flushes one dirty page to the SSD via the host NVMe
// path (used by the HDC Driver's consistency check). The SSD DMAs the
// cached page in place through a user mapping, so the page must be one
// whole block.
func (n *Node) writebackPage(p *sim.Proc, f *hostos.File, page int, data []byte) {
	if len(data) != hostos.BlockSize {
		panic(fmt.Sprintf("core: %s: writeback of page %d of %s holds %d bytes, not one %d-byte block",
			n.Name, page, f.Name, len(data), hostos.BlockSize))
	}
	r := n.mapUser("writeback-page", data)
	defer n.unmapUser(r)
	lba := f.LBAs()[page]
	sig := sim.NewSignal(n.Env)
	n.Host.Exec(p, "block-layer", n.Params.Host.BlockSubmit, nil)
	n.submitHostNVMe(p, n.fileDev[f.Name], true, lba, r.Base, 1, sig)
	sig.Wait(p)
}

// submitHostNVMe issues one NVMe command from the host driver's ring
// for blocks blocks at lba and the contiguous buffer buf. CPU cost is
// charged by the caller; this performs the ring protocol. A command
// that needs a PRP list takes a staging page for it, held until the
// command succeeds: a retry re-submits the list verbatim.
func (n *Node) submitHostNVMe(p *sim.Proc, dev uint8, write bool, lba uint64, buf mem.Addr, blocks int, done *sim.Signal) {
	var list mem.Addr
	if nvme.NeedsPRPList(blocks) {
		list = n.allocHost(mem.PageSize)
	}
	cmd, err := nvme.IOCommand(n.MM, write, lba, buf, blocks, list)
	if err != nil {
		panic(err)
	}
	n.issueHostNVMe(p, dev, cmd, list, done)
}

// issueHostNVMe submits the first attempt of a command and arranges
// retries under nvme's retry policy. prpBuf is the command's PRP-list
// page, or 0 when it has none.
func (n *Node) issueHostNVMe(p *sim.Proc, dev uint8, cmd nvme.Command, prpBuf mem.Addr, done *sim.Signal) {
	ring := n.nvmeRings[dev]
	for ring.Full() {
		n.nvmeWait.Wait(p)
	}
	_, err := ring.Submit(cmd, n.hostNVMeCplFn(dev, cmd, prpBuf, 0, done))
	if err != nil {
		panic(err)
	}
	ring.RingDoorbell()
}

// hostNVMeCplFn builds the completion callback for one attempt of a
// host-driver command: success frees the PRP-list page and fires the
// caller's signal, a retryable media error arranges a backed-off
// re-submission. Completion callbacks run on the scheduler and cannot
// block, so the re-issue runs in its own run-to-completion retry
// machine.
func (n *Node) hostNVMeCplFn(dev uint8, cmd nvme.Command, prpBuf mem.Addr, attempt int, done *sim.Signal) func(nvme.Completion) {
	return func(cpl nvme.Completion) {
		switch {
		case cpl.Status == nvme.StatusSuccess:
			if prpBuf != 0 {
				n.freeHost(prpBuf, mem.PageSize)
			}
			done.Fire(nil)
		case nvme.Retryable(cpl.Status) && attempt < nvme.MaxRetries:
			n.hostNVMeRetries++
			m := &nvmeRetryMachine{n: n, dev: dev, cmd: cmd, prpBuf: prpBuf, attempt: attempt + 1, done: done}
			n.Env.SpawnHandler(fmt.Sprintf("%s-nvme%d-retry", n.Name, dev), m.run)
		default:
			panic(fmt.Sprintf("core: nvme status %#x after %d attempts", cpl.Status, attempt+1))
		}
	}
}

// nvmeRetryMachine re-submits one retried host NVMe command: first
// dispatch re-arms for the exponential backoff, subsequent dispatches
// re-check ring space (enrolling on nvmeWait while the ring is full,
// as issueHostNVMe waits) and re-submit.
type nvmeRetryMachine struct {
	n       *Node
	dev     uint8
	cmd     nvme.Command
	prpBuf  mem.Addr
	attempt int // attempt number of the re-submission being arranged
	done    *sim.Signal
	slept   bool
}

func (m *nvmeRetryMachine) run(h *sim.HandlerCtx) {
	if !m.slept {
		m.slept = true
		h.Rearm(nvme.RetryBackoff << uint(m.attempt-1))
		return
	}
	ring := m.n.nvmeRings[m.dev]
	if ring.Full() {
		m.n.nvmeWait.WaitH(h)
		return
	}
	if _, err := ring.Submit(m.cmd, m.n.hostNVMeCplFn(m.dev, m.cmd, m.prpBuf, m.attempt, m.done)); err != nil {
		panic(err)
	}
	ring.RingDoorbell()
	h.Exit()
}

// Fallbacks returns how many operations completed on the
// host-mediated path after an engine failure.
func (n *Node) Fallbacks() int64 { return n.fallbacks }

// HostNVMeRetries returns how many NVMe commands the host driver
// re-submitted after retryable media errors.
func (n *Node) HostNVMeRetries() int64 { return n.hostNVMeRetries }
