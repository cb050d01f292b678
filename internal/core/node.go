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
	FS       *hostos.FileSystem

	SSD  *nvme.SSD            // first SSD (compatibility alias)
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
	recvRing  *nic.RecvRing   // queue 0 (compatibility alias)
	sendCond  *sim.Cond
	pendTx    []hostPendingSend
	nextRSS   int // round-robin connection-to-queue assignment

	conns    map[uint64]*hostConn
	connsRx  map[ether.Tuple]*hostConn // receive-tuple index for the rx hot path
	rxWake   *sim.Cond
	arena    *mem.Region // host DRAM staging buffers
	arenaOff uint64
	vramOff  uint64 // GPU staging ring cursor

	adopted         bool  // engine connections taken over by the host
	fallbacks       int64 // ops completed on the host-mediated path
	hostNVMeRetries int64 // host-driver NVMe re-submissions

	timeline []TimelineEvent
	tracing  bool
}

type hostPendingSend struct {
	tail uint64
	sig  *sim.Signal
}

// hostConn is a host-terminated TCP-lite endpoint.
type hostConn struct {
	id     uint64
	flow   ether.Flow // transmit direction
	txSeq  uint32
	rxSeq  uint32
	stream []byte // reassembled in-order payload; stream[rd:] is unconsumed
	rd     int    // consumed prefix (head index, capacity-preserving)

	// avail signals stream growth to this connection's readers. Waking
	// per connection instead of per node matters at rack scale: a node
	// with dozens of parked receivers would otherwise wake every one of
	// them (a goroutine handoff each) on every delivered batch.
	avail *sim.Cond
}

// reserveStream guarantees room for extra more unconsumed bytes,
// compacting the consumed prefix and growing by doubling: Go's native
// large-slice growth (~1.25x) plus the capacity bleed of reslicing on
// consume made reassembly a top copy cost at 40 GbE. Segment-
// granularity deliveries (deliverNetRx) reserve a whole frame run up
// front so the compact/grow decision runs once per run, not per frame.
func (c *hostConn) reserveStream(extra int) {
	if len(c.stream)+extra > cap(c.stream) && c.rd > 0 {
		m := copy(c.stream, c.stream[c.rd:])
		c.stream = c.stream[:m]
		c.rd = 0
	}
	if need := len(c.stream) + extra; need > cap(c.stream) {
		newCap := 2 * cap(c.stream)
		if newCap < need {
			newCap = need
		}
		if newCap < 4096 {
			newCap = 4096
		}
		ns := make([]byte, len(c.stream), newCap)
		copy(ns, c.stream)
		c.stream = ns
	}
}

// pushStream appends payload bytes to the reassembled stream.
func (c *hostConn) pushStream(b []byte) {
	c.reserveStream(len(b))
	c.stream = append(c.stream, b...)
}

// streamLen returns the unconsumed byte count.
func (c *hostConn) streamLen() int { return len(c.stream) - c.rd }

// takeStream consumes want bytes into a fresh slice, preserving the
// buffer's capacity for the next reassembly round.
func (c *hostConn) takeStream(want int) []byte {
	out := append([]byte(nil), c.stream[c.rd:c.rd+want]...)
	c.rd += want
	if c.rd == len(c.stream) {
		c.stream, c.rd = c.stream[:0], 0
	}
	return out
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
	n.SSD = n.SSDs[0]
	n.FS = n.FSs[0]
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
		units := map[uint8]ndp.Streamer{
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
		n.Driver = hdc.NewDriver(env, n.Host, n.FSs[0], n.Fab, n.HostPort, n.Engine, msiHDC, params.Driver)
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

// allocVRAM carves a staging buffer out of GPU VRAM; like the host
// arena it recycles in a ring, so workloads bound their working set.
func (n *Node) allocVRAM(size uint64) mem.Addr {
	size = (size + 4095) &^ 4095
	if n.vramOff+size > n.GPU.VRAM.Size {
		n.vramOff = 0
	}
	a := n.GPU.VRAM.Base + mem.Addr(n.vramOff)
	n.vramOff += size
	return a
}

// allocHost carves a staging buffer out of the node's DRAM arena.
// The arena recycles in a ring: workloads bound their working set.
func (n *Node) allocHost(size uint64) mem.Addr {
	size = (size + 4095) &^ 4095
	if n.arenaOff+size > n.arena.Size {
		n.arenaOff = 0
	}
	a := n.arena.Base + mem.Addr(n.arenaOff)
	n.arenaOff += size
	return a
}

// setupHostNVMe creates the host kernel driver's queue pair (QP 1) in
// host DRAM with MSI completion, one per SSD.
func (n *Node) setupHostNVMe() {
	entries := 256
	for i, ssd := range n.SSDs {
		sq := n.MM.AddRegion(fmt.Sprintf("%s-h-nvme%d-sq", n.Name, i), mem.HostDRAM, uint64(entries*nvme.CommandSize), true)
		cq := n.MM.AddRegion(fmt.Sprintf("%s-h-nvme%d-cq", n.Name, i), mem.HostDRAM, uint64(entries*nvme.CompletionSize), true)
		n.Fab.Attach(n.HostPort, sq)
		n.Fab.Attach(n.HostPort, cq)
		sqdb, cqdb := ssd.DoorbellAddrs(1)
		cfg := nvme.RingConfig{QID: 1, Entries: entries, SQ: sq, CQ: cq, SQDoorbell: sqdb, CQDoorbell: cqdb}
		ring := nvme.NewRing(n.Fab, cfg)
		n.nvmeRings = append(n.nvmeRings, ring)
		vector := msiNVMeBase + i
		n.Fab.OnMSI(vector, func() {
			n.Host.RaiseIRQ("interrupt", n.Params.Host.BlockComplete, func() {
				if ring.ProcessCompletions() > 0 {
					n.nvmeWait.Broadcast()
				}
			})
		})
		ssd.CreateQueuePair(cfg, vector)
	}
}

// setupHostNIC creates the host kernel driver's NIC queues in host
// DRAM with armed MSI, and starts one receive-service process per
// queue (multi-queue RSS: the 40 GbE experiments need the softirq
// path to scale across cores).
func (n *Node) setupHostNIC() {
	entries := 1024
	queues := n.Params.HostNICQueues
	if queues < 1 {
		queues = 1
	}
	for q := 0; q < queues; q++ {
		qid := hostQID(q)
		sring := n.MM.AddRegion(fmt.Sprintf("%s-h-nic%d-sring", n.Name, q), mem.HostDRAM, uint64(entries*nic.SendBDSize), true)
		rring := n.MM.AddRegion(fmt.Sprintf("%s-h-nic%d-rring", n.Name, q), mem.HostDRAM, uint64(entries*nic.RecvBDSize), true)
		rcpl := n.MM.AddRegion(fmt.Sprintf("%s-h-nic%d-rcpl", n.Name, q), mem.HostDRAM, uint64(entries*nic.RecvCplSize), true)
		status := n.MM.AddRegion(fmt.Sprintf("%s-h-nic%d-status", n.Name, q), mem.HostDRAM, 64, true)
		for _, r := range []*mem.Region{sring, rring, rcpl, status} {
			n.Fab.Attach(n.HostPort, r)
		}
		cfg := nic.QueueConfig{QID: qid, SendRing: sring, SendEntries: entries,
			SendStatus: status.Base, RecvRing: rring, RecvEntries: entries,
			RecvCpl: rcpl, RecvStatus: status.Base + 8, MSIVector: msiNICBase + q}
		n.NIC.ConfigureQueue(cfg)
		recv := nic.NewRecvRing(n.Fab, n.NIC, cfg)
		n.recvRings = append(n.recvRings, recv)
		if q == 0 {
			n.sendRing = nic.NewSendRing(n.Fab, n.NIC, cfg)
			n.recvRing = recv
		}
		q := q
		n.Fab.OnMSI(msiNICBase+q, func() {
			n.Host.RaiseIRQ("interrupt", 0, func() {
				// NAPI-style bottom half: complete transmit jobs and
				// re-arm the send side (queue 0 owns transmit); each
				// receive service re-arms its own queue after draining.
				if q == 0 {
					n.sweepSendCompletions()
					n.sendRing.Arm()
					n.sendCond.Broadcast()
				}
				n.rxWake.Broadcast()
			})
		})
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

// postRecvBuffers keeps a host receive ring stocked with MTU-sized
// kernel buffers.
func (n *Node) postRecvBuffers(r *nic.RecvRing) {
	var bds []nic.RecvBD
	for r.Unconsumed()+len(bds) < 1023 {
		bds = append(bds, nic.RecvBD{Addr: n.allocHost(2048), Len: 2048})
	}
	if len(bds) > 0 {
		if err := r.Post(bds); err != nil {
			panic(err)
		}
		r.RingDoorbell()
	}
}

// writebackPage flushes one dirty page to the SSD via the host NVMe
// path (used by the HDC Driver's consistency check).
func (n *Node) writebackPage(p *sim.Proc, f *hostos.File, page int, data []byte) {
	buf := n.allocHost(hostos.BlockSize)
	n.MM.Write(buf, data)
	lba := f.LBAs()[page]
	sig := sim.NewSignal(n.Env)
	n.Host.Exec(p, "block-layer", n.Params.Host.BlockSubmit, nil)
	n.submitHostNVMe(p, n.fileDev[f.Name], true, lba, 1, []mem.Addr{buf}, sig)
	sig.Wait(p)
}

// Host NVMe driver recovery policy: a retryable media error is
// re-submitted with exponential backoff a bounded number of times.
const (
	hostNVMeMaxRetries   = 4
	hostNVMeRetryBackoff = 5 * sim.Microsecond
)

// submitHostNVMe issues one NVMe command from the host driver's ring.
// CPU cost is charged by the caller; this performs the ring protocol.
func (n *Node) submitHostNVMe(p *sim.Proc, dev uint8, write bool, lba uint64, blocks int, pages []mem.Addr, done *sim.Signal) {
	prpBuf := n.allocHost(4096)
	prp1, prp2, err := nvme.BuildPRPs(n.MM, pages, prpBuf)
	if err != nil {
		panic(err)
	}
	op := nvme.OpRead
	if write {
		op = nvme.OpWrite
	}
	n.issueHostNVMe(p, dev, nvme.Command{
		Opcode: op, NSID: 1, PRP1: prp1, PRP2: prp2,
		SLBA: lba, NLB: uint16(blocks - 1),
	}, 0, done)
}

// issueHostNVMe submits one attempt of a command and arranges retries.
// The PRP lists are reused verbatim: a media error is injected before
// the SSD moves data or commits flash, so a re-submission is
// idempotent.
func (n *Node) issueHostNVMe(p *sim.Proc, dev uint8, cmd nvme.Command, attempt int, done *sim.Signal) {
	ring := n.nvmeRings[dev]
	for ring.Full() {
		n.nvmeWait.Wait(p)
	}
	_, err := ring.Submit(cmd, n.hostNVMeCplFn(dev, cmd, attempt, done))
	if err != nil {
		panic(err)
	}
	ring.RingDoorbell()
}

// hostNVMeCplFn builds the completion callback for one attempt of a
// host-driver command: success fires the caller's signal, a retryable
// media error arranges a backed-off re-submission. Completion
// callbacks run on the scheduler and cannot block, so the re-issue
// runs in its own run-to-completion retry machine.
func (n *Node) hostNVMeCplFn(dev uint8, cmd nvme.Command, attempt int, done *sim.Signal) func(nvme.Completion) {
	return func(cpl nvme.Completion) {
		switch {
		case cpl.Status == nvme.StatusSuccess:
			done.Fire(nil)
		case nvme.Retryable(cpl.Status) && attempt < hostNVMeMaxRetries:
			n.hostNVMeRetries++
			m := &nvmeRetryMachine{n: n, dev: dev, cmd: cmd, attempt: attempt + 1, done: done}
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
	attempt int // attempt number of the re-submission being arranged
	done    *sim.Signal
	slept   bool
}

func (m *nvmeRetryMachine) run(h *sim.HandlerCtx) {
	if !m.slept {
		m.slept = true
		h.Rearm(hostNVMeRetryBackoff << uint(m.attempt-1))
		return
	}
	ring := m.n.nvmeRings[m.dev]
	if ring.Full() {
		m.n.nvmeWait.WaitH(h)
		return
	}
	if _, err := ring.Submit(m.cmd, m.n.hostNVMeCplFn(m.dev, m.cmd, m.attempt, m.done)); err != nil {
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
