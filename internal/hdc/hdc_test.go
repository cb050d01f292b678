package hdc

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(id uint32, src, dst, fn uint8, a1, a2, ln, auxD uint64, c1, c2 uint32) bool {
		c := Command{ID: id, SrcClass: src, DstClass: dst, Fn: fn,
			SrcArg: a1, SrcCount: c1, DstArg: a2, DstCount: c2, Length: ln,
			AuxData: auxD}
		enc := c.Encode()
		got, err := DecodeCommand(enc[:])
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtentsRoundTripProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		ext := make([]ExtentEntry, len(raw))
		for i, v := range raw {
			ext[i] = ExtentEntry{LBA: v, Blocks: uint32(v % 1000)}
		}
		got, err := DecodeExtents(EncodeExtents(ext), len(ext))
		if err != nil {
			return false
		}
		for i := range ext {
			if got[i] != ext[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommandValidate(t *testing.T) {
	good := Command{ID: 1, SrcClass: ClassSSD, DstClass: ClassNIC, SrcCount: 1, Length: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Command{
		{ID: 2, SrcClass: ClassSSD, DstClass: ClassNIC, SrcCount: 1, Length: 0},
		{ID: 3, SrcClass: 9, DstClass: ClassNIC, Length: 1},
		{ID: 4, SrcClass: ClassSSD, DstClass: ClassNIC, SrcCount: 0, Length: 1},
		{ID: 5, SrcClass: ClassNIC, DstClass: ClassSSD, DstCount: 0, Length: 1},
		{ID: 6, SrcClass: ClassNIC, DstClass: ClassNIC, Fn: 99, Length: 1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("command %d validated", c.ID)
		}
	}
}

func TestBlockRuns(t *testing.T) {
	ext := []ExtentEntry{{LBA: 100, Blocks: 4}, {LBA: 500, Blocks: 32}, {LBA: 900, Blocks: 4}}
	// Chunk 0: 64 KB = 16 blocks: 4 from ext0, 12 from ext1.
	runs, err := blockRuns(ext, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].lba != 100 || runs[0].blocks != 4 ||
		runs[1].lba != 500 || runs[1].blocks != 12 || runs[1].bufOff != 4*4096 {
		t.Fatalf("runs = %+v", runs)
	}
	// Chunk 1: next 16 blocks: 16 from ext1 (offset 12) -> one run.
	runs, err = blockRuns(ext, 64<<10, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].lba != 512 || runs[0].blocks != 16 {
		t.Fatalf("runs = %+v", runs)
	}
	// Partial tail: blocks 32..39 = 4 from ext1 end + 4 from ext2.
	runs, err = blockRuns(ext, 2*64<<10, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].lba != 528 || runs[0].blocks != 4 || runs[1].lba != 900 {
		t.Fatalf("runs = %+v", runs)
	}
	// Beyond the extent list.
	if _, err := blockRuns(ext, 0, 41*4096); err == nil {
		t.Fatal("overrun accepted")
	}
}

func TestBlockRunsCapsAtMaxBlocks(t *testing.T) {
	ext := []ExtentEntry{{LBA: 0, Blocks: 64}}
	runs, err := blockRuns(ext, 0, 64*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d runs for 64 blocks", len(runs))
	}
	for _, r := range runs {
		if r.blocks > nvme.MaxBlocksPerCmd {
			t.Fatalf("run of %d blocks", r.blocks)
		}
	}
}

// testbed: node A has host+fs+SSD+NIC+engine+driver; node B is a plain
// host endpoint that can source and sink network payload.
type testbed struct {
	env    *sim.Env
	mmA    *mem.Map
	fabA   *pcie.Fabric
	hostA  *hostos.Host
	fsA    *hostos.FileSystem // SSD 0's namespace
	ssd    *nvme.SSD          // SSD 0
	fss    []*hostos.FileSystem
	ssds   []*nvme.SSD
	devs   []uint8 // AttachSSD's index for each of ssds
	nicA   *nic.NIC
	eng    *Engine
	drv    *Driver
	dramA  *mem.Region
	peer   *peerNode
	flowAB ether.Flow
}

// peerNode is node B: host-driven NIC rings, a payload collector, and
// a payload sender.
type peerNode struct {
	env      *sim.Env
	mm       *mem.Map
	fab      *pcie.Fabric
	dram     *mem.Region
	nic      *nic.NIC
	send     *nic.SendRing
	recv     *nic.RecvRing
	got      []byte
	gotAll   *sim.Cond
	rxBufLen uint32
}

func newPeer(env *sim.Env, name string) *peerNode {
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	hostPort := fab.AddPort(name + "-root")
	dram := mm.AddRegion(name+"-dram", mem.HostDRAM, 128<<20, true)
	fab.Attach(hostPort, dram)
	n := nic.NewNIC(env, fab, name+"-nic", nic.DefaultParams())
	send, recv, status := n.NewQueuePair(hostPort, name, mem.HostDRAM, 0, 1024, -1, false)
	p := &peerNode{env: env, mm: mm, fab: fab, dram: dram, nic: n,
		send: send, recv: recv, gotAll: sim.NewCond(env), rxBufLen: 2048}
	// Collector: drain receive completions into the byte stream.
	status.SetWriteHook(func(off uint64, nn int) {
		for _, f := range p.recv.AppendPoll(nil) {
			frame := p.mm.Read(f.Addr, int(f.Cpl.HdrLen)+int(f.Cpl.PayLen))
			seg, err := ether.Parse(frame)
			if err != nil {
				panic(err)
			}
			p.got = append(p.got, seg.Payload...)
			p.postBufs(1)
		}
		p.gotAll.Broadcast()
	})
	p.postBufs(256)
	return p
}

func (p *peerNode) postBufs(k int) {
	var bds []nic.RecvBD
	for i := 0; i < k; i++ {
		bds = append(bds, nic.RecvBD{Addr: p.dram.Alloc(uint64(p.rxBufLen), 64), Len: p.rxBufLen})
	}
	if err := p.recv.Post(bds); err != nil {
		panic(err)
	}
	p.recv.RingDoorbell()
}

// waitFor blocks until n payload bytes have arrived.
func (p *peerNode) waitFor(pr *sim.Proc, n int) []byte {
	for len(p.got) < n {
		p.gotAll.Wait(pr)
	}
	return p.got[:n]
}

// sendPayload transmits payload on the reverse flow starting at seq,
// split into 64 KB send jobs (the NIC staging-buffer bound).
func (p *peerNode) sendPayload(flow ether.Flow, seq uint32, payload []byte) {
	const job = 64 << 10
	for off := 0; off < len(payload); off += job {
		end := off + job
		if end > len(payload) {
			end = len(payload)
		}
		p.sendOne(flow, seq+uint32(off), payload[off:end])
	}
}

func (p *peerNode) sendOne(flow ether.Flow, seq uint32, payload []byte) {
	hdr := ether.HeaderTemplate(flow, seq, ether.FlagACK|ether.FlagPSH)
	hdrAddr := p.dram.Alloc(uint64(len(hdr)), 64)
	p.mm.Write(hdrAddr, hdr)
	payAddr := p.dram.Alloc(uint64(len(payload))+1, 64)
	p.mm.Write(payAddr, payload)
	bds := []nic.SendBD{{Addr: hdrAddr, Len: uint16(len(hdr)), Flags: nic.SendFlagLSO, MSS: ether.MSS}}
	const frag = 32 << 10
	for off := 0; off < len(payload); off += frag {
		n := len(payload) - off
		if n > frag {
			n = frag
		}
		bds = append(bds, nic.SendBD{Addr: payAddr + mem.Addr(off), Len: uint16(n)})
	}
	bds[len(bds)-1].Flags |= nic.SendFlagEnd
	if err := p.send.Push(bds); err != nil {
		panic(err)
	}
	p.send.RingDoorbell()
}

const connAB = 7

func newTestbed(t *testing.T) *testbed { return newTestbedSSDs(t, 1) }

// newTestbedSSDs builds the testbed with n SSDs on node A, wired as
// core.NewNode wires a node: every SSD attached to the engine, each
// with its own file-system namespace, before the driver is built.
func newTestbedSSDs(t *testing.T, n int) *testbed {
	t.Helper()
	env := sim.NewEnv()
	mmA := mem.NewMap()
	fabA := pcie.NewFabric(env, mmA, pcie.DefaultParams())
	hostPort := fabA.AddPort("a-root")
	dramA := mmA.AddRegion("a-dram", mem.HostDRAM, 64<<20, true)
	fabA.Attach(hostPort, dramA)
	hostA := hostos.NewHost(env, hostos.DefaultParams())

	var ssds []*nvme.SSD
	var fss []*hostos.FileSystem
	for i := 0; i < n; i++ {
		name := "a-ssd"
		if i > 0 {
			name = fmt.Sprintf("a-ssd%d", i+1)
		}
		ssds = append(ssds, nvme.NewSSD(env, fabA, name, nvme.DefaultParams()))
		fss = append(fss, hostos.NewFileSystem(4<<30))
	}
	nicA := nic.NewNIC(env, fabA, "a-nic", nic.DefaultParams())
	eng := NewEngine(env, fabA, "hdc", DefaultParams())
	devs := make([]uint8, n)
	for i, ssd := range ssds {
		devs[i] = eng.AttachSSD(ssd, 1)
		if int(devs[i]) != i {
			t.Fatalf("SSD %d index = %d", i, devs[i])
		}
	}
	eng.AttachNIC(nicA, 1)
	for fn, u := range map[uint8]ndp.Unit{
		FnMD5: ndp.MD5{}, FnCRC32: ndp.CRC32{}, FnSHA256: ndp.SHA256{},
		FnAES256: &ndp.AES256{Key: [32]byte{42}}, FnGZIP: ndp.GZIP{}, FnGUNZIP: ndp.GUNZIP{},
	} {
		if err := eng.AddNDP(fn, u); err != nil {
			t.Fatal(err)
		}
	}
	drv := NewDriver(env, hostA, fss, fabA, hostPort, eng, 9, DefaultDriverParams())

	peer := newPeer(env, "b")
	nic.Connect(nicA, peer.nic)

	flowAB := ether.Flow{
		SrcMAC: ether.MAC{2, 0, 0, 0, 0, 1}, DstMAC: ether.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: ether.IP{10, 0, 0, 1}, DstIP: ether.IP{10, 0, 0, 2},
		SrcPort: 6000, DstPort: 8080,
	}
	drv.Connect(connAB, flowAB, 0, 0)
	return &testbed{env: env, mmA: mmA, fabA: fabA, hostA: hostA, fsA: fss[0],
		ssd: ssds[0], fss: fss, ssds: ssds, devs: devs, nicA: nicA, eng: eng, drv: drv, dramA: dramA, peer: peer, flowAB: flowAB}
}

// stageFile creates a file on SSD 0 and preloads its content there.
func (tb *testbed) stageFile(t *testing.T, name string, content []byte) *hostos.File {
	t.Helper()
	return tb.stageFileOn(t, 0, name, content)
}

// stageFileOn creates a file in SSD dev's namespace and preloads its
// content on that SSD.
func (tb *testbed) stageFileOn(t *testing.T, dev int, name string, content []byte) *hostos.File {
	t.Helper()
	f, err := tb.fss[dev].Create(name, len(content))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, e := range f.Extents() {
		n := e.Blocks * hostos.BlockSize
		if off+n > len(content) {
			n = len(content) - off
		}
		tb.ssds[dev].Preload(e.LBA, content[off:off+n])
		off += n
	}
	return f
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>8)
	}
	return out
}

func TestSendFileEndToEnd(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(200 << 10) // 200 KB: multiple chunks, partial tail
	f := tb.stageFile(t, "obj", content)
	var res Result
	var err error
	tb.env.Spawn("app", func(p *sim.Proc) {
		bd := trace.NewBreakdown()
		res, err = tb.drv.SendFile(p, bd, 0, f, 0, len(content), connAB, FnNone, 0)
		tb.peer.waitFor(p, len(content))
	})
	tb.env.Run(-1)
	if err != nil || res.Status != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !bytes.Equal(tb.peer.got, content) {
		t.Fatal("peer received wrong bytes")
	}
	if tb.eng.CommandsDone() != 1 {
		t.Fatalf("commands done = %d", tb.eng.CommandsDone())
	}
	// No host DRAM payload traffic on node A: the defining property.
	if tb.fabA.HostBytes() > 4096 {
		t.Fatalf("host DRAM moved %d bytes on the data path", tb.fabA.HostBytes())
	}
}

func TestSendFileWithMD5(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(96 << 10)
	f := tb.stageFile(t, "obj", content)
	var res Result
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, _ = tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnMD5, 0)
		tb.peer.waitFor(p, len(content))
	})
	tb.env.Run(-1)
	want := md5.Sum(content)
	if !bytes.Equal(res.Aux, want[:]) {
		t.Fatalf("MD5 aux = %x, want %x", res.Aux, want)
	}
	if !bytes.Equal(tb.peer.got, content) {
		t.Fatal("payload corrupted by integrity unit")
	}
}

func TestSendFileEncrypted(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(64 << 10)
	f := tb.stageFile(t, "obj", content)
	tb.env.Spawn("app", func(p *sim.Proc) {
		tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnAES256, 0)
		tb.peer.waitFor(p, len(content))
	})
	tb.env.Run(-1)
	if bytes.Equal(tb.peer.got, content) {
		t.Fatal("ciphertext equals plaintext")
	}
	unit := &ndp.AES256{Key: [32]byte{42}}
	plain, _, _ := ndp.Transform(unit, tb.peer.got)
	if !bytes.Equal(plain, content) {
		t.Fatal("decryption does not recover plaintext")
	}
}

func TestSendFileGzip(t *testing.T) {
	tb := newTestbed(t)
	content := bytes.Repeat([]byte("compressible block content "), 6000) // ~162 KB
	f := tb.stageFile(t, "obj", content)
	done := false
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err := tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnGZIP, 0)
		if err != nil || res.Status != 0 {
			t.Errorf("res=%+v err=%v", res, err)
		}
		// The compressed stream is shorter; wait for sim to quiesce.
		done = true
	})
	tb.env.Run(-1)
	if !done {
		t.Fatal("send did not complete")
	}
	if len(tb.peer.got) >= len(content)/2 {
		t.Fatalf("no compression: %d -> %d", len(content), len(tb.peer.got))
	}
	plain, _, err := ndp.Transform(ndp.GUNZIP{}, tb.peer.got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, content) {
		t.Fatal("gunzip(sent) != original")
	}
}

func TestRecvFileEndToEnd(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(150 << 10)
	f, err := tb.fsA.Create("upload", len(content))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	tb.env.Spawn("remote", func(p *sim.Proc) {
		tb.peer.sendPayload(tb.flowAB.Reverse(), 0, content)
	})
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err = tb.drv.RecvFile(p, trace.NewBreakdown(), connAB, 0, f, 0, len(content), FnCRC32)
	})
	tb.env.Run(-1)
	if err != nil || res.Status != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	c := crc32.ChecksumIEEE(content)
	want := []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}
	if !bytes.Equal(res.Aux, want) {
		t.Fatalf("CRC aux = %x, want %x", res.Aux, want)
	}
	// Verify flash contents block by block.
	lbas := f.LBAs()
	for i, lba := range lbas {
		blk := tb.ssd.PeekBlock(lba)
		start := i * hostos.BlockSize
		end := start + hostos.BlockSize
		if end > len(content) {
			end = len(content)
		}
		if !bytes.Equal(blk[:end-start], content[start:end]) {
			t.Fatalf("flash block %d mismatch", i)
		}
	}
}

func TestConcurrentCommandsMultipleConnections(t *testing.T) {
	tb := newTestbed(t)
	// Second connection with a different port.
	flow2 := tb.flowAB
	flow2.SrcPort = 6001
	tb.drv.Connect(8, flow2, 0, 0)

	c1 := pattern(80 << 10)
	c2 := bytes.Repeat([]byte{0xEE}, 100<<10)
	f1 := tb.stageFile(t, "f1", c1)
	f2 := tb.stageFile(t, "f2", c2)
	done := 0
	tb.env.Spawn("app1", func(p *sim.Proc) {
		tb.drv.SendFile(p, trace.NewBreakdown(), 0, f1, 0, len(c1), connAB, FnMD5, 0)
		done++
	})
	tb.env.Spawn("app2", func(p *sim.Proc) {
		tb.drv.SendFile(p, trace.NewBreakdown(), 0, f2, 0, len(c2), 8, FnMD5, 0)
		done++
	})
	tb.env.Run(-1)
	if done != 2 {
		t.Fatalf("completed %d/2", done)
	}
	if len(tb.peer.got) != len(c1)+len(c2) {
		t.Fatalf("peer got %d bytes", len(tb.peer.got))
	}
	if tb.eng.CommandsDone() != 2 {
		t.Fatalf("engine completed %d", tb.eng.CommandsDone())
	}
	issued, doneSB := tb.eng.Scoreboard().Stats()
	if issued == 0 || issued != doneSB {
		t.Fatalf("scoreboard issued=%d done=%d", issued, doneSB)
	}
	if tb.eng.Scoreboard().Live() != 0 {
		t.Fatalf("scoreboard leaked %d entries", tb.eng.Scoreboard().Live())
	}
}

// TestRecvFramesWithoutConnectionRecycled pins the NIC controller's
// receive-tuple index with two connections on one controller: frames
// whose tuple no connection claims — one never registered, one whose
// connection was drained — are recycled into the receive pool without
// touching either connection, and the live connection still receives.
func TestRecvFramesWithoutConnectionRecycled(t *testing.T) {
	tb := newTestbed(t)
	ctl := tb.eng.nicCtls[0]
	flow2 := tb.flowAB
	flow2.SrcPort = 6001
	tb.drv.Connect(8, flow2, 0, 0)
	stray := tb.flowAB
	stray.SrcPort = 6002
	tb.nicA.SetSteering(stray.Reverse().Tuple(), ctl.qid) // steered, never registered
	free := tb.eng.recvPool.Free()
	noise := pattern(10 << 10) // eight frames per flow

	checkRecycled := func(what string) {
		t.Helper()
		before := ctl.recv.Completions()
		tb.env.Run(-1)
		if got := ctl.recv.Completions() - before; got != 8 {
			t.Fatalf("%s: the engine's queue received %d frames, want 8", what, got)
		}
		if got := tb.eng.recvPool.Free(); got != free {
			t.Fatalf("%s: receive pool has %d free buffers, want %d", what, got, free)
		}
		if ctl.recvPkts != 0 || ctl.conns[connAB].rxALen != 0 {
			t.Fatalf("%s: %d frames reached a connection, %d bytes buffered on %d",
				what, ctl.recvPkts, ctl.conns[connAB].rxALen, connAB)
		}
	}
	tb.env.Spawn("stray", func(p *sim.Proc) { tb.peer.sendPayload(stray.Reverse(), 0, noise) })
	checkRecycled("unregistered tuple")
	if _, _, _, _, ok := ctl.DrainConn(8); !ok {
		t.Fatal("connection 8 not registered")
	}
	tb.env.Spawn("drained", func(p *sim.Proc) { tb.peer.sendPayload(flow2.Reverse(), 0, noise) })
	checkRecycled("drained connection")

	content := pattern(100 << 10)
	f, err := tb.fsA.Create("upload", len(content))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	tb.env.Spawn("remote", func(p *sim.Proc) { tb.peer.sendPayload(tb.flowAB.Reverse(), 0, content) })
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err = tb.drv.RecvFile(p, trace.NewBreakdown(), connAB, 0, f, 0, len(content), FnNone)
	})
	tb.env.Run(-1)
	if err != nil || res.Status != 0 || ctl.recvPkts == 0 {
		t.Fatalf("live connection: res=%+v err=%v frames=%d", res, err, ctl.recvPkts)
	}
	if got := tb.eng.recvPool.Free(); got != free {
		t.Fatalf("after the live receive: %d free buffers, want %d", got, free)
	}
}

func TestDriverChargesLittleCPU(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(64 << 10)
	f := tb.stageFile(t, "obj", content)
	bd := trace.NewBreakdown()
	tb.env.Spawn("app", func(p *sim.Proc) {
		tb.drv.SendFile(p, bd, 0, f, 0, len(content), connAB, FnNone, 0)
	})
	tb.env.Run(-1)
	drvTime := bd.Get(trace.CatHDCDriver)
	wait := bd.Get(trace.CatIdleWait)
	if drvTime <= 0 {
		t.Fatal("no driver time recorded")
	}
	if drvTime > 10*sim.Microsecond {
		t.Fatalf("driver CPU %v too high", drvTime)
	}
	if wait < 5*drvTime {
		t.Fatalf("device wait %v not dominant over driver %v", wait, drvTime)
	}
}

func TestInvalidCommandCompletesWithError(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  Command
	}{
		// Zero-length transfer: rejected by the parser.
		{"zero-length", Command{ID: 999, SrcClass: ClassSSD, DstClass: ClassNIC, SrcCount: 1, Length: 0}},
		// Extent table at an unmapped host address: the table fetch
		// DMA fails.
		{"unmapped-extent-table", Command{ID: 999, SrcClass: ClassSSD, SrcArg: 0x10, SrcCount: 1, DstClass: ClassNIC, Length: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t)
			var res Result
			tb.env.Spawn("app", func(p *sim.Proc) {
				w := tb.drv.post(p, tc.cmd)
				tb.drv.nextID = 1000
				for !w.done {
					w.cond.Wait(p)
				}
				res = w.res
			})
			tb.env.Run(-1)
			if res.Status != CplStatusInvalid {
				t.Fatalf("status = %d, want CplStatusInvalid", res.Status)
			}
		})
	}
}

func TestDirtyPageWritebackBeforeD2D(t *testing.T) {
	tb := newTestbed(t)
	content := pattern(64 << 10)
	f := tb.stageFile(t, "obj", content)
	// Dirty page 2 in the page cache with different content.
	newPage := bytes.Repeat([]byte{0xAA}, hostos.BlockSize)
	tb.fsA.CacheWrite("obj", 2, newPage)
	wrote := false
	tb.drv.Writeback = func(p *sim.Proc, file *hostos.File, page int, data []byte) {
		// Simplified writeback path: direct media update + latency.
		tb.ssd.Preload(file.LBAs()[page], data)
		p.Sleep(30 * sim.Microsecond)
		wrote = true
	}
	tb.env.Spawn("app", func(p *sim.Proc) {
		tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnNone, 0)
		tb.peer.waitFor(p, len(content))
	})
	tb.env.Run(-1)
	if !wrote {
		t.Fatal("writeback not invoked")
	}
	want := append([]byte(nil), content...)
	copy(want[2*hostos.BlockSize:], newPage)
	if !bytes.Equal(tb.peer.got, want) {
		t.Fatal("peer did not observe latest (written-back) data")
	}
	if len(tb.fsA.Dirty("obj")) != 0 {
		t.Fatal("pages still dirty")
	}
}

func TestSendFileUnalignedOffsetRejected(t *testing.T) {
	tb := newTestbed(t)
	f := tb.stageFile(t, "obj", pattern(64<<10))
	var err error
	tb.env.Spawn("app", func(p *sim.Proc) {
		_, err = tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 13, 100, connAB, FnNone, 0)
	})
	tb.env.Run(-1)
	if err == nil {
		t.Fatal("unaligned offset accepted")
	}
}

func TestScoreboardBackpressure(t *testing.T) {
	// A tiny scoreboard still completes a large transfer.
	env := sim.NewEnv()
	mmA := mem.NewMap()
	fabA := pcie.NewFabric(env, mmA, pcie.DefaultParams())
	hostPort := fabA.AddPort("a-root")
	dramA := mmA.AddRegion("a-dram", mem.HostDRAM, 64<<20, true)
	fabA.Attach(hostPort, dramA)
	hostA := hostos.NewHost(env, hostos.DefaultParams())
	fsA := hostos.NewFileSystem(1 << 30)
	ssd := nvme.NewSSD(env, fabA, "a-ssd", nvme.DefaultParams())
	nicA := nic.NewNIC(env, fabA, "a-nic", nic.DefaultParams())
	params := DefaultParams()
	params.ScoreboardEntries = 3
	params.Window = 2
	eng := NewEngine(env, fabA, "hdc", params)
	eng.AttachSSD(ssd, 1)
	eng.AttachNIC(nicA, 1)
	drv := NewDriver(env, hostA, []*hostos.FileSystem{fsA}, fabA, hostPort, eng, 9, DefaultDriverParams())
	peer := newPeer(env, "b")
	nic.Connect(nicA, peer.nic)
	flow := ether.Flow{SrcMAC: ether.MAC{2}, DstMAC: ether.MAC{4},
		SrcIP: ether.IP{10, 0, 0, 1}, DstIP: ether.IP{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}
	drv.Connect(connAB, flow, 0, 0)

	content := pattern(256 << 10)
	f, _ := fsA.Create("big", len(content))
	off := 0
	for _, e := range f.Extents() {
		n := e.Blocks * hostos.BlockSize
		if off+n > len(content) {
			n = len(content) - off
		}
		ssd.Preload(e.LBA, content[off:off+n])
		off += n
	}
	ok := false
	env.Spawn("app", func(p *sim.Proc) {
		res, err := drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnNone, 0)
		ok = err == nil && res.Status == 0
		peer.waitFor(p, len(content))
	})
	env.Run(-1)
	if !ok {
		t.Fatal("transfer failed under scoreboard pressure")
	}
	if !bytes.Equal(peer.got, content) {
		t.Fatal("data mismatch under backpressure")
	}
	if eng.Scoreboard().MaxLive() > 3 {
		t.Fatalf("scoreboard exceeded capacity: %d", eng.Scoreboard().MaxLive())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, string) {
		tb := newTestbed(t)
		content := pattern(128 << 10)
		f := tb.stageFile(t, "obj", content)
		var log []string
		tb.env.Spawn("app", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				res, _ := tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnMD5, 0)
				log = append(log, fmt.Sprintf("%d:%x@%v", i, res.Aux[:4], p.Now()))
			}
		})
		end := tb.env.Run(-1)
		return end, fmt.Sprint(log)
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Fatalf("nondeterministic:\n%v %s\n%v %s", e1, l1, e2, l2)
	}
}

func TestForwardNICToNIC(t *testing.T) {
	// Network-to-network through the engine with re-encryption: the
	// applicability case beyond the paper's SSD<->NIC prototypes (the
	// scoreboard and NDP chain are agnostic to endpoint classes).
	tb := newTestbed(t)
	inFlow := tb.flowAB
	inFlow.SrcPort = 6100 // connection the body arrives on
	outFlow := tb.flowAB
	outFlow.SrcPort = 6101 // connection the ciphertext leaves on
	tb.drv.Connect(21, inFlow, 0, 0)
	tb.drv.Connect(22, outFlow, 0, 0)

	payload := pattern(96 << 10)
	var res Result
	var err error
	tb.env.Spawn("remote-sender", func(p *sim.Proc) {
		tb.peer.sendPayload(inFlow.Reverse(), 0, payload)
	})
	tb.env.Spawn("proxy-app", func(p *sim.Proc) {
		res, err = tb.drv.Forward(p, trace.NewBreakdown(), 21, 22, len(payload), FnAES256)
	})
	tb.env.Run(-1)
	if err != nil || res.Status != 0 {
		t.Fatalf("forward: res=%+v err=%v", res, err)
	}
	if len(tb.peer.got) != len(payload) {
		t.Fatalf("peer received %d bytes", len(tb.peer.got))
	}
	if bytes.Equal(tb.peer.got, payload) {
		t.Fatal("forwarded data not encrypted")
	}
	unit := &ndp.AES256{Key: [32]byte{42}}
	plain, _, _ := ndp.Transform(unit, tb.peer.got)
	if !bytes.Equal(plain, payload) {
		t.Fatal("forwarded ciphertext does not decrypt to the original")
	}
}

func TestMultiSSDEngineRouting(t *testing.T) {
	// A second SSD attached to the same engine: commands address it by
	// device index; data comes from the right flash.
	tb := newTestbedSSDs(t, 2)
	if tb.eng.SSDCount() != 2 {
		t.Fatalf("SSD count = %d", tb.eng.SSDCount())
	}
	dev2 := tb.devs[1]
	content := pattern(80 << 10)
	f := tb.stageFileOn(t, 1, "on-ssd2", content)
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err := tb.drv.SendFile(p, trace.NewBreakdown(), dev2, f, 0, len(content), connAB, FnNone, 0)
		if err != nil || res.Status != 0 {
			t.Errorf("res=%+v err=%v", res, err)
		}
		tb.peer.waitFor(p, len(content))
	})
	tb.env.Run(-1)
	if !bytes.Equal(tb.peer.got, content) {
		t.Fatal("data did not come from SSD 2")
	}
}

func TestBadDeviceIndexFails(t *testing.T) {
	tb := newTestbed(t)
	f := tb.stageFile(t, "obj", pattern(8<<10))
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err := tb.drv.SendFile(p, trace.NewBreakdown(), 9, f, 0, 8<<10, connAB, FnNone, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Status == 0 {
			t.Error("command addressing SSD 9 succeeded")
		}
	})
	tb.env.Run(-1)
}

func TestCopyFileBetweenSSDs(t *testing.T) {
	tb := newTestbedSSDs(t, 2)
	dev2 := tb.devs[1]
	ssd2 := tb.ssds[1]

	content := pattern(192 << 10)
	src := tb.stageFile(t, "src", content)
	dst, err := tb.fss[1].Create("dst", len(content))
	if err != nil {
		t.Fatal(err)
	}
	tb.env.Spawn("app", func(p *sim.Proc) {
		res, err := tb.drv.CopyFile(p, trace.NewBreakdown(), 0, src, 0, dev2, dst, 0, len(content), FnCRC32)
		if err != nil || res.Status != 0 {
			t.Errorf("copy: res=%+v err=%v", res, err)
			return
		}
		c := crc32.ChecksumIEEE(content)
		want := []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}
		if !bytes.Equal(res.Aux, want) {
			t.Errorf("copy CRC = %x", res.Aux)
		}
	})
	tb.env.Run(-1)
	// Verify the destination SSD's flash block by block.
	off := 0
	for _, lba := range dst.LBAs() {
		end := off + hostos.BlockSize
		if end > len(content) {
			end = len(content)
		}
		if !bytes.Equal(ssd2.PeekBlock(lba)[:end-off], content[off:end]) {
			t.Fatalf("dst flash mismatch at byte %d", off)
		}
		off = end
	}
	// No network traffic for an SSD->SSD copy.
	tx, rx, _, _, _, _ := tb.nicA.Stats()
	if tx != 0 || rx != 0 {
		t.Fatalf("copy used the NIC: tx=%d rx=%d", tx, rx)
	}
}

func TestAESKeySlots(t *testing.T) {
	run := func(slot uint64) []byte {
		tb := newTestbed(t)
		tb.eng.ProvisionAESKey(1, [32]byte{0x11})
		tb.eng.ProvisionAESKey(2, [32]byte{0x22})
		content := pattern(64 << 10)
		f := tb.stageFile(t, "obj", content)
		tb.env.Spawn("app", func(p *sim.Proc) {
			res, err := tb.drv.SendFile(p, trace.NewBreakdown(), 0, f, 0, len(content), connAB, FnAES256, slot)
			if err != nil || res.Status != 0 {
				t.Errorf("slot %d: res=%+v err=%v", slot, res, err)
			}
			tb.peer.waitFor(p, len(content))
		})
		tb.env.Run(-1)
		return tb.peer.got
	}
	content := pattern(64 << 10)
	ct1, ct2 := run(1), run(2)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different key slots produced identical ciphertext")
	}
	plain1, _, _ := ndp.Transform(&ndp.AES256{Key: [32]byte{0x11}}, ct1)
	plain2, _, _ := ndp.Transform(&ndp.AES256{Key: [32]byte{0x22}}, ct2)
	if !bytes.Equal(plain1, content) || !bytes.Equal(plain2, content) {
		t.Fatal("key-slot ciphertexts do not decrypt with their keys")
	}
}

// Property: blockRuns covers exactly the requested block range, in
// order, with runs bounded by the per-command maximum, for arbitrary
// fragmented extent maps.
func TestBlockRunsCoverageProperty(t *testing.T) {
	f := func(runLens []uint8, offRaw, nRaw uint16) bool {
		var ext []ExtentEntry
		lba := uint64(1000)
		total := 0
		for _, rl := range runLens {
			blocks := int(rl%32) + 1
			ext = append(ext, ExtentEntry{LBA: lba, Blocks: uint32(blocks)})
			lba += uint64(blocks) + 7 // gaps between extents
			total += blocks
		}
		if total == 0 {
			return true
		}
		startBlk := int(offRaw) % total
		maxBytes := (total - startBlk) * nvme.BlockSize
		n := int(nRaw)%maxBytes + 1
		runs, err := blockRuns(ext, startBlk*nvme.BlockSize, n)
		if err != nil {
			return false
		}
		// Reconstruct the covered block list.
		var got []uint64
		bufOff := 0
		for _, r := range runs {
			if r.blocks > nvme.MaxBlocksPerCmd || r.bufOff != bufOff {
				return false
			}
			for b := 0; b < r.blocks; b++ {
				got = append(got, r.lba+uint64(b))
			}
			bufOff += r.blocks * nvme.BlockSize
		}
		// Expected: blocks startBlk .. startBlk+ceil(n/bs)-1 of the map.
		var all []uint64
		for _, e := range ext {
			for b := 0; b < int(e.Blocks); b++ {
				all = append(all, e.LBA+uint64(b))
			}
		}
		want := all[startBlk : startBlk+(n+nvme.BlockSize-1)/nvme.BlockSize]
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
