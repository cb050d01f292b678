package nic

import (
	"bytes"
	"testing"
	"testing/quick"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

func TestSendBDRoundTripProperty(t *testing.T) {
	f := func(addr uint64, ln, flags, mss uint16) bool {
		bd := SendBD{Addr: mem.Addr(addr), Len: ln, Flags: flags, MSS: mss}
		enc := bd.Encode()
		got, err := DecodeSendBD(enc[:])
		return err == nil && got == bd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecvBDRoundTripProperty(t *testing.T) {
	f := func(addr uint64, ln uint32) bool {
		bd := RecvBD{Addr: mem.Addr(addr), Len: ln}
		enc := bd.Encode()
		got, err := DecodeRecvBD(enc[:])
		return err == nil && got == bd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecvCplRoundTripProperty(t *testing.T) {
	f := func(idx, seq uint32, hl, pl uint16, flags, valid uint8) bool {
		c := RecvCpl{BDIndex: idx, HdrLen: hl, PayLen: pl, Seq: seq, Flags: flags, Valid: valid}
		enc := c.Encode()
		got, err := DecodeRecvCpl(enc[:])
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeDescriptors feeds arbitrary bytes to the three descriptor
// parsers: none may panic, each must reject anything shorter than a
// descriptor (16 bytes), and each decoded descriptor must re-encode to
// the input's first 16 bytes with the bytes its format leaves
// undefined zeroed: 14–15 of a send BD and a receive completion,
// 12–15 of a receive BD.
func FuzzDecodeDescriptors(f *testing.F) {
	send := SendBD{Addr: 0x1000, Len: 1448, Flags: SendFlagLSO | SendFlagEnd, MSS: ether.MSS}
	recv := RecvBD{Addr: 0x2000, Len: 2048}
	cpl := RecvCpl{BDIndex: 5, HdrLen: 54, PayLen: 1448, Seq: 9, Flags: 1, Valid: 1}
	for _, enc := range [][16]byte{send.Encode(), recv.Encode(), cpl.Encode()} {
		f.Add(enc[:])
	}
	check := func(t *testing.T, name string, raw []byte, err error, enc []byte, undefined int) {
		t.Helper()
		if len(raw) < len(enc) {
			if err == nil {
				t.Fatalf("%s: %d-byte descriptor decoded", name, len(raw))
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want := bytes.Clone(raw[:len(enc)])
		clear(want[undefined:])
		if !bytes.Equal(enc, want) {
			t.Fatalf("%s re-encoded\n %x\nwant\n %x", name, enc, want)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sbd, err := DecodeSendBD(raw)
		enc := sbd.Encode()
		check(t, "send BD", raw, err, enc[:], 14)
		rbd, err := DecodeRecvBD(raw)
		enc = rbd.Encode()
		check(t, "recv BD", raw, err, enc[:], 12)
		rc, err := DecodeRecvCpl(raw)
		enc = rc.Encode()
		check(t, "recv completion", raw, err, enc[:], 14)
	})
}

// node is one endpoint: its own address map/fabric, a host port with
// DRAM, and a NIC with one configured queue driven from host memory.
type node struct {
	mm       *mem.Map
	fab      *pcie.Fabric
	hostPort *pcie.Port
	dram     *mem.Region
	nic      *NIC
	status   *mem.Region // send completed-BD counter at +0, receive completions at +8
	send     *SendRing
	recv     *RecvRing
}

func newNode(env *sim.Env, name string, msiVector int, headerSplit bool) *node {
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	hostPort := fab.AddPort(name + "-root")
	dram := mm.AddRegion(name+"-dram", mem.HostDRAM, 64<<20, true)
	fab.Attach(hostPort, dram)
	n := NewNIC(env, fab, name+"-nic", DefaultParams())
	send, recv, status := n.NewQueuePair(hostPort, name, mem.HostDRAM, 0, 1024, msiVector, headerSplit)
	return &node{mm: mm, fab: fab, hostPort: hostPort, dram: dram, nic: n, status: status, send: send, recv: recv}
}

func testFlow() ether.Flow {
	return ether.Flow{
		SrcMAC: ether.MAC{2, 0, 0, 0, 0, 1}, DstMAC: ether.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: ether.IP{10, 0, 0, 1}, DstIP: ether.IP{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 80,
	}
}

// sendJob posts a header-template BD plus one payload BD and rings.
func sendJob(n *node, flow ether.Flow, seq uint32, payload []byte, lso bool) {
	hdr := ether.HeaderTemplate(flow, seq, ether.FlagACK|ether.FlagPSH)
	hdrAddr := n.dram.Alloc(uint64(len(hdr)), 64)
	n.mm.Write(hdrAddr, hdr)
	payAddr := n.dram.Alloc(uint64(len(payload))+1, 64)
	n.mm.Write(payAddr, payload)
	flags0 := uint16(0)
	if lso {
		flags0 = SendFlagLSO
	}
	// BD lengths are 16-bit, so large payloads span multiple BDs,
	// exactly as on real hardware.
	bds := []SendBD{{Addr: hdrAddr, Len: uint16(len(hdr)), Flags: flags0, MSS: ether.MSS}}
	const maxBD = 32 << 10
	for off := 0; off < len(payload); off += maxBD {
		end := off + maxBD
		if end > len(payload) {
			end = len(payload)
		}
		bds = append(bds, SendBD{Addr: payAddr + mem.Addr(off), Len: uint16(end - off)})
	}
	if len(payload) == 0 {
		bds = append(bds, SendBD{Addr: payAddr, Len: 0})
	}
	bds[len(bds)-1].Flags |= SendFlagEnd
	if err := n.send.Push(bds); err != nil {
		panic(err)
	}
	n.send.RingDoorbell()
}

// postRecv posts count MTU-sized receive buffers.
func postRecv(n *node, count int, bufLen uint32) {
	var bds []RecvBD
	for i := 0; i < count; i++ {
		bds = append(bds, RecvBD{Addr: n.dram.Alloc(uint64(bufLen), 64), Len: bufLen})
	}
	if err := n.recv.Post(bds); err != nil {
		panic(err)
	}
	n.recv.RingDoorbell()
}

func TestSmallSendReceive(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	b := newNode(env, "b", -1, false)
	Connect(a.nic, b.nic)
	postRecv(b, 8, 2048)
	payload := []byte("hello from node a")
	env.Spawn("tx", func(p *sim.Proc) { sendJob(a, testFlow(), 100, payload, false) })
	env.Run(-1)

	fills := b.recv.AppendPoll(nil)
	if len(fills) != 1 {
		t.Fatalf("completions = %d", len(fills))
	}
	f := fills[0]
	if int(f.Cpl.PayLen) != len(payload) || f.Cpl.Seq != 100 {
		t.Fatalf("cpl = %+v", f.Cpl)
	}
	frame := b.mm.Read(f.Addr, int(f.Cpl.HdrLen)+int(f.Cpl.PayLen))
	seg, err := ether.Parse(frame)
	if err != nil {
		t.Fatalf("received frame invalid: %v", err)
	}
	if !bytes.Equal(seg.Payload, payload) {
		t.Fatalf("payload = %q", seg.Payload)
	}
	if seg.Flow != testFlow() {
		t.Fatalf("flow = %+v", seg.Flow)
	}
	tx, rx, txPay, rxPay, drops, errs := a.nic.Stats()
	if tx != 1 || txPay != int64(len(payload)) || drops != 0 || errs != 0 {
		t.Fatalf("a stats: %d %d %d %d %d %d", tx, rx, txPay, rxPay, drops, errs)
	}
}

func TestLSOSegmentsAndReassembly(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	b := newNode(env, "b", -1, true) // header split on receiver
	Connect(a.nic, b.nic)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wantFrames := (len(payload) + ether.MSS - 1) / ether.MSS
	postRecv(b, wantFrames+4, HdrOff+ether.MSS)
	env.Spawn("tx", func(p *sim.Proc) { sendJob(a, testFlow(), 0, payload, true) })
	env.Run(-1)

	fills := b.recv.AppendPoll(nil)
	if len(fills) != wantFrames {
		t.Fatalf("frames = %d, want %d", len(fills), wantFrames)
	}
	// Reassemble by sequence number from split buffers.
	rebuilt := make([]byte, len(payload))
	for _, f := range fills {
		pay := b.mm.Read(f.Addr+HdrOff, int(f.Cpl.PayLen))
		copy(rebuilt[f.Cpl.Seq:], pay)
		hdr := b.mm.Read(f.Addr, int(f.Cpl.HdrLen))
		if _, err := ether.ParseHeaders(hdr); err != nil {
			t.Fatalf("split header unparsable: %v", err)
		}
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("reassembled payload mismatch")
	}
}

func TestPauseWithoutRecvBuffers(t *testing.T) {
	// 802.3x-style flow control: with no posted receive buffer the NIC
	// pauses (no drop); posting a buffer later releases the frame.
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	b := newNode(env, "b", -1, false)
	Connect(a.nic, b.nic)
	env.Spawn("tx", func(p *sim.Proc) { sendJob(a, testFlow(), 0, []byte("parked"), false) })
	env.Run(-1)
	_, rx, _, _, drops, _ := b.nic.Stats()
	if rx != 0 || drops != 0 {
		t.Fatalf("before buffers: rx=%d drops=%d", rx, drops)
	}
	postRecv(b, 4, 2048)
	env.Run(-1)
	_, rx, _, _, drops, _ = b.nic.Stats()
	if rx != 1 || drops != 0 {
		t.Fatalf("after buffers: rx=%d drops=%d", rx, drops)
	}
	if got := len(b.recv.AppendPoll(nil)); got != 1 {
		t.Fatalf("completions = %d", got)
	}
}

// TestUndersizedRecvBufferKeepsCompletionsInStep: a posted buffer too
// small for the arriving frame drops that frame, but its BD is already
// consumed — so the NIC must still complete it, zero-length, or every
// later completion's BDIndex names the previous buffer and the dropped
// buffer's slot leaks.
func TestUndersizedRecvBufferKeepsCompletionsInStep(t *testing.T) {
	for _, split := range []bool{false, true} {
		env := sim.NewEnv()
		a := newNode(env, "a", -1, false)
		b := newNode(env, "b", -1, split)
		Connect(a.nic, b.nic)
		sizes := []uint32{2048, 32, 2048, 2048}
		bds := make([]RecvBD, len(sizes))
		for i, sz := range sizes {
			bds[i] = RecvBD{Addr: b.dram.Alloc(uint64(sz), 64), Len: sz}
		}
		if err := b.recv.Post(bds); err != nil {
			t.Fatal(err)
		}
		b.recv.RingDoorbell()
		payloads := []string{"first frame", "second frame", "third frame"}
		env.Spawn("tx", func(p *sim.Proc) {
			seq := uint32(0)
			for _, pay := range payloads {
				sendJob(a, testFlow(), seq, []byte(pay), false)
				seq += uint32(len(pay))
			}
		})
		env.Run(-1)

		fills := b.recv.AppendPoll(nil)
		if len(fills) != len(payloads) {
			t.Fatalf("split=%v: %d completions for %d consumed buffers", split, len(fills), len(payloads))
		}
		for i, f := range fills {
			if f.Addr != bds[i].Addr {
				t.Fatalf("split=%v: completion %d names buffer %#x, want %#x", split, i, f.Addr, bds[i].Addr)
			}
		}
		if c := fills[1].Cpl; c.HdrLen != 0 || c.PayLen != 0 {
			t.Fatalf("split=%v: undersized buffer's completion %+v, want zero-length", split, c)
		}
		for _, i := range []int{0, 2} {
			f := fills[i]
			payAt := f.Addr + mem.Addr(f.Cpl.HdrLen)
			if split {
				payAt = f.Addr + HdrOff
			}
			if got := string(b.mm.Read(payAt, int(f.Cpl.PayLen))); got != payloads[i] {
				t.Fatalf("split=%v: completion %d payload %q, want %q", split, i, got, payloads[i])
			}
		}
		if _, rx, _, _, drops, _ := b.nic.Stats(); rx != 2 || drops != 1 {
			t.Fatalf("split=%v: rx=%d drops=%d, want 2 and 1", split, rx, drops)
		}
		if got := b.recv.Unconsumed(); got != 1 {
			t.Fatalf("split=%v: %d buffers still posted, want 1", split, got)
		}
	}
}

// Back-to-back peers share one frame pool, so they must share one
// simulated timeline: Connect refuses NICs on different Envs.
func TestConnectAcrossEnvsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a := newNode(sim.NewEnv(), "a", -1, false)
	b := newNode(sim.NewEnv(), "b", -1, false)
	Connect(a.nic, b.nic)
}

func TestDropWithoutPeer(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	env.Spawn("tx", func(p *sim.Proc) { sendJob(a, testFlow(), 0, []byte("void"), false) })
	env.Run(-1)
	_, _, _, _, drops, _ := a.nic.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestFlowSteering(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	b := newNode(env, "b", -1, false)
	Connect(a.nic, b.nic)

	// Configure a second queue on b and steer the test flow to it.
	_, recv1, _ := b.nic.NewQueuePair(b.hostPort, "b-q1", mem.HostDRAM, 1, 64, -1, false)
	recv1.Post([]RecvBD{{Addr: b.dram.Alloc(2048, 64), Len: 2048}})
	recv1.RingDoorbell()
	b.nic.SetSteering(testFlow().Tuple(), 1)

	postRecv(b, 4, 2048) // queue 0 buffers, should stay unused
	env.Spawn("tx", func(p *sim.Proc) { sendJob(a, testFlow(), 0, []byte("steered"), false) })
	env.Run(-1)

	if got := len(recv1.AppendPoll(nil)); got != 1 {
		t.Fatalf("queue 1 completions = %d", got)
	}
	if got := len(b.recv.AppendPoll(nil)); got != 0 {
		t.Fatalf("queue 0 completions = %d", got)
	}
}

func TestArmedIRQRaisedOnce(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	// Receiver uses MSI vector 5 on its own fabric.
	b := newNode(env, "b", 5, false)
	irqs := 0
	b.fab.OnMSI(5, func() { irqs++ })
	Connect(a.nic, b.nic)
	postRecv(b, 8, 2048)
	b.recv.Arm()
	env.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			sendJob(a, testFlow(), uint32(i*10), []byte("ping"), false)
		}
	})
	env.Run(-1)
	if irqs != 1 {
		t.Fatalf("IRQs = %d, want 1 (armed once)", irqs)
	}
	if got := len(b.recv.AppendPoll(nil)); got != 3 {
		t.Fatalf("completions = %d", got)
	}
	// Re-arm with work already pending fires immediately.
	b.recv.Arm()
	env.Run(-1)
	if irqs != 1 {
		// all completions consumed; no pending work, so no IRQ
		t.Fatalf("IRQs after re-arm = %d", irqs)
	}
}

func TestSendRingBackpressure(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	hdrAddr := a.dram.Alloc(ether.HeadersLen, 64)
	a.mm.Write(hdrAddr, ether.HeaderTemplate(testFlow(), 0, ether.FlagACK))
	// Fill the ring without letting the NIC drain (no Run yet).
	for i := 0; i < 512; i++ {
		err := a.send.Push([]SendBD{
			{Addr: hdrAddr, Len: ether.HeadersLen},
			{Addr: hdrAddr, Len: 1, Flags: SendFlagEnd},
		})
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := a.send.Push([]SendBD{{Addr: hdrAddr, Len: 1, Flags: SendFlagEnd}}); err == nil {
		t.Fatal("overfull ring accepted BD")
	}
}

func TestRecvRingOvercommit(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	_ = env
	var bds []RecvBD
	for i := 0; i < 1025; i++ {
		bds = append(bds, RecvBD{Addr: a.dram.Alloc(2048, 64), Len: 2048})
	}
	if err := a.recv.Post(bds); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestEffectiveThroughputNear9Gbps(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	b := newNode(env, "b", -1, false)
	Connect(a.nic, b.nic)
	const jobs = 16
	const jobSize = 64 << 10
	postRecv(b, jobs*46+8, 2048)
	env.Spawn("tx", func(p *sim.Proc) {
		payload := make([]byte, jobSize)
		for i := 0; i < jobs; i++ {
			sendJob(a, testFlow(), uint32(i*jobSize), payload, true)
			// Keep the ring from overflowing; the wire stays busy.
			for a.send.FreeSlots() < 900 {
				p.Sleep(10 * sim.Microsecond)
			}
		}
	})
	// Run to exhaustion: the final event is the last receive completion,
	// so the elapsed clock measures delivered payload throughput.
	end := env.Run(-1)
	gbps := float64(jobs*jobSize) * 8 / end.Seconds() / 1e9
	// Wire-effective ≈9.4 Gbps minus pipeline fill/drain bubbles.
	if gbps < 8.5 || gbps > 9.6 {
		t.Fatalf("effective throughput %.2f Gbps, want ≈9.4", gbps)
	}
	_, rx, _, rxPay, drops, errs := b.nic.Stats()
	if drops != 0 || errs != 0 {
		t.Fatalf("drops=%d errs=%d", drops, errs)
	}
	if rxPay != jobs*jobSize {
		t.Fatalf("rx payload = %d", rxPay)
	}
	_ = rx
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, sim.Time) {
		env := sim.NewEnv()
		a := newNode(env, "a", -1, false)
		b := newNode(env, "b", -1, false)
		Connect(a.nic, b.nic)
		postRecv(b, 64, 2048)
		env.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				sendJob(a, testFlow(), uint32(i*100), []byte("replay"), false)
				p.Sleep(3 * sim.Microsecond)
			}
		})
		end := env.Run(-1)
		_, rx, _, _, _, _ := b.nic.Stats()
		return rx, end
	}
	rx1, t1 := run()
	rx2, t2 := run()
	if rx1 != rx2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", rx1, t1, rx2, t2)
	}
}

func TestCorruptFrameDroppedByChecksum(t *testing.T) {
	// Failure injection: a frame corrupted in flight must be rejected
	// by the receive checksum verification, never delivered.
	env := sim.NewEnv()
	b := newNode(env, "b", -1, false)
	postRecv(b, 4, 2048)
	good := ether.Segment{Flow: testFlow(), Seq: 0, Flags: ether.FlagACK,
		Payload: []byte("intact payload")}
	frame := good.Marshal()
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-3] ^= 0x40
	// Deliver both directly to the device's receive path.
	b.nic.rxQ.Put(corrupt)
	b.nic.rxQ.Put(frame)
	env.Run(-1)
	_, rx, _, _, drops, errs := b.nic.Stats()
	if errs != 1 {
		t.Fatalf("rxErrors = %d, want 1", errs)
	}
	if rx != 1 || drops != 0 {
		t.Fatalf("rx=%d drops=%d", rx, drops)
	}
	fills := b.recv.AppendPoll(nil)
	if len(fills) != 1 {
		t.Fatalf("delivered %d frames", len(fills))
	}
	got := b.mm.Read(fills[0].Addr, int(fills[0].Cpl.HdrLen)+int(fills[0].Cpl.PayLen))
	if seg, err := ether.Parse(got); err != nil || string(seg.Payload) != "intact payload" {
		t.Fatalf("delivered frame wrong: %v %q", err, seg.Payload)
	}
}
