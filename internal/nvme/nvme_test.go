package nvme

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

func TestCommandEncodeDecode(t *testing.T) {
	c := Command{
		Opcode: OpRead, CID: 0x1234, NSID: 1,
		PRP1: 0x1_0000_0000, PRP2: 0x2_0000_0000,
		SLBA: 0xdeadbeef, NLB: 15,
	}
	b := c.Encode()
	got, err := DecodeCommand(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip: %+v != %+v", got, c)
	}
	if c.Blocks() != 16 || c.Bytes() != 64<<10 {
		t.Fatalf("blocks=%d bytes=%d", c.Blocks(), c.Bytes())
	}
}

func TestCommandDecodeShort(t *testing.T) {
	if _, err := DecodeCommand(make([]byte, 10)); err == nil {
		t.Fatal("short SQE accepted")
	}
}

func TestCompletionEncodeDecode(t *testing.T) {
	for _, phase := range []bool{false, true} {
		c := Completion{Result: 7, SQHead: 3, SQID: 1, CID: 99, Status: StatusSuccess, Phase: phase}
		b := c.Encode()
		got, err := DecodeCompletion(b[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip: %+v != %+v", got, c)
		}
	}
}

// Property: command encode/decode is the identity on all field values.
func TestCommandRoundTripProperty(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, prp1, prp2, slba uint64, nlb uint16) bool {
		c := Command{Opcode: op, CID: cid, NSID: nsid,
			PRP1: mem.Addr(prp1), PRP2: mem.Addr(prp2), SLBA: slba, NLB: nlb}
		b := c.Encode()
		got, err := DecodeCommand(b[:])
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: completion encode/decode is the identity (status is 15
// bits on the wire).
func TestCompletionRoundTripProperty(t *testing.T) {
	f := func(res uint32, sqh, sqid, cid, status uint16, phase bool) bool {
		c := Completion{Result: res, SQHead: sqh, SQID: sqid, CID: cid,
			Status: status & 0x7fff, Phase: phase}
		b := c.Encode()
		got, err := DecodeCompletion(b[:])
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPRPs(t *testing.T) {
	mm := mem.NewMap()
	dram := mm.AddRegion("dram", mem.HostDRAM, 1<<20, true)
	list := dram.Alloc(4096, 4096)

	p1 := dram.Alloc(4096, 4096)
	a, b, err := BuildPRPs(mm, []mem.Addr{p1}, list)
	if err != nil || a != p1 || b != 0 {
		t.Fatalf("1 page: %v %v %v", a, b, err)
	}

	p2 := dram.Alloc(4096, 4096)
	a, b, err = BuildPRPs(mm, []mem.Addr{p1, p2}, list)
	if err != nil || a != p1 || b != p2 {
		t.Fatalf("2 pages: %v %v %v", a, b, err)
	}

	var pages []mem.Addr
	for i := 0; i < 5; i++ {
		pages = append(pages, dram.Alloc(4096, 4096))
	}
	a, b, err = BuildPRPs(mm, pages, list)
	if err != nil || a != pages[0] || b != list {
		t.Fatalf("5 pages: %v %v %v", a, b, err)
	}
	got, err := AppendPRPList(nil, mm, list, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages[1:] {
		if got[i] != pg {
			t.Fatalf("PRP list entry %d = %#x, want %#x", i, got[i], pg)
		}
	}

	if _, _, err := BuildPRPs(mm, nil, list); err == nil {
		t.Fatal("empty page list accepted")
	}
}

func TestDataPagesErrors(t *testing.T) {
	mm := mem.NewMap()
	dram := mm.AddRegion("dram", mem.HostDRAM, 4096, true)
	for _, tc := range []struct {
		name string
		cmd  Command
	}{
		{"2-block without PRP2", Command{NLB: 1, PRP1: 100, PRP2: 0}},
		{"8-block without PRP list", Command{NLB: 7, PRP1: 100, PRP2: 0}},
		{"PRP list at an unmapped address", Command{NLB: 3, PRP1: dram.Base, PRP2: 0x10}},
		{"PRP list past its region's end", Command{NLB: 3, PRP1: dram.Base, PRP2: dram.End() - 8}},
	} {
		if _, err := DataPages(mm, tc.cmd); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// testbed wires one SSD to a host with a driver-style ring.
type testbed struct {
	env  *sim.Env
	mm   *mem.Map
	fab  *pcie.Fabric
	ssd  *SSD
	ring *Ring
	dram *mem.Region
}

func newTestbed(t *testing.T, entries int, msi bool) *testbed {
	t.Helper()
	env := sim.NewEnv()
	mm := mem.NewMap()
	fab := pcie.NewFabric(env, mm, pcie.DefaultParams())
	hostPort := fab.AddPort("root-complex")
	dram := mm.AddRegion("host-dram", mem.HostDRAM, 64<<20, true)
	fab.Attach(hostPort, dram)
	ssd := NewSSD(env, fab, "nvme0", DefaultParams())

	vector := -1
	if msi {
		vector = 1
	}
	ring, cq := ssd.NewQueuePair(hostPort, "host", mem.HostDRAM, 1, entries, vector)
	if msi {
		fab.OnMSI(vector, func() { ring.ProcessCompletions() })
	} else {
		cq.SetWriteHook(func(off uint64, n int) { ring.ProcessCompletions() })
	}
	return &testbed{env: env, mm: mm, fab: fab, ssd: ssd, ring: ring, dram: dram}
}

// issue submits a command and returns a signal fired with its status.
func (tb *testbed) issue(cmd Command) *sim.Signal {
	sig := sim.NewSignal(tb.env)
	if _, err := tb.ring.Submit(cmd, func(cpl Completion) { sig.Fire(cpl.Status) }); err != nil {
		panic(err)
	}
	tb.ring.RingDoorbell()
	return sig
}

func TestReadSingleBlock(t *testing.T) {
	tb := newTestbed(t, 64, true)
	want := bytes.Repeat([]byte("dcs!"), BlockSize/4)
	tb.ssd.Preload(42, want)
	dst := tb.dram.Alloc(BlockSize, BlockSize)
	var status uint16
	tb.env.Spawn("driver", func(p *sim.Proc) {
		sig := tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: 42, NLB: 0})
		status = sig.Wait(p).(uint16)
	})
	tb.env.Run(-1)
	if status != StatusSuccess {
		t.Fatalf("status = %#x", status)
	}
	if got := tb.mm.Read(dst, BlockSize); !bytes.Equal(got, want) {
		t.Fatal("read data mismatch")
	}
}

func TestWriteThenReadBack(t *testing.T) {
	tb := newTestbed(t, 64, true)
	payload := bytes.Repeat([]byte{0xAB}, 2*BlockSize)
	src := tb.dram.Alloc(2*BlockSize, BlockSize)
	tb.mm.Write(src, payload)
	dst := tb.dram.Alloc(2*BlockSize, BlockSize)
	tb.env.Spawn("driver", func(p *sim.Proc) {
		w := tb.issue(Command{Opcode: OpWrite, NSID: 1, PRP1: src, PRP2: src + BlockSize, SLBA: 100, NLB: 1})
		if s := w.Wait(p).(uint16); s != StatusSuccess {
			t.Errorf("write status %#x", s)
		}
		r := tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, PRP2: dst + BlockSize, SLBA: 100, NLB: 1})
		if s := r.Wait(p).(uint16); s != StatusSuccess {
			t.Errorf("read status %#x", s)
		}
	})
	tb.env.Run(-1)
	if got := tb.mm.Read(dst, 2*BlockSize); !bytes.Equal(got, payload) {
		t.Fatal("write/read round trip mismatch")
	}
	if got := tb.ssd.PeekBlock(100); !bytes.Equal(got, payload[:BlockSize]) {
		t.Fatal("flash content mismatch")
	}
}

// TestPreloadKeepsImageByReference stages whole blocks and a short
// tail: every full block reads back as a subslice of the caller's
// array, and the tail as a private block zero-padded past the data.
// Staging by reference allocates nothing per block.
func TestPreloadKeepsImageByReference(t *testing.T) {
	for _, n := range []int{256 * BlockSize, 5000} {
		tb := newTestbed(t, 64, true)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*13 + 1)
		}
		tb.ssd.Preload(100, data)
		for off := 0; off < n; off += BlockSize {
			blk := tb.ssd.readBlock(100 + uint64(off/BlockSize))
			want := make([]byte, BlockSize)
			copy(want, data[off:])
			if !bytes.Equal(blk, want) {
				t.Fatalf("%d bytes: block at %d differs", n, off)
			}
			aliased := &blk[0] == &data[off]
			if full := off+BlockSize <= n; aliased != full {
				t.Fatalf("%d bytes: block at %d aliases the caller's array: %v, want %v", n, off, aliased, full)
			}
		}
	}

	tb := newTestbed(t, 64, true)
	data := make([]byte, 256*BlockSize)
	if allocs := testing.AllocsPerRun(10, func() { tb.ssd.Preload(0, data) }); allocs != 0 {
		t.Fatalf("a 256-block Preload allocates %v times", allocs)
	}
}

// overwriteStaged stages two two-block files from one slice, at LBAs
// 10 and 20, then overwrites LBA 11 with an NVMe write command. It
// returns the staged slice, a copy of its bytes, and the block written.
func overwriteStaged(t *testing.T, tb *testbed) (staged, orig, written []byte) {
	t.Helper()
	staged = bytes.Repeat([]byte("img!"), 2*BlockSize/4)
	staged[BlockSize] = 'I'
	orig = bytes.Clone(staged)
	tb.ssd.Preload(10, staged)
	tb.ssd.Preload(20, staged)
	written = bytes.Repeat([]byte{0x5A}, BlockSize)
	src := tb.dram.Alloc(BlockSize, BlockSize)
	tb.mm.Write(src, written)
	tb.env.Spawn("driver", func(p *sim.Proc) {
		if s := tb.issue(Command{Opcode: OpWrite, NSID: 1, PRP1: src, SLBA: 11, NLB: 0}).Wait(p).(uint16); s != StatusSuccess {
			t.Errorf("write status %#x", s)
		}
	})
	tb.env.Run(-1)
	return staged, orig, written
}

// TestWriteOverStagedBlockIsPrivate checks copy-on-write: a write to
// a staged LBA lands in a block of its own, so neither the caller's
// slice nor another file staged from it changes.
func TestWriteOverStagedBlockIsPrivate(t *testing.T) {
	tb := newTestbed(t, 64, true)
	staged, orig, written := overwriteStaged(t, tb)
	if got := tb.ssd.PeekBlock(11); !bytes.Equal(got, written) {
		t.Fatal("overwritten LBA does not read the written block")
	}
	if !bytes.Equal(staged, orig) {
		t.Fatal("the write changed the caller's staged slice")
	}
	for _, b := range []struct {
		lba uint64
		off int
	}{{10, 0}, {20, 0}, {21, BlockSize}} {
		if got := tb.ssd.PeekBlock(b.lba); !bytes.Equal(got, orig[b.off:b.off+BlockSize]) {
			t.Fatalf("LBA %d changed", b.lba)
		}
	}
}

// TestSnapshotEncodesImageUnderWrites round-trips an SSD holding image
// blocks and a written block over one of them: the load restores the
// union as written blocks, the written block winning, and saving the
// restored SSD gives the same bytes.
func TestSnapshotEncodesImageUnderWrites(t *testing.T) {
	tb := newTestbed(t, 64, true)
	_, orig, written := overwriteStaged(t, tb)
	save := func(s *SSD) []byte {
		c := snap.NewSaver(snap.Header{Version: snap.Version})
		c.Section("ssd")
		s.Snap(c)
		c.EndSection()
		data, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := save(tb.ssd)

	fresh := newTestbed(t, 64, true)
	lc, _, err := snap.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	lc.Section("ssd")
	fresh.ssd.Snap(lc)
	lc.EndSection()
	if err := lc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fresh.ssd.image) != 0 {
		t.Fatalf("restored SSD keeps %d image blocks", len(fresh.ssd.image))
	}
	want := map[uint64][]byte{10: orig[:BlockSize], 11: written, 20: orig[:BlockSize], 21: orig[BlockSize:]}
	if len(fresh.ssd.flash) != len(want) {
		t.Fatalf("restored SSD holds %d written blocks, want %d", len(fresh.ssd.flash), len(want))
	}
	for _, lba := range sim.SortedKeys(want) {
		if !bytes.Equal(fresh.ssd.flash[lba], want[lba]) {
			t.Fatalf("restored LBA %d differs", lba)
		}
	}
	if !bytes.Equal(save(fresh.ssd), data) {
		t.Fatal("saving the restored SSD gives different bytes")
	}
}

func TestReadWithPRPList(t *testing.T) {
	tb := newTestbed(t, 64, true)
	const blocks = 16
	want := make([]byte, blocks*BlockSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	tb.ssd.Preload(500, want)
	// Scattered destination pages.
	var pages []mem.Addr
	for i := 0; i < blocks; i++ {
		pages = append(pages, tb.dram.Alloc(BlockSize, BlockSize))
		tb.dram.Alloc(BlockSize, BlockSize) // hole between pages
	}
	list := tb.dram.Alloc(4096, 4096)
	prp1, prp2, err := BuildPRPs(tb.mm, pages, list)
	if err != nil {
		t.Fatal(err)
	}
	tb.env.Spawn("driver", func(p *sim.Proc) {
		sig := tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: prp1, PRP2: prp2, SLBA: 500, NLB: blocks - 1})
		if s := sig.Wait(p).(uint16); s != StatusSuccess {
			t.Errorf("status %#x", s)
		}
	})
	tb.env.Run(-1)
	for i, pg := range pages {
		if got := tb.mm.Read(pg, BlockSize); !bytes.Equal(got, want[i*BlockSize:(i+1)*BlockSize]) {
			t.Fatalf("page %d mismatch", i)
		}
	}
}

func TestReadUnwrittenReturnsZeroes(t *testing.T) {
	tb := newTestbed(t, 64, true)
	dst := tb.dram.Alloc(BlockSize, BlockSize)
	tb.mm.Write(dst, bytes.Repeat([]byte{0xFF}, BlockSize))
	tb.env.Spawn("driver", func(p *sim.Proc) {
		tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: 999999, NLB: 0}).Wait(p)
	})
	tb.env.Run(-1)
	if got := tb.mm.Read(dst, BlockSize); !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block not zeroes")
	}
}

func TestInvalidOpcodeStatus(t *testing.T) {
	tb := newTestbed(t, 64, true)
	var status uint16
	tb.env.Spawn("driver", func(p *sim.Proc) {
		status = tb.issue(Command{Opcode: 0x7F, NSID: 1, PRP1: tb.dram.Base, SLBA: 0, NLB: 0}).Wait(p).(uint16)
	})
	tb.env.Run(-1)
	if status != StatusInvalidOp {
		t.Fatalf("status = %#x", status)
	}
}

func TestOversizeCommandRejected(t *testing.T) {
	tb := newTestbed(t, 64, true)
	var status uint16
	tb.env.Spawn("driver", func(p *sim.Proc) {
		status = tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: tb.dram.Base, SLBA: 0, NLB: MaxBlocksPerCmd}).Wait(p).(uint16)
	})
	tb.env.Run(-1)
	if status != StatusInvalidPRP {
		t.Fatalf("status = %#x", status)
	}
}

// A host-posted PRP list pointer or data page that lies outside mapped
// memory fails the command with StatusInvalidPRP instead of crashing
// the device model.
func TestBadPRPStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func(dram *mem.Region) Command
	}{
		{"unmapped PRP list", func(d *mem.Region) Command {
			return Command{PRP1: d.Base, PRP2: 0x10, NLB: 3}
		}},
		{"PRP list past its region's end", func(d *mem.Region) Command {
			return Command{PRP1: d.Base, PRP2: d.End() - 8, NLB: 3}
		}},
		{"data page past its region's end", func(d *mem.Region) Command {
			return Command{PRP1: d.End() - 100, NLB: 0}
		}},
	} {
		tb := newTestbed(t, 64, true)
		cmd := tc.cmd(tb.dram)
		cmd.Opcode, cmd.NSID = OpRead, 1
		var status uint16
		tb.env.Spawn("driver", func(p *sim.Proc) {
			status = tb.issue(cmd).Wait(p).(uint16)
		})
		tb.env.Run(-1)
		if status != StatusInvalidPRP {
			t.Errorf("%s: status = %#x, want StatusInvalidPRP", tc.name, status)
		}
	}
}

func TestCompletionByCQWriteHookNoMSI(t *testing.T) {
	// HDC Engine mode: no interrupt, the submitter snoops its CQ memory.
	tb := newTestbed(t, 64, false)
	tb.ssd.Preload(7, bytes.Repeat([]byte{1}, BlockSize))
	dst := tb.dram.Alloc(BlockSize, BlockSize)
	done := false
	tb.env.Spawn("driver", func(p *sim.Proc) {
		tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: 7, NLB: 0}).Wait(p)
		done = true
	})
	tb.env.Run(-1)
	if !done {
		t.Fatal("completion not observed without MSI")
	}
}

func TestManyCommandsWrapRing(t *testing.T) {
	tb := newTestbed(t, 8, true) // tiny ring forces wrap + phase flips
	const n = 100
	completed := 0
	tb.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			for tb.ring.Full() {
				p.Sleep(5 * sim.Microsecond)
			}
			dst := tb.dram.Alloc(BlockSize, BlockSize)
			sig := tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: uint64(i), NLB: 0})
			_ = sig
			completed++
		}
		// Drain.
		for tb.ring.Outstanding() > 0 {
			p.Sleep(10 * sim.Microsecond)
		}
	})
	tb.env.Run(-1)
	if completed != n {
		t.Fatalf("submitted %d/%d", completed, n)
	}
	if tb.ring.Outstanding() != 0 {
		t.Fatalf("%d still outstanding", tb.ring.Outstanding())
	}
	cmds, _, _ := tb.ssd.Stats()
	if cmds != n {
		t.Fatalf("device completed %d", cmds)
	}
}

func TestConcurrentCommandsOverlap(t *testing.T) {
	// With 4 channels, 4 reads should take much less than 4× one read.
	one := func(n int) sim.Time {
		tb := newTestbed(t, 64, true)
		var last sim.Time
		tb.env.Spawn("driver", func(p *sim.Proc) {
			sigs := make([]*sim.Signal, n)
			for i := 0; i < n; i++ {
				dst := tb.dram.Alloc(BlockSize, BlockSize)
				sigs[i] = tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: uint64(i), NLB: 0})
			}
			for _, s := range sigs {
				s.Wait(p)
			}
			last = p.Now()
		})
		tb.env.Run(-1)
		return last
	}
	t1, t4 := one(1), one(4)
	if t4 >= 3*t1 {
		t.Fatalf("no overlap: 1 cmd %v, 4 cmds %v", t1, t4)
	}
}

func TestRingFullReported(t *testing.T) {
	tb := newTestbed(t, 4, true)
	tb.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := tb.ring.Submit(Command{Opcode: OpRead, NSID: 1, PRP1: tb.dram.Base, SLBA: 0}, nil); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		if !tb.ring.Full() {
			t.Error("ring not full at entries-1")
		}
		if _, err := tb.ring.Submit(Command{Opcode: OpRead, NSID: 1, PRP1: tb.dram.Base}, nil); err == nil {
			t.Error("submit to full ring succeeded")
		}
	})
	tb.env.Run(20 * sim.Microsecond)
}

func TestThroughputApproachesFlashBandwidth(t *testing.T) {
	tb := newTestbed(t, 256, true)
	const total = 64 // 64 × 64 KB = 4 MB
	var end sim.Time
	tb.env.Spawn("driver", func(p *sim.Proc) {
		outstanding := 0
		done := sim.NewQueue[int](tb.env, "done")
		issued := 0
		for issued < total || outstanding > 0 {
			for issued < total && outstanding < 16 && !tb.ring.Full() {
				var pages []mem.Addr
				for b := 0; b < 16; b++ {
					pages = append(pages, tb.dram.Alloc(BlockSize, BlockSize))
				}
				list := tb.dram.Alloc(4096, 4096)
				prp1, prp2, _ := BuildPRPs(tb.mm, pages, list)
				tb.ring.Submit(Command{Opcode: OpRead, NSID: 1, PRP1: prp1, PRP2: prp2,
					SLBA: uint64(issued * 16), NLB: 15}, func(Completion) { done.Put(1) })
				issued++
				outstanding++
			}
			tb.ring.RingDoorbell()
			done.Get(p)
			outstanding--
		}
		end = p.Now()
	})
	tb.env.Run(-1)
	gbps := float64(total*64<<10) * 8 / end.Seconds() / 1e9
	// Internal flash read bandwidth is 17.2 Gbps; expect to get most
	// of it with queue depth 16.
	if gbps < 12 || gbps > 17.3 {
		t.Fatalf("read throughput %.1f Gbps, want ~17", gbps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		tb := newTestbed(t, 32, true)
		var log []string
		tb.env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				dst := tb.dram.Alloc(BlockSize, BlockSize)
				s := tb.issue(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: uint64(i), NLB: 0})
				s.Wait(p)
				log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
			}
		})
		tb.env.Run(-1)
		return fmt.Sprint(log)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestFlushCommand(t *testing.T) {
	tb := newTestbed(t, 64, true)
	var status uint16
	var took sim.Time
	tb.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		status = tb.issue(Command{Opcode: OpFlush, NSID: 1}).Wait(p).(uint16)
		took = p.Now() - start
	})
	tb.env.Run(-1)
	if status != StatusSuccess {
		t.Fatalf("flush status %#x", status)
	}
	if took < DefaultParams().WriteLatency {
		t.Fatalf("flush took %v, under the media latency", took)
	}
}

// TestRingRestoreRejectsCursorOutsideRing loads submitter rings whose
// SQ tail or CQ head lies outside the ring's entries: the restore must
// fail instead of posting commands outside the SQ.
func TestRingRestoreRejectsCursorOutsideRing(t *testing.T) {
	const entries = 4
	for _, tc := range []struct{ sqTail, cqHead int }{{entries, 0}, {0, entries}, {-1, 0}} {
		c := snap.NewSaver(snap.Header{Version: snap.Version})
		phase, cid := true, uint16(0)
		c.Section("ring")
		c.Int(&tc.sqTail)
		c.Int(&tc.cqHead)
		c.Bool(&phase)
		c.U16(&cid)
		c.EndSection()
		data, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		lc, _, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		lc.Section("ring")
		newTestbed(t, entries, false).ring.Snap(lc)
		lc.EndSection()
		if err := lc.Err(); err == nil || !strings.Contains(err.Error(), "outside its") {
			t.Errorf("SQ tail %d, CQ head %d: restore error %v", tc.sqTail, tc.cqHead, err)
		}
	}
}

// TestIOCommandMatchesBuildPRPs checks the command builder both
// submitters use against BuildPRPs over the same contiguous pages: the
// same SQE and the same PRP list, and no list write for a command that
// fits in PRP1 and PRP2.
func TestIOCommandMatchesBuildPRPs(t *testing.T) {
	mm := mem.NewMap()
	r := mm.AddRegion("dram", mem.HostDRAM, 1<<20, true)
	buf := r.Alloc(MaxBlocksPerCmd*BlockSize, BlockSize)
	list := r.Alloc(BlockSize, BlockSize)
	sentinel := bytes.Repeat([]byte{0xEE}, BlockSize)
	for blocks := 1; blocks <= MaxBlocksPerCmd; blocks++ {
		for _, write := range []bool{false, true} {
			mm.Write(list, sentinel)
			got, err := IOCommand(mm, write, 77, buf, blocks, list)
			if err != nil {
				t.Fatalf("%d blocks: %v", blocks, err)
			}
			gotList := mm.Read(list, BlockSize)
			if !NeedsPRPList(blocks) && !bytes.Equal(gotList, sentinel) {
				t.Fatalf("%d blocks: wrote a PRP list it does not need", blocks)
			}

			pages := make([]mem.Addr, blocks)
			for i := range pages {
				pages[i] = buf + mem.Addr(i*BlockSize)
			}
			mm.Write(list, sentinel)
			prp1, prp2, err := BuildPRPs(mm, pages, list)
			if err != nil {
				t.Fatal(err)
			}
			op := OpRead
			if write {
				op = OpWrite
			}
			want := Command{Opcode: op, NSID: 1, PRP1: prp1, PRP2: prp2, SLBA: 77, NLB: uint16(blocks - 1)}
			if got.Encode() != want.Encode() {
				t.Fatalf("%d blocks, write=%v: SQE %+v, want %+v", blocks, write, got, want)
			}
			if !bytes.Equal(gotList, mm.Read(list, BlockSize)) {
				t.Fatalf("%d blocks: PRP list differs from BuildPRPs", blocks)
			}
		}
	}
	for _, blocks := range []int{0, MaxBlocksPerCmd + 1} {
		if _, err := IOCommand(mm, false, 0, buf, blocks, list); err == nil {
			t.Fatalf("%d-block command accepted", blocks)
		}
	}
}
