package nvme

import (
	"encoding/binary"
	"testing"

	"dcsctrl/internal/mem"
)

// FuzzCommandRoundTrip checks that any command survives the 64-byte
// SQE wire format: encode then decode yields the same fields.
func FuzzCommandRoundTrip(f *testing.F) {
	f.Add(uint8(OpRead), uint16(7), uint32(1), uint64(0x1000), uint64(0x2000), uint64(42), uint16(7))
	f.Add(uint8(OpWrite), uint16(0xFFFF), uint32(0xFFFFFFFF), uint64(0), uint64(1)<<63, uint64(1)<<40, uint16(0))
	f.Add(uint8(OpFlush), uint16(0), uint32(0), uint64(0), uint64(0), uint64(0), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, opcode uint8, cid uint16, nsid uint32, prp1, prp2, slba uint64, nlb uint16) {
		in := Command{
			Opcode: opcode, CID: cid, NSID: nsid,
			PRP1: mem.Addr(prp1), PRP2: mem.Addr(prp2),
			SLBA: slba, NLB: nlb,
		}
		enc := in.Encode()
		out, err := DecodeCommand(enc[:])
		if err != nil {
			t.Fatalf("decode of encoded command failed: %v", err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	})
}

// FuzzCommandDecode feeds arbitrary bytes to the SQE parser: it must
// never panic, and anything it accepts must re-encode losslessly.
func FuzzCommandDecode(f *testing.F) {
	seed := Command{Opcode: OpRead, CID: 3, NSID: 1, SLBA: 9, NLB: 1}
	enc := seed.Encode()
	f.Add(enc[:])
	f.Add([]byte{})
	f.Add(make([]byte, CommandSize))
	f.Add(make([]byte, CommandSize-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		cmd, err := DecodeCommand(b)
		if err != nil {
			return
		}
		re := cmd.Encode()
		cmd2, err := DecodeCommand(re[:])
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if cmd2 != cmd {
			t.Fatalf("re-decode mismatch:\n in: %+v\nout: %+v", cmd, cmd2)
		}
	})
}

// FuzzCompletionRoundTrip checks the 16-byte CQE wire format. The
// status field shares its word with the phase bit, so only 15 bits
// survive — the fuzzer masks accordingly.
func FuzzCompletionRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint16(1), uint16(2), uint16(3), uint16(StatusSuccess), true)
	f.Add(uint32(0xDEADBEEF), uint16(0xFFFF), uint16(0), uint16(0xABCD), uint16(StatusMediaErr), false)
	f.Fuzz(func(t *testing.T, result uint32, sqHead, sqID, cid, status uint16, phase bool) {
		in := Completion{
			Result: result, SQHead: sqHead, SQID: sqID, CID: cid,
			Status: status & 0x7FFF, Phase: phase,
		}
		enc := in.Encode()
		out, err := DecodeCompletion(enc[:])
		if err != nil {
			t.Fatalf("decode of encoded completion failed: %v", err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	})
}

// FuzzDataPages feeds arbitrary PRP fields to the PRP decoder against
// a small map: it must never panic. Anything it accepts is the
// command's page count led by PRP1, with a list tail decoded from
// bytes that lie inside one mapped region.
func FuzzDataPages(f *testing.F) {
	base := uint64(mem.NewMap().AddRegion("probe", mem.HostDRAM, 1, true).Base)
	f.Add(base, uint64(0), uint16(0))
	f.Add(base, base+4096, uint16(1))
	f.Add(base, base, uint16(7))
	f.Add(base, base+2*4096-8, uint16(3))
	f.Fuzz(func(t *testing.T, prp1, prp2 uint64, nlb uint16) {
		mm := mem.NewMap()
		dram := mm.AddRegion("dram", mem.HostDRAM, 2*4096, true)
		list := make([]byte, dram.Size)
		for i := range list {
			list[i] = byte(i * 7)
		}
		dram.WriteAt(0, list)
		cmd := Command{Opcode: OpRead, PRP1: mem.Addr(prp1), PRP2: mem.Addr(prp2), NLB: nlb}
		pages, err := DataPages(mm, cmd)
		if err != nil {
			return
		}
		if len(pages) != cmd.Blocks() || pages[0] != cmd.PRP1 {
			t.Fatalf("%+v: got %d pages led by %#x", cmd, len(pages), pages[0])
		}
		if len(pages) <= 2 {
			return
		}
		n := len(pages) - 1
		if !dram.Contains(cmd.PRP2) || cmd.PRP2+mem.Addr(8*n) > dram.End() {
			t.Fatalf("%+v: %d-entry list accepted outside %s", cmd, n, dram.Name)
		}
		raw := mm.Read(cmd.PRP2, 8*n)
		for i, pg := range pages[1:] {
			if want := mem.Addr(binary.LittleEndian.Uint64(raw[8*i:])); pg != want {
				t.Fatalf("%+v: entry %d = %#x, want %#x", cmd, i, pg, want)
			}
		}
	})
}
