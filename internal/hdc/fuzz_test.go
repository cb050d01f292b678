package hdc

import (
	"bytes"
	"slices"
	"testing"
)

// commandReserved are the D2D command bytes the format does not
// define; Encode writes them as zero.
var commandReserved = []int{7, 21, 22, 23, 37, 38, 39, 48, 49, 50, 51, 52, 53, 54, 55}

// FuzzDecodeCommand feeds arbitrary bytes to the engine's command
// parser: it must never panic, it must reject anything shorter than a
// command, and a decoded command must re-encode to its input with the
// reserved bytes zeroed.
func FuzzDecodeCommand(f *testing.F) {
	seed := Command{ID: 9, SrcClass: ClassSSD, DstClass: ClassNIC, Fn: FnMD5,
		SrcArg: 0x4000, SrcCount: 3, SrcDev: 1, DstArg: 7, Length: 256 << 10, AuxData: 2}
	enc := seed.Encode()
	f.Add(enc[:])
	f.Fuzz(func(t *testing.T, raw []byte) {
		cmd, err := DecodeCommand(raw)
		if len(raw) < CommandSize {
			if err == nil {
				t.Fatalf("%d-byte command decoded", len(raw))
			}
			return
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		want := bytes.Clone(raw[:CommandSize])
		for _, i := range commandReserved {
			want[i] = 0
		}
		if got := cmd.Encode(); !bytes.Equal(got[:], want) {
			t.Fatalf("re-encoded\n %x\nwant\n %x", got, want)
		}
	})
}

// FuzzDecodeExtents feeds arbitrary bytes and any extent count the
// engine admits (0–256) to the extent-table parser: it must never
// panic, it must reject a table shorter than count entries, and
// whatever it decodes must round-trip through EncodeExtents.
func FuzzDecodeExtents(f *testing.F) {
	f.Add(EncodeExtents([]ExtentEntry{{LBA: 100, Blocks: 16}, {LBA: 1 << 40, Blocks: 1}}), uint16(2))
	f.Fuzz(func(t *testing.T, raw []byte, countRaw uint16) {
		count := int(countRaw) % 257
		ext, err := DecodeExtents(raw, count)
		n := count * ExtentEntrySize
		if len(raw) < n {
			if err == nil {
				t.Fatalf("%d bytes decoded as %d entries", len(raw), count)
			}
			return
		}
		if err != nil || len(ext) != count {
			t.Fatalf("decode of %d entries: %d entries, %v", count, len(ext), err)
		}
		want := bytes.Clone(raw[:n])
		for i := 12; i < n; i += ExtentEntrySize {
			clear(want[i : i+4]) // each entry's padding
		}
		re := EncodeExtents(ext)
		if !bytes.Equal(re, want) {
			t.Fatalf("re-encoded\n %x\nwant\n %x", re, want)
		}
		if again, err := DecodeExtents(re, count); err != nil || !slices.Equal(again, ext) {
			t.Fatalf("decode(encode) = %v, %v; want %v", again, err, ext)
		}
	})
}
