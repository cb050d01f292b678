package ether

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// sum16Reference is the plain big-endian 16-bit ones'-complement loop
// sum16 replaced. Its accumulator is widened to 64 bits so that a
// starting accumulator near 2^32 cannot wrap it; over the inputs the
// checksum callers pass (at most 64 KiB plus a pseudo-header sum) the
// old 32-bit accumulator never wrapped, so the two agree there.
func sum16Reference(b []byte, acc uint64) uint64 {
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		acc += v>>48 + v>>32&0xFFFF + v>>16&0xFFFF + v&0xFFFF
		b = b[8:]
	}
	for i := 0; i+1 < len(b); i += 2 {
		acc += uint64(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		acc += uint64(b[len(b)-1]) << 8
	}
	return acc
}

// foldReference folds a ones'-complement sum to 16 bits the way
// onesComplement does before inverting.
func foldReference(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return uint16(sum)
}

// foldKernel is sum16's result as the checksum callers see it.
func foldKernel(b []byte, acc uint32) uint16 { return ^onesComplement(sum16(b, acc)) }

// TestChecksumRFC1071Example checks the worked example of RFC 1071 §3:
// the words 0001 f203 f4f5 f6f7 sum to 2ddf0, fold to ddf2, and give
// the checksum 220d. The odd-length cases are the same bytes with the
// last one dropped, padded with a zero.
func TestChecksumRFC1071Example(t *testing.T) {
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := foldKernel(b, 0); got != 0xddf2 {
		t.Fatalf("folded sum = %#04x, want 0xddf2", got)
	}
	if got := onesComplement(sum16(b, 0)); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
	for n := 0; n <= len(b); n++ {
		if got, want := foldKernel(b[:n], 0), foldReference(sum16Reference(b[:n], 0)); got != want {
			t.Fatalf("%d-byte prefix: folded sum %#04x, reference %#04x", n, got, want)
		}
	}
}

// FuzzChecksumMatchesReference checks that sum16 folds to the same
// 16 bits as the reference loop for any bytes and any starting
// accumulator. Marshal and Parse share sum16, so a wrong but
// self-consistent checksum would pass FuzzSegmentRoundTrip; this
// target compares against an independent implementation.
func FuzzChecksumMatchesReference(f *testing.F) {
	ramp := make([]byte, 65)
	for i := range ramp {
		ramp[i] = byte(i*37 + 11)
	}
	for n := 0; n <= len(ramp); n++ {
		f.Add(ramp[:n], uint32(0))
	}
	for _, n := range []int{1, 3, 7, 31, 33, 63, 1479, 1481} {
		f.Add(bytes.Repeat([]byte{0xA5}, n), uint32(0x1234))
	}
	for _, n := range []int{0, 1, 2, 8, 32, 1480} {
		f.Add(make([]byte, n), uint32(0))
		f.Add(bytes.Repeat([]byte{0xFF}, n), uint32(0))
		f.Add(bytes.Repeat([]byte{0xFF}, n), uint32(0xFFFFFFFF))
	}
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	// The last add carries out of 64 bits: the carry must come back in.
	f.Add(append(bytes.Repeat([]byte{0xFF}, 8), 0x01), uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, acc uint32) {
		got := foldKernel(b, acc)
		want := foldReference(sum16Reference(b, uint64(acc)))
		if got != want {
			t.Fatalf("%d bytes, acc %#x: folded sum %#04x, reference %#04x", len(b), acc, got, want)
		}
	})
}

var checksumSink uint32

// BenchmarkChecksum times one 1,480-byte segment (an MSS of payload
// plus the TCP header) through sum16 and through the reference loop.
func BenchmarkChecksum(b *testing.B) {
	seg := make([]byte, MSS+TCPHeaderLen)
	for i := range seg {
		seg[i] = byte(i * 7)
	}
	b.Run("sum16", func(b *testing.B) {
		b.SetBytes(int64(len(seg)))
		for i := 0; i < b.N; i++ {
			checksumSink += sum16(seg, 0)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(seg)))
		for i := 0; i < b.N; i++ {
			checksumSink += uint32(sum16Reference(seg, 0))
		}
	})
}
