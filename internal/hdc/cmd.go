// Package hdc implements the paper's contribution: the Hardware-based
// Device-Control mechanism. It contains the HDC Engine (an FPGA device
// on its own PCIe port: command queue and parser, scoreboard, standard
// NVMe and NIC device controllers with queue pairs in on-chip BRAM,
// near-device processing units chained through 64 KB intermediate
// buffers in on-board DDR3, and an interrupt generator), the HDC
// Driver (the thin kernel module that resolves file/connection
// metadata and posts D2D commands), and the HDC Library (the
// sendfile-like user API).
package hdc

import (
	"encoding/binary"
	"fmt"
)

// ChunkSize is the engine's fixed intermediate-buffer block size
// (§IV-C: DDR3 "chunked into multiple fixed-size blocks (64KB)").
const ChunkSize = 64 << 10

// Device classes addressable by a D2D command operation.
const (
	ClassNone uint8 = 0
	ClassSSD  uint8 = 1
	ClassNIC  uint8 = 2
)

// NDP function identifiers carried in D2D commands.
const (
	FnNone   uint8 = 0
	FnMD5    uint8 = 1
	FnCRC32  uint8 = 2
	FnSHA1   uint8 = 3
	FnSHA256 uint8 = 4
	FnAES256 uint8 = 5
	FnGZIP   uint8 = 6
	FnGUNZIP uint8 = 7
)

// FnName returns the NDP unit name for a function id.
func FnName(fn uint8) string {
	switch fn {
	case FnNone:
		return "none"
	case FnMD5:
		return "md5"
	case FnCRC32:
		return "crc32"
	case FnSHA1:
		return "sha1"
	case FnSHA256:
		return "sha256"
	case FnAES256:
		return "aes256"
	case FnGZIP:
		return "gzip"
	case FnGUNZIP:
		return "gunzip"
	default:
		return fmt.Sprintf("fn(%d)", fn)
	}
}

// CommandSize is the fixed D2D command size; the 64-entry command
// queue is 4 KB (§IV-C).
const CommandSize = 64

// ExtentEntry is one LBA run in a host-memory extent table the engine
// fetches by DMA — the storage-side addressing of a D2D command.
type ExtentEntry struct {
	LBA    uint64
	Blocks uint32
}

// ExtentEntrySize is the wire size of one extent entry.
const ExtentEntrySize = 16

// EncodeExtents serializes an extent table.
func EncodeExtents(ext []ExtentEntry) []byte {
	out := make([]byte, len(ext)*ExtentEntrySize)
	for i, e := range ext {
		binary.LittleEndian.PutUint64(out[i*ExtentEntrySize:], e.LBA)
		binary.LittleEndian.PutUint32(out[i*ExtentEntrySize+8:], e.Blocks)
	}
	return out
}

// DecodeExtents parses count extent entries.
func DecodeExtents(raw []byte, count int) ([]ExtentEntry, error) {
	if len(raw) < count*ExtentEntrySize {
		return nil, fmt.Errorf("hdc: extent table short: %d bytes for %d entries", len(raw), count)
	}
	out := make([]ExtentEntry, count)
	for i := range out {
		out[i].LBA = binary.LittleEndian.Uint64(raw[i*ExtentEntrySize:])
		out[i].Blocks = binary.LittleEndian.Uint32(raw[i*ExtentEntrySize+8:])
	}
	return out, nil
}

// Command is a decoded D2D command: move Length bytes from the source
// device to the destination device, optionally through NDP function
// Fn. Storage endpoints address data by an extent table in host
// memory; network endpoints by a registered connection ID. An NDP
// digest returns in the completion entry's aux bytes.
type Command struct {
	ID       uint32
	SrcClass uint8
	DstClass uint8
	Fn       uint8
	SrcArg   uint64 // extent-table bus address (SSD) or connection ID (NIC)
	SrcCount uint32 // extent count (SSD endpoints)
	SrcDev   uint8  // SSD index for ClassSSD sources
	DstArg   uint64
	DstCount uint32
	DstDev   uint8 // SSD index for ClassSSD destinations
	Length   uint64
	AuxData  uint64 // function argument (e.g. key slot for AES)
}

// Encode serializes the command into its 64-byte wire format. Bytes
// 7, 21–23, 37–39 and 48–55 are reserved and encode as zero.
func (c *Command) Encode() [CommandSize]byte {
	var b [CommandSize]byte
	binary.LittleEndian.PutUint32(b[0:], c.ID)
	b[4] = c.SrcClass
	b[5] = c.DstClass
	b[6] = c.Fn
	binary.LittleEndian.PutUint64(b[8:], c.SrcArg)
	binary.LittleEndian.PutUint32(b[16:], c.SrcCount)
	b[20] = c.SrcDev
	binary.LittleEndian.PutUint64(b[24:], c.DstArg)
	binary.LittleEndian.PutUint32(b[32:], c.DstCount)
	b[36] = c.DstDev
	binary.LittleEndian.PutUint64(b[40:], c.Length)
	binary.LittleEndian.PutUint64(b[56:], c.AuxData)
	return b
}

// DecodeCommand parses a 64-byte D2D command; reserved bytes are
// ignored.
func DecodeCommand(raw []byte) (Command, error) {
	if len(raw) < CommandSize {
		return Command{}, fmt.Errorf("hdc: short D2D command (%d bytes)", len(raw))
	}
	return Command{
		ID:       binary.LittleEndian.Uint32(raw[0:]),
		SrcClass: raw[4],
		DstClass: raw[5],
		Fn:       raw[6],
		SrcArg:   binary.LittleEndian.Uint64(raw[8:]),
		SrcCount: binary.LittleEndian.Uint32(raw[16:]),
		SrcDev:   raw[20],
		DstArg:   binary.LittleEndian.Uint64(raw[24:]),
		DstCount: binary.LittleEndian.Uint32(raw[32:]),
		DstDev:   raw[36],
		Length:   binary.LittleEndian.Uint64(raw[40:]),
		AuxData:  binary.LittleEndian.Uint64(raw[56:]),
	}, nil
}

// validClass reports whether cl names a device class.
func validClass(cl uint8) bool { return cl == ClassSSD || cl == ClassNIC }

// Validate performs the structural checks the command parser applies
// before admitting a command to the scoreboard.
func (c *Command) Validate() error {
	if c.Length == 0 {
		return fmt.Errorf("hdc: command %d has zero length", c.ID)
	}
	if !validClass(c.SrcClass) || !validClass(c.DstClass) {
		return fmt.Errorf("hdc: command %d has invalid classes %d->%d", c.ID, c.SrcClass, c.DstClass)
	}
	if c.Fn > FnGUNZIP {
		return fmt.Errorf("hdc: command %d has unknown NDP function %d", c.ID, c.Fn)
	}
	if c.SrcClass == ClassSSD && c.SrcCount == 0 {
		return fmt.Errorf("hdc: command %d reads SSD without extents", c.ID)
	}
	if c.DstClass == ClassSSD && c.DstCount == 0 {
		return fmt.Errorf("hdc: command %d writes SSD without extents", c.ID)
	}
	return nil
}
