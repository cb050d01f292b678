// Package nvme implements the NVM Express machinery the testbed needs
// at wire-format fidelity: 64-byte submission commands, 16-byte
// completions with phase bits, PRP lists, submission/completion rings
// with doorbells, and an SSD device model with a flash backend that
// stores real bytes (calibrated to the Intel 750 of Table V).
//
// The same code serves both submitters the paper compares, the host
// NVMe driver (software control path) and the HDC Engine's NVMe device
// controller (hardware control path, rings in FPGA BRAM): the Ring,
// the I/O command builder (IOCommand) and the retry policy
// (MaxRetries, RetryBackoff). Who pays the submission cost — CPU
// cycles or FPGA cycles — is decided by the caller, which is precisely
// the paper's point.
package nvme

import (
	"encoding/binary"
	"fmt"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// Command sizes and block geometry.
const (
	CommandSize    = 64   // submission queue entry size
	CompletionSize = 16   // completion queue entry size
	BlockSize      = 4096 // logical block size
	// MaxBlocksPerCmd caps one command at 16 blocks (64 KB), matching
	// the HDC Engine's chunk size; longer transfers use multiple
	// commands with PRP lists (§IV-C).
	MaxBlocksPerCmd = 16
)

// Opcodes (NVM command set).
const (
	OpFlush uint8 = 0x00
	OpWrite uint8 = 0x01
	OpRead  uint8 = 0x02
)

// Command is a decoded NVMe submission queue entry.
type Command struct {
	Opcode uint8
	CID    uint16
	NSID   uint32
	PRP1   mem.Addr
	PRP2   mem.Addr
	SLBA   uint64
	NLB    uint16 // 0-based: NLB=0 means one block
}

// Blocks returns the number of logical blocks the command covers.
func (c *Command) Blocks() int { return int(c.NLB) + 1 }

// Bytes returns the transfer length in bytes.
func (c *Command) Bytes() int { return c.Blocks() * BlockSize }

// Encode serializes the command into the 64-byte SQE wire format
// (the field offsets of NVMe 1.2 §4.2).
func (c *Command) Encode() [CommandSize]byte {
	var b [CommandSize]byte
	b[0] = c.Opcode
	binary.LittleEndian.PutUint16(b[2:], c.CID)
	binary.LittleEndian.PutUint32(b[4:], c.NSID)
	binary.LittleEndian.PutUint64(b[24:], uint64(c.PRP1))
	binary.LittleEndian.PutUint64(b[32:], uint64(c.PRP2))
	binary.LittleEndian.PutUint64(b[40:], c.SLBA) // CDW10-11
	binary.LittleEndian.PutUint16(b[48:], c.NLB)  // CDW12 bits 15:0
	return b
}

// DecodeCommand parses a 64-byte SQE.
func DecodeCommand(b []byte) (Command, error) {
	if len(b) < CommandSize {
		return Command{}, fmt.Errorf("nvme: short SQE (%d bytes)", len(b))
	}
	return Command{
		Opcode: b[0],
		CID:    binary.LittleEndian.Uint16(b[2:]),
		NSID:   binary.LittleEndian.Uint32(b[4:]),
		PRP1:   mem.Addr(binary.LittleEndian.Uint64(b[24:])),
		PRP2:   mem.Addr(binary.LittleEndian.Uint64(b[32:])),
		SLBA:   binary.LittleEndian.Uint64(b[40:]),
		NLB:    binary.LittleEndian.Uint16(b[48:]),
	}, nil
}

// Status codes (generic command status, plus the media-error status
// of the media-errors status-code type).
const (
	StatusSuccess     uint16 = 0x0
	StatusInvalidOp   uint16 = 0x1
	StatusInvalidPRP  uint16 = 0x13
	StatusInternalErr uint16 = 0x6
	// StatusMediaErr is an uncorrectable media error (SCT 2h, SC 81h
	// packed into the 8-bit-status convention the testbed uses). The
	// command failed on this attempt but did not move or corrupt
	// data, so re-issuing it is safe.
	StatusMediaErr uint16 = 0x81
)

// Retryable reports whether a completion status is transient: the
// command may succeed if re-issued. Protocol errors (bad opcode, bad
// PRP) are deterministic and never retried.
func Retryable(status uint16) bool { return status == StatusMediaErr }

// Retry policy of both submitters, the host driver and the HDC
// Engine's controller: a command that completes with a Retryable
// status is re-issued at most MaxRetries times, retry k (from 0)
// after a backoff of RetryBackoff<<k. The media error is injected
// before the SSD moves data or commits flash, so a re-issue of the
// same command, PRP list included, is idempotent.
const (
	MaxRetries   = 4
	RetryBackoff = 5 * sim.Microsecond
)

// Completion is a decoded NVMe completion queue entry.
type Completion struct {
	Result uint32 // command-specific result (DW0)
	SQHead uint16
	SQID   uint16
	CID    uint16
	Status uint16 // status code, excluding the phase bit
	Phase  bool
}

// Encode serializes the completion into the 16-byte CQE wire format.
func (c *Completion) Encode() [CompletionSize]byte {
	var b [CompletionSize]byte
	binary.LittleEndian.PutUint32(b[0:], c.Result)
	binary.LittleEndian.PutUint16(b[8:], c.SQHead)
	binary.LittleEndian.PutUint16(b[10:], c.SQID)
	binary.LittleEndian.PutUint16(b[12:], c.CID)
	sf := c.Status << 1
	if c.Phase {
		sf |= 1
	}
	binary.LittleEndian.PutUint16(b[14:], sf)
	return b
}

// DecodeCompletion parses a 16-byte CQE.
func DecodeCompletion(b []byte) (Completion, error) {
	if len(b) < CompletionSize {
		return Completion{}, fmt.Errorf("nvme: short CQE (%d bytes)", len(b))
	}
	sf := binary.LittleEndian.Uint16(b[14:])
	return Completion{
		Result: binary.LittleEndian.Uint32(b[0:]),
		SQHead: binary.LittleEndian.Uint16(b[8:]),
		SQID:   binary.LittleEndian.Uint16(b[10:]),
		CID:    binary.LittleEndian.Uint16(b[12:]),
		Status: sf >> 1,
		Phase:  sf&1 == 1,
	}, nil
}

// NeedsPRPList reports whether an I/O command of the given block count
// carries a PRP list: one or two pages fit in PRP1 and PRP2.
func NeedsPRPList(blocks int) bool { return blocks > 2 }

// IOCommand builds the namespace-1 read command, or write command when
// write is set, that moves blocks logical blocks at lba to or from the
// contiguous buffer at buf. A command that NeedsPRPList writes its PRP
// list into the page at list; any other ignores list.
func IOCommand(mm *mem.Map, write bool, lba uint64, buf mem.Addr, blocks int, list mem.Addr) (Command, error) {
	if blocks < 1 || blocks > MaxBlocksPerCmd {
		return Command{}, fmt.Errorf("nvme: %d-block command (limit %d)", blocks, MaxBlocksPerCmd)
	}
	var pages [MaxBlocksPerCmd]mem.Addr
	for i := 0; i < blocks; i++ {
		pages[i] = buf + mem.Addr(i*BlockSize)
	}
	prp1, prp2, err := BuildPRPs(mm, pages[:blocks], list)
	if err != nil {
		return Command{}, err
	}
	op := OpRead
	if write {
		op = OpWrite
	}
	return Command{Opcode: op, NSID: 1, PRP1: prp1, PRP2: prp2, SLBA: lba, NLB: uint16(blocks - 1)}, nil
}

// BuildPRPs lays out the PRP fields for a transfer covering the given
// data pages. Following NVMe 1.2 §4.3: one page goes in PRP1; two
// pages use PRP1+PRP2 directly; more than two put a PRP list in
// listBuf (which must hold 8 bytes per remaining page) and point PRP2
// at it. It returns PRP1, PRP2.
func BuildPRPs(mm *mem.Map, pages []mem.Addr, listBuf mem.Addr) (mem.Addr, mem.Addr, error) {
	switch {
	case len(pages) == 0:
		return 0, 0, fmt.Errorf("nvme: no data pages")
	case len(pages) == 1:
		return pages[0], 0, nil
	case len(pages) == 2:
		return pages[0], pages[1], nil
	default:
		// Commands are capped at MaxBlocksPerCmd pages, so the list
		// fits a stack buffer; longer lists (none in the testbed) fall
		// back to the heap.
		var stack [8 * (MaxBlocksPerCmd - 1)]byte
		buf := stack[:]
		if need := 8 * (len(pages) - 1); need <= len(buf) {
			buf = buf[:need]
		} else {
			//dcslint:allow noalloc fallback for lists past MaxBlocksPerCmd pages, which no device model builds
			buf = make([]byte, need)
		}
		for i, pg := range pages[1:] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(pg))
		}
		mm.Write(listBuf, buf)
		return pages[0], listBuf, nil
	}
}

// AppendPRPList decodes n page addresses from a PRP list at addr and
// appends them to dst, straight out of a memory view: it allocates
// nothing when dst has capacity. The list pointer comes from a submitted command, so a list
// at an unmapped address, or one running past its region's end, is an
// error.
func AppendPRPList(dst []mem.Addr, mm *mem.Map, addr mem.Addr, n int) ([]mem.Addr, error) {
	r, off, err := mm.Resolve(addr)
	if err != nil {
		return nil, fmt.Errorf("nvme: PRP list: %w", err)
	}
	if n < 0 || off+8*uint64(n) > r.Size {
		return nil, fmt.Errorf("nvme: %d-entry PRP list at %#x runs past the end of %s", n, uint64(addr), r.Name)
	}
	raw := r.Bytes(off, 8*n)
	for i := 0; i < n; i++ {
		//dcslint:allow noalloc device models pass a MaxBlocksPerCmd-capacity page scratch reset to [:0]
		dst = append(dst, mem.Addr(binary.LittleEndian.Uint64(raw[8*i:])))
	}
	return dst, nil
}

// DataPages resolves a command's PRP fields to the full page list.
func DataPages(mm *mem.Map, cmd Command) ([]mem.Addr, error) {
	return AppendDataPages(nil, mm, cmd)
}

// AppendDataPages is DataPages into a caller-owned scratch slice, the
// allocation-free form device models use per command.
func AppendDataPages(dst []mem.Addr, mm *mem.Map, cmd Command) ([]mem.Addr, error) {
	n := cmd.Blocks()
	switch {
	case n == 1:
		//dcslint:allow noalloc device models pass a MaxBlocksPerCmd-capacity page scratch reset to [:0]
		return append(dst, cmd.PRP1), nil
	case n == 2:
		if cmd.PRP2 == 0 {
			return nil, fmt.Errorf("nvme: 2-block command without PRP2")
		}
		//dcslint:allow noalloc see above
		return append(dst, cmd.PRP1, cmd.PRP2), nil
	default:
		if cmd.PRP2 == 0 {
			return nil, fmt.Errorf("nvme: %d-block command without PRP list", n)
		}
		//dcslint:allow noalloc see above
		return AppendPRPList(append(dst, cmd.PRP1), mm, cmd.PRP2, n-1)
	}
}
