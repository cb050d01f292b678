// Package nic models a Broadcom BCM57711-class 10-GbE NIC: send and
// receive buffer-descriptor rings in submitter memory, doorbells,
// large send offload with checksum offload, optional header/data
// split on receive, flow steering, armed (NAPI-style) interrupts, and
// a serializing 10 Gbps wire to a peer NIC. Frames are real bytes
// built and verified by the ether package.
//
// The submitter side serves both submitters the paper compares, the
// host NIC driver and the HDC Engine's NIC controller (rings in FPGA
// BRAM): SendRing and RecvRing, the LSO chain builder
// (AppendLSOChain) and transmit-fetch tracking (SendRing.Track and
// Sweep). The two differ only in whose cycles pay for the work.
package nic

import (
	"encoding/binary"
	"fmt"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
)

// Descriptor sizes.
const (
	SendBDSize  = 16
	RecvBDSize  = 16
	RecvCplSize = 16
)

// Send BD flags.
const (
	SendFlagEnd uint16 = 1 << 0 // last BD of a packet chain
	SendFlagLSO uint16 = 1 << 1 // first BD: segment the chain's payload
)

// SendBD describes one transmit buffer fragment.
type SendBD struct {
	Addr  mem.Addr
	Len   uint16
	Flags uint16
	MSS   uint16
}

// Encode serializes the BD.
//
//dcslint:hotpath
func (b *SendBD) Encode() [SendBDSize]byte {
	var out [SendBDSize]byte
	binary.LittleEndian.PutUint64(out[0:], uint64(b.Addr))
	binary.LittleEndian.PutUint16(out[8:], b.Len)
	binary.LittleEndian.PutUint16(out[10:], b.Flags)
	binary.LittleEndian.PutUint16(out[12:], b.MSS)
	return out
}

// lsoFrag is the largest payload fragment an LSO chain puts in one BD:
// BD lengths are 16-bit.
const lsoFrag = 32 << 10

// AppendLSOChain appends the BD chain of one large-send job to bds: a
// header BD for the hdrLen-byte header template at hdr, carrying
// SendFlagLSO and ether.MSS, then the n payload bytes at payload in
// BDs of at most 32 KB, with SendFlagEnd on the last BD.
func AppendLSOChain(bds []SendBD, hdr mem.Addr, hdrLen int, payload mem.Addr, n int) []SendBD {
	//dcslint:allow noalloc callers pass a capacity-preserving chain scratch reset to [:0] per job
	bds = append(bds, SendBD{Addr: hdr, Len: uint16(hdrLen), Flags: SendFlagLSO, MSS: ether.MSS})
	for off := 0; off < n; off += lsoFrag {
		//dcslint:allow noalloc see above
		bds = append(bds, SendBD{Addr: payload + mem.Addr(off), Len: uint16(min(n-off, lsoFrag))})
	}
	bds[len(bds)-1].Flags |= SendFlagEnd
	return bds
}

// DecodeSendBD parses a send BD.
//
//dcslint:hotpath
func DecodeSendBD(raw []byte) (SendBD, error) {
	if len(raw) < SendBDSize {
		return SendBD{}, fmt.Errorf("nic: short send BD")
	}
	return SendBD{
		Addr:  mem.Addr(binary.LittleEndian.Uint64(raw[0:])),
		Len:   binary.LittleEndian.Uint16(raw[8:]),
		Flags: binary.LittleEndian.Uint16(raw[10:]),
		MSS:   binary.LittleEndian.Uint16(raw[12:]),
	}, nil
}

// RecvBD posts one receive buffer.
type RecvBD struct {
	Addr mem.Addr
	Len  uint32
}

// Encode serializes the BD.
//
//dcslint:hotpath
func (b *RecvBD) Encode() [RecvBDSize]byte {
	var out [RecvBDSize]byte
	binary.LittleEndian.PutUint64(out[0:], uint64(b.Addr))
	binary.LittleEndian.PutUint32(out[8:], b.Len)
	return out
}

// DecodeRecvBD parses a receive BD.
//
//dcslint:hotpath
func DecodeRecvBD(raw []byte) (RecvBD, error) {
	if len(raw) < RecvBDSize {
		return RecvBD{}, fmt.Errorf("nic: short recv BD")
	}
	return RecvBD{
		Addr: mem.Addr(binary.LittleEndian.Uint64(raw[0:])),
		Len:  binary.LittleEndian.Uint32(raw[8:]),
	}, nil
}

// RecvCpl is one receive completion: which BD was filled and how.
// With header split, the buffer holds HdrLen header bytes at offset 0
// and PayLen payload bytes at offset HdrOff.
type RecvCpl struct {
	BDIndex uint32
	HdrLen  uint16
	PayLen  uint16
	Seq     uint32
	Flags   uint8
	Valid   uint8 // 1 = entry present (consumer clears after reading)
}

// HdrOff is the payload offset within a split receive buffer.
const HdrOff = 64

// Encode serializes the completion.
//
//dcslint:hotpath
func (c *RecvCpl) Encode() [RecvCplSize]byte {
	var out [RecvCplSize]byte
	binary.LittleEndian.PutUint32(out[0:], c.BDIndex)
	binary.LittleEndian.PutUint16(out[4:], c.HdrLen)
	binary.LittleEndian.PutUint16(out[6:], c.PayLen)
	binary.LittleEndian.PutUint32(out[8:], c.Seq)
	out[12] = c.Flags
	out[13] = c.Valid
	return out
}

// DecodeRecvCpl parses a receive completion.
//
//dcslint:hotpath
func DecodeRecvCpl(raw []byte) (RecvCpl, error) {
	if len(raw) < RecvCplSize {
		return RecvCpl{}, fmt.Errorf("nic: short recv completion")
	}
	return RecvCpl{
		BDIndex: binary.LittleEndian.Uint32(raw[0:]),
		HdrLen:  binary.LittleEndian.Uint16(raw[4:]),
		PayLen:  binary.LittleEndian.Uint16(raw[6:]),
		Seq:     binary.LittleEndian.Uint32(raw[8:]),
		Flags:   raw[12],
		Valid:   raw[13],
	}, nil
}
