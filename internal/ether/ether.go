// Package ether implements the packet formats the NIC models exchange:
// Ethernet II framing, IPv4 and TCP headers with real checksums, and
// large-send-offload (LSO) segmentation. Frames are real byte slices;
// the receive path verifies checksums, so header generation in the HDC
// Engine's NIC controller is functionally checked, not assumed.
package ether

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Frame geometry.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	HeadersLen    = EthHeaderLen + IPv4HeaderLen + TCPHeaderLen

	// MTU is the IP MTU; MSS is the TCP payload per segment.
	MTU = 1500
	MSS = MTU - IPv4HeaderLen - TCPHeaderLen // 1460

	// WireOverhead is the per-frame on-wire cost beyond the frame
	// bytes: preamble+SFD (8), FCS (4), inter-frame gap (12). This is
	// why a 10-GbE link delivers ≈9.4 Gbps of TCP payload — the
	// paper's "effective bandwidth ... around 9 Gbps" footnote.
	WireOverhead = 24

	EtherTypeIPv4 = 0x0800
	ProtoTCP      = 6
)

// TCP flags.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// MAC is an Ethernet address.
type MAC [6]byte

// IP is an IPv4 address.
type IP [4]byte

// String formats the address dotted-quad.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Flow identifies one direction of a TCP connection.
type Flow struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP
	SrcPort, DstPort uint16
}

// Reverse returns the opposite direction of the flow.
func (f Flow) Reverse() Flow {
	return Flow{
		SrcMAC: f.DstMAC, DstMAC: f.SrcMAC,
		SrcIP: f.DstIP, DstIP: f.SrcIP,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
	}
}

// Tuple is the connection key as seen by a receiver (its local
// address last), used for flow-table lookups.
type Tuple struct {
	SrcIP, DstIP     IP
	SrcPort, DstPort uint16
}

// Tuple returns the flow's connection key.
func (f Flow) Tuple() Tuple {
	return Tuple{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort}
}

// Segment is one TCP segment with its addressing.
type Segment struct {
	Flow    Flow
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Payload []byte
}

// WireLen returns the frame length plus fixed on-wire overhead — the
// bytes that occupy the link when this segment is transmitted.
func (s *Segment) WireLen() int { return HeadersLen + len(s.Payload) + WireOverhead }

// Marshal builds the full Ethernet frame with valid IPv4 and TCP
// checksums.
func (s *Segment) Marshal() []byte { return s.MarshalTo(nil) }

// MarshalTo is Marshal into a reusable buffer: b's backing array is
// used when it has capacity (its header span is re-zeroed first, so a
// recycled frame buffer yields bit-identical frames), otherwise a
// fresh slice is allocated. Returns the marshalled frame.
func (s *Segment) MarshalTo(b []byte) []byte {
	total := HeadersLen + len(s.Payload)
	if cap(b) < total {
		//dcslint:allow noalloc pool-miss arm: the NIC passes recycled frame buffers, so steady state reuses them (nic_bulk_stream_64k: 0 allocs/op)
		b = make([]byte, total)
	} else {
		b = b[:total]
		for i := range b[:HeadersLen] {
			b[i] = 0
		}
	}

	// Ethernet header.
	copy(b[0:6], s.Flow.DstMAC[:])
	copy(b[6:12], s.Flow.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)

	// IPv4 header.
	ip := b[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4HeaderLen+TCPHeaderLen+len(s.Payload)))
	ip[8] = 64 // TTL
	ip[9] = ProtoTCP
	copy(ip[12:16], s.Flow.SrcIP[:])
	copy(ip[16:20], s.Flow.DstIP[:])
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))

	// TCP header.
	tcp := b[EthHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:2], s.Flow.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], s.Flow.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], s.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], s.Ack)
	tcp[12] = 5 << 4 // data offset: 5 words
	tcp[13] = s.Flags
	binary.BigEndian.PutUint16(tcp[14:16], 0xFFFF) // window
	copy(tcp[TCPHeaderLen:], s.Payload)
	binary.BigEndian.PutUint16(tcp[16:18],
		tcpChecksum(s.Flow.SrcIP, s.Flow.DstIP, tcp[:TCPHeaderLen+len(s.Payload)]))

	return b
}

// Parse decodes and verifies a frame produced by Marshal. Checksum
// failures and malformed headers are errors. The returned payload is
// a copy, safe to retain; hot receive paths that consume the payload
// before the frame buffer is reused should use ParseView.
func Parse(b []byte) (Segment, error) {
	s, err := ParseView(b)
	if err == nil {
		s.Payload = append([]byte(nil), s.Payload...)
	}
	return s, err
}

// ParseView is Parse without the payload copy: the returned segment's
// Payload aliases b, so it is only valid as long as b is — the caller
// must copy before retaining it past the frame buffer's reuse (see
// DESIGN.md §11).
func ParseView(b []byte) (Segment, error) {
	var s Segment
	if len(b) < HeadersLen {
		return s, fmt.Errorf("ether: frame too short (%d bytes)", len(b))
	}
	copy(s.Flow.DstMAC[:], b[0:6])
	copy(s.Flow.SrcMAC[:], b[6:12])
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeIPv4 {
		return s, fmt.Errorf("ether: unexpected ethertype %#x", et)
	}
	ip := b[EthHeaderLen:]
	if ip[0] != 0x45 {
		return s, fmt.Errorf("ether: unexpected IP version/IHL %#x", ip[0])
	}
	if ip[9] != ProtoTCP {
		return s, fmt.Errorf("ether: unexpected protocol %d", ip[9])
	}
	if ipChecksum(ip[:IPv4HeaderLen]) != 0 {
		return s, fmt.Errorf("ether: bad IPv4 checksum")
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < IPv4HeaderLen+TCPHeaderLen || EthHeaderLen+totalLen > len(b) {
		return s, fmt.Errorf("ether: bad IP total length %d", totalLen)
	}
	copy(s.Flow.SrcIP[:], ip[12:16])
	copy(s.Flow.DstIP[:], ip[16:20])

	tcp := b[EthHeaderLen+IPv4HeaderLen : EthHeaderLen+totalLen]
	if tcpChecksum(s.Flow.SrcIP, s.Flow.DstIP, tcp) != 0 {
		return s, fmt.Errorf("ether: bad TCP checksum")
	}
	s.Flow.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	s.Flow.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	s.Seq = binary.BigEndian.Uint32(tcp[4:8])
	s.Ack = binary.BigEndian.Uint32(tcp[8:12])
	s.Flags = tcp[13]
	s.Payload = tcp[TCPHeaderLen:]
	return s, nil
}

// ParseHeaders decodes the addressing of a prototype frame without
// verifying checksums — what a NIC's large-send-offload engine does
// with the header template software hands it (the real checksums are
// generated per segment by checksum offload). The returned segment
// carries no payload.
func ParseHeaders(b []byte) (Segment, error) {
	var s Segment
	if len(b) < HeadersLen {
		return s, fmt.Errorf("ether: header template too short (%d bytes)", len(b))
	}
	copy(s.Flow.DstMAC[:], b[0:6])
	copy(s.Flow.SrcMAC[:], b[6:12])
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeIPv4 {
		return s, fmt.Errorf("ether: unexpected ethertype %#x", et)
	}
	ip := b[EthHeaderLen:]
	if ip[0] != 0x45 || ip[9] != ProtoTCP {
		return s, fmt.Errorf("ether: unsupported header template")
	}
	copy(s.Flow.SrcIP[:], ip[12:16])
	copy(s.Flow.DstIP[:], ip[16:20])
	tcp := b[EthHeaderLen+IPv4HeaderLen:]
	s.Flow.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	s.Flow.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	s.Seq = binary.BigEndian.Uint32(tcp[4:8])
	s.Ack = binary.BigEndian.Uint32(tcp[8:12])
	s.Flags = tcp[13]
	return s, nil
}

// HeaderTemplate builds the 54-byte prototype frame header for a send
// job: addressing and sequence number filled in, checksums zero (the
// transmit path computes them per segment).
func HeaderTemplate(flow Flow, seq uint32, flags uint8) []byte {
	return HeaderTemplateTo(nil, flow, seq, flags)
}

// HeaderTemplateTo is HeaderTemplate into a caller-owned buffer: when
// cap(b) is large enough the backing array is reused and nothing is
// allocated. Callers that retain the previous template must copy it
// before reusing the buffer.
func HeaderTemplateTo(b []byte, flow Flow, seq uint32, flags uint8) []byte {
	s := Segment{Flow: flow, Seq: seq, Flags: flags}
	frame := s.MarshalTo(b)
	hdr := frame[:HeadersLen]
	// Zero the checksums: the template is not a valid frame.
	hdr[EthHeaderLen+10] = 0
	hdr[EthHeaderLen+11] = 0
	hdr[EthHeaderLen+IPv4HeaderLen+16] = 0
	hdr[EthHeaderLen+IPv4HeaderLen+17] = 0
	return hdr
}

// AppendSegments splits payload into MSS-sized segments starting at
// seq — what the NIC's large-send-offload engine does in hardware —
// and appends them to dst. The final segment carries PSH. Each
// segment's Payload aliases the corresponding window of payload, so
// the segments are only valid while payload is stable (see DESIGN.md
// §11); nothing is allocated when dst has capacity.
func AppendSegments(dst []Segment, flow Flow, seq uint32, payload []byte, mss int) []Segment {
	if mss <= 0 {
		mss = MSS
	}
	if len(payload) == 0 {
		return append(dst, Segment{Flow: flow, Seq: seq, Flags: FlagACK | FlagPSH})
	}
	for off := 0; off < len(payload); off += mss {
		end := off + mss
		if end > len(payload) {
			end = len(payload)
		}
		seg := Segment{Flow: flow, Seq: seq + uint32(off), Flags: FlagACK,
			Payload: payload[off:end]}
		if end == len(payload) {
			seg.Flags |= FlagPSH
		}
		dst = append(dst, seg)
	}
	return dst
}

// ipChecksum computes the ones'-complement header checksum; over a
// header whose checksum field is filled in, the result is zero.
func ipChecksum(h []byte) uint16 {
	return onesComplement(sum16(h, 0))
}

// tcpChecksum computes the TCP checksum including the IPv4
// pseudo-header; over a segment with the checksum field filled in,
// the result is zero.
func tcpChecksum(src, dst IP, tcp []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(tcp)))
	return onesComplement(sum16(tcp, sum16(pseudo[:], 0)))
}

// sum16 returns the ones'-complement sum of b's big-endian 16-bit
// words (a trailing odd byte is padded with a zero) plus acc, folded
// to 16 bits. It adds little-endian 64-bit words with end-around carry,
// 32 bytes per iteration, then folds and byte-swaps the sum: the sum is
// byte-order independent up to that swap (RFC 1071 §2(B)), and 2^16 ≡ 1
// modulo 0xFFFF makes the 64-bit word sum congruent to the 16-bit one
// (§2(C)). A non-zero input never folds to zero, so the result is the
// same representative the plain 16-bit loop folds to; every caller
// folds through onesComplement.
func sum16(b []byte, acc uint32) uint32 {
	var s, c uint64
	for len(b) >= 32 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	var tail uint64 // at most 7 bytes, little-endian
	for i := len(b) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(b[i])
	}
	s, c = bits.Add64(s, tail, c)
	s, c = bits.Add64(s, 0, c)
	s += c
	s = fold16(s)
	return uint32(fold16(uint64(bits.ReverseBytes16(uint16(s))) + uint64(acc)))
}

// fold16 reduces a ones'-complement sum to 16 bits with end-around
// carry; it maps zero to zero and any other value to [1, 0xFFFF].
func fold16(s uint64) uint64 {
	s = s>>32 + s&0xFFFFFFFF
	for s>>16 != 0 {
		s = s>>16 + s&0xFFFF
	}
	return s
}

func onesComplement(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
