package ether

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testFlow() Flow {
	return Flow{
		SrcMAC: MAC{0x02, 0, 0, 0, 0, 1}, DstMAC: MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 8080,
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	s := Segment{Flow: testFlow(), Seq: 1000, Ack: 555, Flags: FlagACK | FlagPSH,
		Payload: []byte("object data over tcp")}
	frame := s.Marshal()
	got, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != s.Flow || got.Seq != s.Seq || got.Ack != s.Ack || got.Flags != s.Flags {
		t.Fatalf("headers: %+v", got)
	}
	if !bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("payload: %q", got.Payload)
	}
}

func TestParseDetectsIPCorruption(t *testing.T) {
	frame := (&Segment{Flow: testFlow(), Payload: []byte("x")}).Marshal()
	frame[EthHeaderLen+12] ^= 0xFF // flip a source IP byte
	if _, err := Parse(frame); err == nil {
		t.Fatal("corrupted IP header accepted")
	}
}

func TestParseDetectsPayloadCorruption(t *testing.T) {
	frame := (&Segment{Flow: testFlow(), Payload: []byte("checksummed")}).Marshal()
	frame[len(frame)-1] ^= 0x01
	if _, err := Parse(frame); err == nil {
		t.Fatal("corrupted payload accepted")
	}
}

func TestParseShortFrame(t *testing.T) {
	if _, err := Parse(make([]byte, 20)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestParseWrongEthertype(t *testing.T) {
	frame := (&Segment{Flow: testFlow(), Payload: []byte("x")}).Marshal()
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if _, err := Parse(frame); err == nil {
		t.Fatal("non-IPv4 frame accepted")
	}
}

func TestSegmentizeBoundaries(t *testing.T) {
	flow := testFlow()
	cases := []struct {
		payload int
		want    int
	}{
		{0, 1}, {1, 1}, {MSS, 1}, {MSS + 1, 2}, {3 * MSS, 3}, {3*MSS + 7, 4},
	}
	for _, c := range cases {
		segs := AppendSegments(nil, flow, 0, make([]byte, c.payload), MSS)
		if len(segs) != c.want {
			t.Fatalf("payload %d: %d segments, want %d", c.payload, len(segs), c.want)
		}
		if segs[len(segs)-1].Flags&FlagPSH == 0 {
			t.Fatalf("payload %d: last segment missing PSH", c.payload)
		}
	}
}

func TestSegmentizeSequenceNumbers(t *testing.T) {
	payload := make([]byte, 2*MSS+100)
	for i := range payload {
		payload[i] = byte(i)
	}
	segs := AppendSegments(nil, testFlow(), 7777, payload, MSS)
	want := uint32(7777)
	var rebuilt []byte
	for _, s := range segs {
		if s.Seq != want {
			t.Fatalf("seq = %d, want %d", s.Seq, want)
		}
		want += uint32(len(s.Payload))
		rebuilt = append(rebuilt, s.Payload...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("reassembled payload differs")
	}
}

func TestWireLen(t *testing.T) {
	s := Segment{Flow: testFlow(), Payload: make([]byte, 100)}
	if s.WireLen() != HeadersLen+100+WireOverhead {
		t.Fatalf("wire len = %d", s.WireLen())
	}
}

func TestEffectiveBandwidthFraction(t *testing.T) {
	// A full MSS segment's payload efficiency explains the ~9.4 Gbps
	// effective rate the paper footnotes for the 10-GbE NIC.
	s := Segment{Flow: testFlow(), Payload: make([]byte, MSS)}
	eff := float64(MSS) / float64(s.WireLen())
	if eff < 0.93 || eff > 0.96 {
		t.Fatalf("payload efficiency %.3f, want ~0.949", eff)
	}
}

func TestFlowReverseAndTuple(t *testing.T) {
	f := testFlow()
	r := f.Reverse()
	if r.SrcPort != f.DstPort || r.DstIP != f.SrcIP || r.SrcMAC != f.DstMAC {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != f {
		t.Fatal("double reverse not identity")
	}
	tu := f.Tuple()
	if tu.SrcIP != f.SrcIP || tu.DstPort != f.DstPort {
		t.Fatalf("tuple = %+v", tu)
	}
}

func TestIPString(t *testing.T) {
	if got := (IP{192, 168, 1, 9}).String(); got != "192.168.1.9" {
		t.Fatalf("String = %q", got)
	}
}

// Property: marshal/parse is the identity for arbitrary payloads and
// header fields.
func TestRoundTripProperty(t *testing.T) {
	f := func(seq, ack uint32, payload []byte, sport, dport uint16) bool {
		if len(payload) > MSS {
			payload = payload[:MSS]
		}
		flow := testFlow()
		flow.SrcPort, flow.DstPort = sport, dport
		s := Segment{Flow: flow, Seq: seq, Ack: ack, Flags: FlagACK, Payload: payload}
		got, err := Parse(s.Marshal())
		return err == nil && got.Seq == seq && got.Ack == ack &&
			got.Flow == flow && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit corruption anywhere in the frame is
// detected by a checksum or header validation failure, except within
// the Ethernet MAC fields (which carry no checksum, as in real
// Ethernet before the FCS).
func TestCorruptionDetectionProperty(t *testing.T) {
	f := func(pos uint16, bit uint8, payload []byte) bool {
		if len(payload) == 0 || len(payload) > 512 {
			return true
		}
		s := Segment{Flow: testFlow(), Seq: 1, Flags: FlagACK, Payload: payload}
		frame := s.Marshal()
		i := int(pos) % len(frame)
		if i < EthHeaderLen {
			return true // MAC fields: protected by FCS, not modelled
		}
		frame[i] ^= 1 << (bit % 8)
		_, err := Parse(frame)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: segmentation covers the payload exactly once, in order,
// with every non-final segment of full MSS size.
func TestSegmentizeCoverageProperty(t *testing.T) {
	f := func(n uint16, mssRaw uint8) bool {
		mss := int(mssRaw)%MSS + 1
		payload := make([]byte, int(n)%8192)
		for i := range payload {
			payload[i] = byte(i * 13)
		}
		segs := AppendSegments(nil, testFlow(), 0, payload, mss)
		var rebuilt []byte
		for i, s := range segs {
			if i < len(segs)-1 && len(s.Payload) != mss {
				return false
			}
			rebuilt = append(rebuilt, s.Payload...)
		}
		return bytes.Equal(rebuilt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
