package nic

import (
	"testing"

	"dcsctrl/internal/sim"
)

// BD and completion marshalling runs once per frame (often several
// times per frame); the NIC's ring engines rely on it staying
// allocation-free.

func TestSendBDCodecZeroAlloc(t *testing.T) {
	bd := SendBD{Addr: 0x4000, Len: 1500, Flags: SendFlagLSO | SendFlagEnd, MSS: 1460}
	var sink SendBD
	if n := testing.AllocsPerRun(100, func() {
		enc := bd.Encode()
		got, err := DecodeSendBD(enc[:])
		if err != nil {
			panic(err)
		}
		sink = got
	}); n != 0 {
		t.Fatalf("send-BD encode/decode allocates %v per run", n)
	}
	_ = sink
}

func TestRecvCplCodecZeroAlloc(t *testing.T) {
	c := RecvCpl{BDIndex: 3, HdrLen: 54, PayLen: 1460, Seq: 1000, Flags: 1, Valid: 1}
	var sink RecvCpl
	if n := testing.AllocsPerRun(100, func() {
		enc := c.Encode()
		got, err := DecodeRecvCpl(enc[:])
		if err != nil {
			panic(err)
		}
		sink = got
	}); n != 0 {
		t.Fatalf("recv-cpl encode/decode allocates %v per run", n)
	}
	_ = sink
}

// TestSendRingTrackZeroAlloc: both submitters track every transmit
// job's fetch, so a steady push/track/sweep cycle must reuse the
// ring's record slice.
func TestSendRingTrackZeroAlloc(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	bds := []SendBD{{Addr: a.dram.Alloc(64, 64), Len: 1, Flags: SendFlagEnd}}
	sig := sim.NewSignal(env)
	posted := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		if err := a.send.Push(bds); err != nil {
			panic(err)
		}
		posted++
		a.send.Track(sig)
		completeSends(a, posted)
		a.send.Sweep()
		sig.Reset()
	}); n != 0 {
		t.Fatalf("push/track/sweep allocates %v per run", n)
	}
	if a.send.Tracked() != 0 {
		t.Fatalf("%d records left after the sweeps", a.send.Tracked())
	}
}
