package nic

import (
	"encoding/binary"
	"slices"
	"testing"

	"dcsctrl/internal/ether"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
)

// lsoChainByHand is the loop the host driver and the HDC Engine's NIC
// controller each wrote before AppendLSOChain.
func lsoChainByHand(hdr mem.Addr, hdrLen int, src mem.Addr, seg int) []SendBD {
	bds := []SendBD{{Addr: hdr, Len: uint16(hdrLen), Flags: SendFlagLSO, MSS: ether.MSS}}
	const frag = 32 << 10
	for o := 0; o < seg; o += frag {
		k := seg - o
		if k > frag {
			k = frag
		}
		bds = append(bds, SendBD{Addr: src + mem.Addr(o), Len: uint16(k)})
	}
	bds[len(bds)-1].Flags |= SendFlagEnd
	return bds
}

func TestAppendLSOChain(t *testing.T) {
	const hdr, src = mem.Addr(0x1000), mem.Addr(0x20000)
	for _, n := range []int{1, 32 << 10, 32<<10 + 1, 64 << 10} {
		got := AppendLSOChain(nil, hdr, ether.HeadersLen, src, n)
		want := lsoChainByHand(hdr, ether.HeadersLen, src, n)
		if len(got) != len(want) {
			t.Fatalf("%d bytes: %d BDs, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Encode() != want[i].Encode() {
				t.Fatalf("%d bytes: BD %d is %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
	// It appends into the caller's scratch.
	scratch := make([]SendBD, 1, 8)
	got := AppendLSOChain(scratch, hdr, ether.HeadersLen, src, 100)
	if len(got) != 3 || &got[0] != &scratch[0] {
		t.Fatalf("append into scratch: %d BDs, same array %v", len(got), &got[0] == &scratch[0])
	}
}

// completeSends stands in for the NIC: it writes the queue's
// cumulative completed-BD counter.
func completeSends(n *node, completed uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], completed)
	n.mm.Write(n.status.Base, b[:])
}

func TestSendRingTrack(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(env, "a", -1, false)
	hdr := a.dram.Alloc(64, 64)
	var fired []int
	// Chains of 1, 2 and 3 BDs: the tracked tails are 1, 3 and 6.
	for i := 0; i < 3; i++ {
		bds := make([]SendBD, i+1)
		for j := range bds {
			bds[j] = SendBD{Addr: hdr, Len: 1}
		}
		bds[i].Flags = SendFlagEnd
		if err := a.send.Push(bds); err != nil {
			t.Fatal(err)
		}
		sig := sim.NewSignal(env)
		a.send.Track(sig)
		env.Spawn("waiter", func(p *sim.Proc) {
			sig.Wait(p)
			fired = append(fired, i)
		})
	}
	for _, step := range []struct {
		completed uint64
		fired     []int
	}{
		{0, nil},
		{2, []int{0}},       // tail 3 not yet passed
		{5, []int{0, 1}},    // tail 6 not yet passed
		{6, []int{0, 1, 2}}, // all fetched
	} {
		completeSends(a, step.completed)
		a.send.Sweep()
		env.Run(-1)
		if !slices.Equal(fired, step.fired) {
			t.Fatalf("completed %d: fired %v, want %v", step.completed, fired, step.fired)
		}
		if want := 3 - len(step.fired); a.send.Tracked() != want {
			t.Fatalf("completed %d: %d tracked, want %d", step.completed, a.send.Tracked(), want)
		}
	}
}
