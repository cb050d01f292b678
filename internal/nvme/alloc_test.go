package nvme

import "testing"

// SQE/CQE marshalling runs once per simulated NVMe command on both the
// host driver path and the HDC Engine's hardware controller; the ring
// loops rely on it staying allocation-free.

func TestCommandCodecZeroAlloc(t *testing.T) {
	cmd := Command{Opcode: OpRead, CID: 7, NSID: 1, PRP1: 0x1000, PRP2: 0x2000, SLBA: 42, NLB: 7}
	var sink Command
	if n := testing.AllocsPerRun(100, func() {
		b := cmd.Encode()
		got, err := DecodeCommand(b[:])
		if err != nil {
			panic(err)
		}
		sink = got
	}); n != 0 {
		t.Fatalf("command encode/decode allocates %v per run", n)
	}
	_ = sink
}

func TestCompletionCodecZeroAlloc(t *testing.T) {
	cpl := Completion{Result: 3, SQHead: 9, SQID: 1, CID: 7, Status: StatusSuccess, Phase: true}
	var sink Completion
	if n := testing.AllocsPerRun(100, func() {
		b := cpl.Encode()
		got, err := DecodeCompletion(b[:])
		if err != nil {
			panic(err)
		}
		sink = got
	}); n != 0 {
		t.Fatalf("completion encode/decode allocates %v per run", n)
	}
	_ = sink
}

// The SSD's queue-pair machines and exec workers are handler procs
// whose scratch lives for the device's lifetime, so once the pools and
// waiter lists are warm a read command — doorbell, SQE fetch, exec,
// flash and PRP DMA, CQE post — allocates nothing.
func TestSSDReadZeroAlloc(t *testing.T) {
	tb := newTestbed(t, 64, false)
	tb.ssd.Preload(42, make([]byte, BlockSize))
	dst := tb.dram.Alloc(BlockSize, BlockSize)
	done := 0
	onCpl := func(cpl Completion) {
		if cpl.Status == StatusSuccess {
			done++
		}
	}
	read := func() {
		if _, err := tb.ring.Submit(Command{Opcode: OpRead, NSID: 1, PRP1: dst, SLBA: 42}, onCpl); err != nil {
			panic(err)
		}
		tb.ring.RingDoorbell()
		tb.env.Run(-1)
	}
	read() // warm-up: the exec pool grows a worker, lists take capacity
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("a steady-state read allocates %v per command", n)
	}
	if done != 102 { // warm-up, AllocsPerRun's own warm-up run, 100 runs
		t.Fatalf("%d reads completed, want 102", done)
	}
}
