package bench

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"dcsctrl/internal/nvme"
	"dcsctrl/internal/sim"
)

// TestRestoreRoundTrip restores a warm checkpoint into a fresh cluster
// and re-snapshots it: the bytes must round-trip exactly.
func TestRestoreRoundTrip(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.WarmDuration = 3 * sim.Millisecond
	cfg.Conns = 4
	_, cl, sess, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, cl2, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Restore(ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}
	ckpt2, err := cl2.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if len(ckpt) != len(ckpt2) {
		t.Fatalf("sizes differ: %d vs %d", len(ckpt), len(ckpt2))
	}
	for i := range ckpt {
		if ckpt[i] != ckpt2[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("differ at byte %d; context orig=%q restored=%q", i, ckpt[lo:i+20], ckpt2[lo:i+20])
		}
	}
}

// smallCell warms the smallest useful DCS-ctrl cell (about an 11 MB
// checkpoint) and returns its snapshot with the config that rebuilds
// a restore target.
func smallCell(t *testing.T) (WarmForkConfig, []byte) {
	t.Helper()
	cfg := DefaultWarmForkConfig()
	cfg.WarmDuration = sim.Millisecond
	cfg.Conns = 2
	_, cl, sess, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, ckpt
}

// sectionBody returns the offset of the named section's body: the
// checkpoint header is 16 bytes, and each section is a length-prefixed
// name followed by a length-prefixed body.
func sectionBody(t *testing.T, ckpt []byte, name string) int {
	t.Helper()
	for off := 16; off+8 <= len(ckpt); {
		n := int(binary.LittleEndian.Uint32(ckpt[off:]))
		body := off + 4 + n + 4
		if string(ckpt[off+4:off+4+n]) == name {
			return body
		}
		off = body + int(binary.LittleEndian.Uint32(ckpt[body-4:]))
	}
	t.Fatalf("checkpoint has no section %q", name)
	return 0
}

// patched returns a copy of ckpt with the 32- or 64-bit word at off
// set to v. want must accept the word's old value, which checks that
// the checkpoint still has the layout the patch assumes.
func patched(t *testing.T, ckpt []byte, off, size int, want func(uint64) bool, v uint64) []byte {
	t.Helper()
	out := append([]byte(nil), ckpt...)
	var old uint64
	if size == 4 {
		old = uint64(binary.LittleEndian.Uint32(out[off:]))
		binary.LittleEndian.PutUint32(out[off:], uint32(v))
	} else {
		old = binary.LittleEndian.Uint64(out[off:])
		binary.LittleEndian.PutUint64(out[off:], v)
	}
	if !want(old) {
		t.Fatalf("word at offset %d holds %d: checkpoint layout changed", off, old)
	}
	return out
}

// TestRestoreRejectsCraftedListLength patches one list length in a
// real checkpoint — the server SSD's staging-slot queue, 16 entries —
// to 1<<26. The restore must fail without allocating by that length:
// it may allocate less than the checkpoint's own size.
func TestRestoreRejectsCraftedListLength(t *testing.T) {
	cfg, ckpt := smallCell(t)
	// Section body: SSD count, then the first SSD's slot-queue length.
	off := sectionBody(t, ckpt, "server.ssd") + 4
	bad := patched(t, ckpt, off, 4, func(n uint64) bool { return n == 16 }, 1<<26)
	_, cl, _, err := cfg.buildCell()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = cl.RestoreTrusted(bad)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("restore accepted a crafted list length")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(ckpt)) {
		t.Fatalf("rejected restore allocated %.1f MB, checkpoint is %.1f MB (%v)",
			float64(alloc)/1e6, float64(len(ckpt))/1e6, err)
	}
	t.Logf("rejected: %v", err)
}

// TestRestoreRejectsUnreachableState patches values no run can reach
// one past their bound: the server SSD's idle exec workers past its
// queue-pair depth (host driver QP 256 + engine QP 64), the engine
// QP's submission-queue head past its last entry, the fabric's idle
// async-DMA workers past the NIC's receive DMA tag slots (16 per
// queue, one host and one engine queue), and the first server
// region's high-water mark past the region's size. Priming the pools
// would spawn workers no run has, the SSD would fetch commands from
// outside its ring, and a later save would size its buffer by the
// mark.
func TestRestoreRejectsUnreachableState(t *testing.T) {
	const hostQP, engineQP, rxTagSlots = 256, 64, 16 * 2
	cfg, ckpt := smallCell(t)
	ssd := sectionBody(t, ckpt, "server.ssd")
	slots := int(binary.LittleEndian.Uint32(ckpt[ssd+4:]))
	// SSD count, slot queue, read/write bandwidth servers, exec
	// accumulator, three counters, then the exec pool.
	execIdle := ssd + 4 + 4 + 8*slots + 2*32 + 16 + 3*8
	// The flash map (a count, then LBA and length-prefixed block per
	// entry) and the queue-pair count; then per pair in QID order its
	// QID, SQ head, CQ tail and phase. QP 2, the engine's, is second.
	flash := execIdle + 8
	engine := flash + 4 + int(binary.LittleEndian.Uint32(ckpt[flash:]))*(8+4+nvme.BlockSize) + 4 + (2 + 8 + 8 + 1)
	if qid := binary.LittleEndian.Uint16(ckpt[engine:]); qid != 2 {
		t.Fatalf("second queue pair is QP %d: checkpoint layout changed", qid)
	}
	// Posted-write clock and two byte counters, then the async pool.
	asyncIdle := sectionBody(t, ckpt, "server.pcie") + 3*8
	// Region count, then the first region's name, size, allocator
	// cursor and high-water mark.
	region := sectionBody(t, ckpt, "server.mem") + 4
	region += 4 + int(binary.LittleEndian.Uint32(ckpt[region:]))
	regionSize := binary.LittleEndian.Uint64(ckpt[region:])
	for _, tc := range []struct {
		name  string
		off   int
		limit uint64
	}{
		{"idle exec workers", execIdle, hostQP + engineQP},
		{"engine QP SQ head", engine + 2, engineQP - 1},
		{"idle async-DMA workers", asyncIdle, rxTagSlots},
		{"region high-water mark", region + 16, regionSize},
	} {
		bad := patched(t, ckpt, tc.off, 8, func(n uint64) bool { return n <= tc.limit }, tc.limit+1)
		_, cl, _, err := cfg.buildCell()
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.RestoreTrusted(bad); err == nil {
			t.Errorf("restore accepted %d %s (bound %d)", tc.limit+1, tc.name, tc.limit)
		}
	}
}

// TestRefusedSnapshotLeavesRunUntouched asks for a snapshot of a
// DCS-ctrl cell whose engine has failed. The save must refuse, and the
// measured phase after the refusal must fingerprint exactly like the
// same run with no snapshot attempted: a save is read-only even when
// it fails.
func TestRefusedSnapshotLeavesRunUntouched(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.Profile = "engine-fail"
	cfg.WarmDuration = sim.Millisecond
	cfg.Conns = 2
	run := func(attempt bool) string {
		env, cl, sess, err := cfg.buildCell()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !cl.Server.Engine.Failed(); i++ {
			if i == 5 {
				t.Fatal("engine never failed")
			}
			if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
				t.Fatal(err)
			}
		}
		if attempt {
			_, err := cl.Snapshot()
			if err == nil || !strings.Contains(err.Error(), "failed engine") {
				t.Fatalf("snapshot of a failed engine: %v", err)
			}
		}
		res, err := sess.RunPhaseSeed(0, cfg.Duration, 1)
		if err != nil {
			t.Fatal(err)
		}
		return cellFingerprint(env, res)
	}
	if straight, refused := run(false), run(true); straight != refused {
		t.Fatalf("refused snapshot changed the run: %s without, %s with", straight, refused)
	}
}
