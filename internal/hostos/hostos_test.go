package hostos

import (
	"bytes"
	"testing"
	"testing/quick"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

func newHost(cores int) (*sim.Env, *Host) {
	env := sim.NewEnv()
	p := DefaultParams()
	p.Cores = cores
	return env, NewHost(env, p)
}

func TestExecChargesAccountAndBreakdown(t *testing.T) {
	env, h := newHost(2)
	bd := trace.NewBreakdown()
	env.Spawn("w", func(p *sim.Proc) {
		h.Exec(p, trace.CatNetStack, 10*sim.Microsecond, bd)
		h.Exec(p, trace.CatNetStack, 5*sim.Microsecond, nil)
	})
	env.Run(-1)
	if h.Acct.Busy(trace.CatNetStack) != 15*sim.Microsecond {
		t.Fatalf("busy = %v", h.Acct.Busy(trace.CatNetStack))
	}
	if bd.Get(trace.CatNetStack) != 10*sim.Microsecond {
		t.Fatalf("breakdown = %v", bd.Get(trace.CatNetStack))
	}
}

func TestExecZeroIsNoop(t *testing.T) {
	env, h := newHost(1)
	env.Spawn("w", func(p *sim.Proc) {
		h.Exec(p, trace.CatUser, 0, nil)
	})
	end := env.Run(-1)
	if end != 0 || h.Acct.TotalBusy() != 0 {
		t.Fatal("zero exec consumed time")
	}
}

func TestCoresSerialize(t *testing.T) {
	env, h := newHost(1)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		env.Spawn("w", func(p *sim.Proc) {
			h.Exec(p, trace.CatUser, 10*sim.Microsecond, nil)
			ends = append(ends, p.Now())
		})
	}
	env.Run(-1)
	want := []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestUtilization(t *testing.T) {
	env, h := newHost(2)
	env.Spawn("w", func(p *sim.Proc) {
		h.Exec(p, trace.CatUser, 40*sim.Microsecond, nil)
	})
	env.Spawn("tick", func(p *sim.Proc) { p.Sleep(100 * sim.Microsecond) })
	env.Run(-1)
	// 40µs busy over 2 cores × 100µs window = 0.2
	if got := h.Utilization(); got != 0.2 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestRaiseIRQ(t *testing.T) {
	env, h := newHost(1)
	sig := sim.NewSignal(env)
	var handled sim.Time
	h.RaiseIRQ(trace.CatInterrupt, 2*sim.Microsecond, func() {
		handled = env.Now()
		sig.Fire(nil)
	})
	env.Spawn("waiter", func(p *sim.Proc) { sig.Wait(p) })
	env.Run(-1)
	want := h.Params.IRQOverhead + 2*sim.Microsecond
	if handled != want {
		t.Fatalf("handled at %v, want %v", handled, want)
	}
	if h.Acct.Busy(trace.CatInterrupt) != want {
		t.Fatalf("irq busy = %v", h.Acct.Busy(trace.CatInterrupt))
	}
}

func TestIRQsSerializeOnQueue(t *testing.T) {
	env, h := newHost(4)
	count := 0
	for i := 0; i < 5; i++ {
		h.RaiseIRQ(trace.CatInterrupt, sim.Microsecond, func() { count++ })
	}
	env.Run(-1)
	if count != 5 {
		t.Fatalf("handled %d/5", count)
	}
	want := 5 * (h.Params.IRQOverhead + sim.Microsecond)
	if h.Acct.Busy(trace.CatInterrupt) != want {
		t.Fatalf("busy = %v, want %v", h.Acct.Busy(trace.CatInterrupt), want)
	}
}

func TestCopyTime(t *testing.T) {
	_, h := newHost(1)
	// 48 Gbps => 6000 bytes per µs
	if got := h.CopyTime(6000); got != sim.Microsecond {
		t.Fatalf("copy time = %v", got)
	}
}

func TestFileCreateAndExtents(t *testing.T) {
	fs := NewFileSystem(1 << 30)
	f, err := fs.Create("obj1", 10*BlockSize+17)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 11 {
		t.Fatalf("blocks = %d", f.Blocks())
	}
	if got := len(f.LBAs()); got != 11 {
		t.Fatalf("LBAs = %d", got)
	}
	if _, err := fs.Create("obj1", 10); err == nil {
		t.Fatal("duplicate create allowed")
	}
}

func TestFileLBAsUniqueAcrossFiles(t *testing.T) {
	fs := NewFileSystem(1 << 30)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		f, err := fs.Create(string(rune('a'+i)), 300*BlockSize) // spans extents
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Extents()) < 2 {
			t.Fatalf("file %d has %d extents, want fragmentation", i, len(f.Extents()))
		}
		for _, lba := range f.LBAs() {
			if seen[lba] {
				t.Fatalf("LBA %d allocated twice", lba)
			}
			seen[lba] = true
		}
	}
}

func TestLBARange(t *testing.T) {
	fs := NewFileSystem(1 << 30)
	f, _ := fs.Create("f", 8*BlockSize)
	all := f.LBAs()
	got, err := f.LBARange(BlockSize, 2*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != all[1] || got[1] != all[2] {
		t.Fatalf("range = %v", got)
	}
	// Unaligned range touching three blocks.
	got, err = f.LBARange(BlockSize-1, BlockSize+2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("unaligned range = %v", got)
	}
	if _, err := f.LBARange(0, 9*BlockSize); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestVolumeFull(t *testing.T) {
	fs := NewFileSystem(10 * BlockSize)
	if _, err := fs.Create("big", 11*BlockSize); err == nil {
		t.Fatal("overcommit allowed")
	}
}

func TestPageCache(t *testing.T) {
	fs := NewFileSystem(1 << 30)
	fs.Create("f", 4*BlockSize)
	if _, ok := fs.CacheLookup("f", 0); ok {
		t.Fatal("hit on empty cache")
	}
	fs.CacheFill("f", 0, []byte("clean page"))
	data, ok := fs.CacheLookup("f", 0)
	if !ok || !bytes.Equal(data, []byte("clean page")) {
		t.Fatalf("lookup = %q %v", data, ok)
	}
	hits, misses := fs.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if len(fs.Dirty("f")) != 0 {
		t.Fatal("clean page reported dirty")
	}
	fs.CacheWrite("f", 2, []byte("dirty page"))
	if d := fs.Dirty("f"); len(d) != 1 || d[0] != 2 {
		t.Fatalf("dirty = %v", d)
	}
	if data, ok := fs.CleanPage("f", 2); !ok || !bytes.Equal(data, []byte("dirty page")) {
		t.Fatal("CleanPage failed")
	}
	if len(fs.Dirty("f")) != 0 {
		t.Fatal("page still dirty after writeback")
	}
	if fs.CachedPages() != 2 {
		t.Fatalf("cached pages = %d", fs.CachedPages())
	}
}

func TestCacheInsertCopiesData(t *testing.T) {
	fs := NewFileSystem(1 << 30)
	src := []byte("mutable")
	fs.CacheFill("f", 0, src)
	src[0] = 'X'
	data, _ := fs.CacheLookup("f", 0)
	if data[0] != 'm' {
		t.Fatal("cache aliases caller buffer")
	}
}

// Property: for any file size, the extent map covers exactly
// ceil(size/BlockSize) blocks and LBARange agrees with LBAs.
func TestExtentCoverageProperty(t *testing.T) {
	f := func(sizeRaw uint32) bool {
		size := int(sizeRaw % (4 << 20))
		fs := NewFileSystem(1 << 30)
		file, err := fs.Create("f", size)
		if err != nil {
			return false
		}
		want := (size + BlockSize - 1) / BlockSize
		if len(file.LBAs()) != want {
			return false
		}
		if size == 0 {
			return true
		}
		r, err := file.LBARange(0, size)
		return err == nil && len(r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
