package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestRegionReadWrite(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("dram", HostDRAM, 1<<20, true)
	data := []byte("hello device-centric world")
	r.WriteAt(100, data)
	got := make([]byte, len(data))
	r.ReadAt(100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestRegionBoundsPanic(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("small", DeviceBRAM, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-bounds write")
		}
	}()
	r.WriteAt(10, make([]byte, 8))
}

func TestWriteHook(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("cq", DeviceBRAM, 4096, true)
	var hookOff uint64
	var hookN int
	calls := 0
	r.SetWriteHook(func(off uint64, n int) { hookOff, hookN, calls = off, n, calls+1 })
	r.WriteAt(64, make([]byte, 16))
	if calls != 1 || hookOff != 64 || hookN != 16 {
		t.Fatalf("hook calls=%d off=%d n=%d", calls, hookOff, hookN)
	}
	r.ReadAt(64, make([]byte, 16))
	if calls != 1 {
		t.Fatal("read fired write hook")
	}
}

func TestMapResolve(t *testing.T) {
	m := NewMap()
	a := m.AddRegion("a", HostDRAM, 4096, true)
	b := m.AddRegion("b", DeviceDRAM, 4096, true)
	r, off, err := m.Resolve(a.Base + 100)
	if err != nil || r != a || off != 100 {
		t.Fatalf("resolve a: %v %v %v", r, off, err)
	}
	r, off, err = m.Resolve(b.Base)
	if err != nil || r != b || off != 0 {
		t.Fatalf("resolve b: %v %v %v", r, off, err)
	}
	if _, _, err := m.Resolve(a.End()); err == nil {
		t.Fatal("guard gap resolved")
	}
	if _, _, err := m.Resolve(0); err == nil {
		t.Fatal("null address resolved")
	}
}

func TestMapCopyAcrossRegions(t *testing.T) {
	m := NewMap()
	a := m.AddRegion("a", HostDRAM, 4096, true)
	b := m.AddRegion("b", GPUVRAM, 4096, true)
	src := []byte("payload bytes travel for real")
	m.Write(a.Base+10, src)
	m.Copy(b.Base+20, a.Base+10, len(src))
	if got := m.Read(b.Base+20, len(src)); !bytes.Equal(got, src) {
		t.Fatalf("copy: %q", got)
	}
}

func TestMapCopyFiresDestHook(t *testing.T) {
	m := NewMap()
	a := m.AddRegion("a", HostDRAM, 4096, true)
	b := m.AddRegion("b", DeviceBRAM, 4096, true)
	fired := false
	b.SetWriteHook(func(off uint64, n int) { fired = true })
	m.Copy(b.Base, a.Base, 8)
	if !fired {
		t.Fatal("copy did not fire destination hook")
	}
}

func TestAlloc(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("bram", DeviceBRAM, 4096, true)
	a1 := r.Alloc(100, 64)
	a2 := r.Alloc(100, 64)
	if uint64(a1-r.Base)%64 != 0 || uint64(a2-r.Base)%64 != 0 {
		t.Fatal("misaligned alloc")
	}
	if a2 <= a1 || uint64(a2-a1) < 100 {
		t.Fatalf("overlapping allocs %#x %#x", uint64(a1), uint64(a2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exhaustion")
		}
	}()
	r.Alloc(1<<20, 1)
}

func TestChunkPool(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("ddr3", DeviceDRAM, 1<<20, true)
	p := NewChunkPool(r, 64<<10, 16)
	if p.Free() != 16 || p.Total() != 16 {
		t.Fatalf("free=%d total=%d", p.Free(), p.Total())
	}
	seen := map[Addr]bool{}
	var got []Addr
	for i := 0; i < 16; i++ {
		a, ok := p.Get()
		if !ok {
			t.Fatalf("pool dry at %d", i)
		}
		if seen[a] {
			t.Fatalf("duplicate chunk %#x", uint64(a))
		}
		seen[a] = true
		got = append(got, a)
	}
	if _, ok := p.Get(); ok {
		t.Fatal("17th chunk from 16-chunk pool")
	}
	if p.LowWater() != 0 {
		t.Fatalf("low water = %d", p.LowWater())
	}
	for _, a := range got {
		p.Put(a)
	}
	if p.Free() != 16 {
		t.Fatalf("after put-back free=%d", p.Free())
	}
}

func TestChunkPoolBadPutPanics(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("ddr3", DeviceDRAM, 1<<20, true)
	other := m.AddRegion("other", HostDRAM, 1<<20, true)
	p := NewChunkPool(r, 64<<10, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on foreign chunk")
		}
	}()
	p.Put(other.Base)
}

func TestChunkPoolMisalignedPutPanics(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("ddr3", DeviceDRAM, 1<<20, true)
	p := NewChunkPool(r, 64<<10, 4)
	a, _ := p.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on misaligned chunk")
		}
	}()
	p.Put(a + 1)
}

// Property: any data written at any offset reads back identically
// (within bounds), across region kinds.
func TestRoundTripProperty(t *testing.T) {
	m := NewMap()
	r := m.AddRegion("r", HostDRAM, 1<<16, true)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % (r.Size - uint64(len(data)))
		r.WriteAt(o, data)
		got := make([]byte, len(data))
		r.ReadAt(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: resolving any address inside any region returns that
// region and the right offset.
func TestResolveProperty(t *testing.T) {
	m := NewMap()
	var regs []*Region
	for i := 0; i < 8; i++ {
		regs = append(regs, m.AddRegion("r", HostDRAM, 1<<14, true))
	}
	f := func(ri uint8, off uint16) bool {
		r := regs[int(ri)%len(regs)]
		o := uint64(off) % r.Size
		got, gotOff, err := m.Resolve(r.Base + Addr(o))
		return err == nil && got == r && gotOff == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingExtents(t *testing.T) {
	const base, entries, esz = Addr(0x10000), 8, 16
	cases := []struct {
		name    string
		head, n int
		want    []Extent
	}{
		{"no wrap", 2, 3, []Extent{{base + 32, 48}}},
		{"ends at the ring end", 5, 3, []Extent{{base + 80, 48}}},
		{"wraps", 6, 4, []Extent{{base + 96, 32}, {base, 32}}},
		{"entries-1 without a wrap", 1, 7, []Extent{{base + 16, 112}}},
		{"entries-1 wrapping", 3, 7, []Extent{{base + 48, 80}, {base, 32}}},
	}
	for _, tc := range cases {
		if got := RingExtents(nil, base, tc.head, tc.n, entries, esz); !slices.Equal(got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
	// It appends: a caller's scratch keeps what it already holds.
	prev := Extent{Addr: 0x99, Len: 1}
	got := RingExtents([]Extent{prev}, base, 7, 2, entries, esz)
	if want := []Extent{prev, {base + 112, 16}, {base, 16}}; !slices.Equal(got, want) {
		t.Errorf("append: %v, want %v", got, want)
	}
}
