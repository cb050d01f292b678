package mem

import (
	"strings"
	"testing"
)

// newTestArena maps a region of the given pages, bumps an unaligned
// prefix out of it, and hands the rest to an arena.
func newTestArena(pages int) (*Region, *Arena) {
	r := NewMap().AddRegion("staging", HostDRAM, uint64(pages)*PageSize, true)
	r.Alloc(3*PageSize+100, 1)
	return r, NewArena(r)
}

// TestArenaTakesRestOfRegion: the arena starts at the first page past
// the region's bump cursor and owns every page after it.
func TestArenaTakesRestOfRegion(t *testing.T) {
	r, a := newTestArena(16)
	if a.base != r.Base+4*PageSize || a.size != 12*PageSize {
		t.Fatalf("arena [%#x, +%d), want [%#x, +%d)", a.base, a.size, r.Base+4*PageSize, 12*PageSize)
	}
	if r.allocOff != r.Size {
		t.Fatalf("region cursor %d after the arena, want %d", r.allocOff, r.Size)
	}
}

// TestArenaFreeRejects: freeing twice, outside the arena, off a page
// boundary, or over free space panics and leaves the arena intact.
func TestArenaFreeRejects(t *testing.T) {
	r, a := newTestArena(16)
	x, _ := a.Alloc(2 * PageSize)
	y, _ := a.Alloc(PageSize)
	a.Free(y, PageSize)
	for _, tc := range []struct {
		name string
		addr Addr
		n    uint64
		want string
	}{
		{"double free", y, PageSize, "overlaps free"},
		{"span over free space", x, 3 * PageSize, "overlaps free"},
		{"below the arena", r.Base, PageSize, "outside arena"},
		{"past the arena", r.End(), PageSize, "outside arena"},
		{"off a page", x + 8, PageSize, "off a page"},
	} {
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			a.Free(tc.addr, tc.n)
			return nil
		}()
		if s, _ := msg.(string); !strings.Contains(s, tc.want) {
			t.Errorf("%s: panic %v, want %q", tc.name, msg, tc.want)
		}
	}
	if spans, bytes := a.Live(); spans != 1 || bytes != 2*PageSize {
		t.Fatalf("rejected frees changed the arena: %d spans / %d bytes live", spans, bytes)
	}
}

// TestArenaZeroAlloc: a steady state of takes and returns, through
// every coalescing case, allocates nothing.
func TestArenaZeroAlloc(t *testing.T) {
	_, a := newTestArena(64)
	if n := testing.AllocsPerRun(100, func() {
		x, _ := a.Alloc(16 << 10)
		y, _ := a.Alloc(64)
		z, _ := a.Alloc(8 << 10)
		a.Free(y, 64)     // between live spans: a new free span
		a.Free(x, 16<<10) // merges with the span above
		a.Free(z, 8<<10)  // merges with both neighbours
	}); n != 0 {
		t.Fatalf("Arena Alloc/Free allocates %v per run", n)
	}
}

// FuzzArena drives random Alloc/Free sequences against a page-bitmap
// reference. Every span must be page-aligned, inside the arena,
// disjoint from every live span, and at the lowest free page run that
// fits; a miss must mean no run fits; and once everything is freed
// the free list must be one span again.
func FuzzArena(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const regionPages = 40
		_, a := newTestArena(regionPages)
		npages := int(a.size / PageSize)
		used := make([]bool, npages)
		type liveSpan struct {
			addr Addr
			n    uint64
		}
		var live []liveSpan
		liveBytes := uint64(0)
		checkLive := func(op int) {
			if spans, bytes := a.Live(); spans != len(live) || bytes != liveBytes {
				t.Fatalf("op %d: Live() = %d spans / %d bytes, want %d / %d", op, spans, bytes, len(live), liveBytes)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op%2 == 1 && len(live) > 0 {
				j := int(arg) % len(live)
				s := live[j]
				a.Free(s.addr, s.n)
				p, k := int(uint64(s.addr-a.base)/PageSize), int(pages(s.n)/PageSize)
				for q := p; q < p+k; q++ {
					used[q] = false
				}
				live = append(live[:j], live[j+1:]...)
				liveBytes -= pages(s.n)
				checkLive(i / 2)
				continue
			}
			// Sizes from 0 to 15 pages, not always page multiples.
			n := uint64(arg%16) * PageSize
			if n > 0 {
				n -= uint64(op >> 1)
			}
			k := int(pages(n) / PageSize)
			want := -1
			for p := 0; p+k <= npages && want < 0; p++ {
				fits := true
				for q := p; q < p+k; q++ {
					fits = fits && !used[q]
				}
				if fits {
					want = p
				}
			}
			addr, ok := a.Alloc(n)
			if !ok {
				if want >= 0 {
					t.Fatalf("op %d: %d-page request missed, but page %d starts a free run", i/2, k, want)
				}
				continue
			}
			if addr < a.base || uint64(addr-a.base)%PageSize != 0 || uint64(addr-a.base)+uint64(k)*PageSize > a.size {
				t.Fatalf("op %d: span [%#x, +%d pages) is off a page or outside [%#x, +%d)", i/2, addr, k, a.base, a.size)
			}
			p := int(uint64(addr-a.base) / PageSize)
			if p != want {
				t.Fatalf("op %d: %d-page span at page %d, want the lowest free run at page %d", i/2, k, p, want)
			}
			for q := p; q < p+k; q++ {
				used[q] = true
			}
			live = append(live, liveSpan{addr, n})
			liveBytes += pages(n)
			checkLive(i / 2)
		}
		for _, s := range live {
			a.Free(s.addr, s.n)
		}
		if spans, bytes := a.Live(); spans != 0 || bytes != 0 {
			t.Fatalf("all freed, but Live() = %d spans / %d bytes", spans, bytes)
		}
		if len(a.free) != 1 || a.free[0] != (span{0, a.size}) {
			t.Fatalf("all freed, but the free list is %v", a.free)
		}
	})
}
