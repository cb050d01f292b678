package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// ChunkPool manages fixed-size blocks carved from a region — the
// paper's §IV-C scheme for the HDC Engine's 1 GB on-board DDR3:
// intermediate buffers and packet receive buffers are "chunked into
// multiple fixed-size blocks (64KB)".
type ChunkPool struct {
	region    *Region
	chunkSize uint64
	free      []Addr
	total     int
	outMin    int // low-water mark of free chunks
}

// NewChunkPool carves count chunks of chunkSize bytes from region.
func NewChunkPool(region *Region, chunkSize uint64, count int) *ChunkPool {
	p := &ChunkPool{region: region, chunkSize: chunkSize, total: count}
	for i := 0; i < count; i++ {
		p.free = append(p.free, region.Alloc(chunkSize, chunkSize))
	}
	p.outMin = count
	return p
}

// ChunkSize returns the size of each chunk.
func (p *ChunkPool) ChunkSize() uint64 { return p.chunkSize }

// Free returns the number of available chunks.
func (p *ChunkPool) Free() int { return len(p.free) }

// Total returns the pool size.
func (p *ChunkPool) Total() int { return p.total }

// LowWater returns the minimum number of free chunks ever observed.
func (p *ChunkPool) LowWater() int { return p.outMin }

// Get takes a chunk; ok is false when the pool is empty (callers must
// back-pressure, as the hardware does when DDR3 buffers run out).
func (p *ChunkPool) Get() (Addr, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	a := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	if len(p.free) < p.outMin {
		p.outMin = len(p.free)
	}
	return a, true
}

// Put returns a chunk to the pool.
func (p *ChunkPool) Put(a Addr) {
	if !p.region.Contains(a) {
		panic(fmt.Sprintf("mem: chunk %#x outside pool region %s", uint64(a), p.region.Name))
	}
	if uint64(a-p.region.Base)%p.chunkSize != 0 {
		panic(fmt.Sprintf("mem: misaligned chunk %#x", uint64(a)))
	}
	if len(p.free) >= p.total {
		panic("mem: chunk pool overflow (double free?)")
	}
	//dcslint:allow noalloc the free list never outgrows the pool's total chunks (checked above), so its capacity settles
	p.free = append(p.free, a)
}

// PageSize is the granule of Arena spans: the host's 4 KB page.
const PageSize = 4096

// Arena hands out page-rounded contiguous spans of a region and takes
// them back — the staging memory of the host baselines, whose buffers
// vary in size where ChunkPool's are fixed. Allocation is
// address-ordered first fit: the lowest free span that fits, carved
// from its low end, so reuse stays on the warm low pages and the
// touched footprint is the in-flight peak. Spans stay contiguous
// because devices coalesce contiguous pages into one DMA extent.
type Arena struct {
	base      Addr
	size      uint64
	free      []span // address-ordered, coalesced, non-empty
	live      int
	liveBytes uint64
}

// span is a page-aligned run of arena bytes by offset.
type span struct{ off, n uint64 }

// NewArena carves every whole page left in region past its bump
// cursor (Region.Alloc) and manages them as one free span.
func NewArena(region *Region) *Arena {
	off := (region.allocOff + PageSize - 1) &^ (PageSize - 1)
	size := uint64(0)
	if off < region.Size {
		size = (region.Size - off) &^ (PageSize - 1)
	}
	a := &Arena{base: region.Alloc(size, PageSize), size: size}
	if size > 0 {
		a.free = []span{{0, size}}
	}
	return a
}

// pages rounds a request up to whole pages; an empty request takes
// one page, so every span has its own address.
func pages(n uint64) uint64 {
	return max((n+PageSize-1)&^(PageSize-1), PageSize)
}

// Alloc takes a span of at least n bytes; ok is false when no free
// span fits.
func (a *Arena) Alloc(n uint64) (Addr, bool) {
	n = pages(n)
	for i := range a.free {
		f := &a.free[i]
		if f.n < n {
			continue
		}
		off := f.off
		f.off += n
		f.n -= n
		if f.n == 0 {
			a.free = slices.Delete(a.free, i, i+1)
		}
		a.live++
		a.liveBytes += n
		return a.base + Addr(off), true
	}
	return 0, false
}

// Free returns the span of n bytes at addr, as Alloc handed it out,
// and coalesces it with its free neighbours. It panics on an address
// outside the arena or off a page boundary, and on a span that
// overlaps free space (a double free).
func (a *Arena) Free(addr Addr, n uint64) {
	n = pages(n)
	off := uint64(addr - a.base)
	if addr < a.base || off >= a.size || n > a.size-off || off%PageSize != 0 {
		panic(fmt.Sprintf("mem: free of [%#x, +%d) outside arena [%#x, +%d) or off a page", uint64(addr), n, uint64(a.base), a.size))
	}
	// Spans are disjoint and sorted, so only the last free span below
	// off and the first at or above it can overlap the freed span.
	i, _ := slices.BinarySearchFunc(a.free, off, func(s span, off uint64) int { return cmp.Compare(s.off, off) })
	prevEnd, nextOff := uint64(0), a.size
	if i > 0 {
		prevEnd = a.free[i-1].off + a.free[i-1].n
	}
	if i < len(a.free) {
		nextOff = a.free[i].off
	}
	if prevEnd > off || off+n > nextOff {
		panic(fmt.Sprintf("mem: free of [%#x, +%d) overlaps free arena space (double free?)", uint64(addr), n))
	}
	prev := i > 0 && prevEnd == off
	next := i < len(a.free) && off+n == nextOff
	switch {
	case prev && next:
		a.free[i-1].n += n + a.free[i].n
		a.free = slices.Delete(a.free, i, i+1)
	case prev:
		a.free[i-1].n += n
	case next:
		a.free[i].off, a.free[i].n = off, a.free[i].n+n
	default:
		a.free = slices.Insert(a.free, i, span{off, n})
	}
	a.live--
	a.liveBytes -= n
}

// Live returns the outstanding spans and their bytes.
func (a *Arena) Live() (spans int, bytes uint64) { return a.live, a.liveBytes }

// Extent is one contiguous span.
type Extent struct {
	Addr Addr
	Len  int
}

// RingExtents appends the extents covering n consecutive entries of
// esz bytes from slot head of a ring of entries slots at base: one
// extent, or two when the span wraps past the ring's end.
func RingExtents(exts []Extent, base Addr, head, n, entries, esz int) []Extent {
	first := min(entries-head, n)
	//dcslint:allow noalloc ring loops pass a capacity-2 scratch reset to [:0]; a ring span is at most two extents
	exts = append(exts, Extent{Addr: base + Addr(uint64(head)*uint64(esz)), Len: first * esz})
	if n > first {
		//dcslint:allow noalloc see above
		exts = append(exts, Extent{Addr: base, Len: (n - first) * esz})
	}
	return exts
}
