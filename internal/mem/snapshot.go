package mem

import (
	"slices"

	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). A memory map's state is the
// byte content of its regions plus each region's bump-allocator
// cursor. Content is load-bearing everywhere — completion-queue phase
// bits, cumulative status words, ring descriptors, staged payloads are
// all read back through View — so the snapshot captures every region
// as an authoritative sparse page image and the restore overwrites the
// whole region (zero, then apply captured pages). Write hooks are
// deliberately bypassed: a restore is state transplantation, not
// simulated traffic, and must not schedule events.

// Snap codes every region: name and size (setup-determined), allocator
// cursor, write high-water mark, and sparse data image, in address
// order — the regions slice is append-ordered by construction, so the
// encode order is deterministic without sorting. The high-water mark
// bounds the sparse scan: regions are sized like hardware, but only
// the written prefix can hold non-zero pages. A live user mapping is a
// send in progress, so a map holding one is refused: it is never
// quiescent.
func (m *Map) Snap(c *snap.Codec) {
	if k := m.UserMappings(); k != 0 {
		c.Failf("%d user mappings live (a send in progress)", k)
	}
	snap.Check(c, "regions", uint32(len(m.regions)), c.U32)
	for _, r := range m.regions {
		snap.Check(c, "region", r.Name, c.Str)
		snap.Check(c, r.Name+" size", r.Size, c.U64)
		c.U64(&r.allocOff)
		hiWater := r.hiWater
		c.U64(&hiWater)
		if r.allocOff > r.Size || hiWater > r.Size {
			c.Failf("region %s: cursor %d or high-water mark %d past its %d bytes", r.Name, r.allocOff, hiWater, r.Size)
		}
		c.Grow(int(r.hiWater) + 64) // upper bound: every live page non-zero
		// Saving, the region's own mark is the live bound. Loading, it
		// is the destination's and bounds the scrub of uncaptured
		// pages; the captured mark then becomes this region's, so a
		// re-snapshot reproduces the source bytes.
		c.Sparse(r.data, r.hiWater)
		if c.Loading() {
			r.hiWater = hiWater
		}
	}
}

// Snap codes the pool's free list in exact order. The list is LIFO
// and order is schedule state: which chunk address a future Get
// returns decides the PRP extents and DMA event shapes downstream.
func (p *ChunkPool) Snap(c *snap.Codec) {
	snap.Check(c, "pool total", p.total, c.Int)
	c.Int(&p.outMin)
	n := len(p.free)
	c.Count(&n, 8)
	if c.Loading() {
		p.free = slices.Grow(p.free[:0], n)[:n]
	}
	for i := range p.free {
		c.U64((*uint64)(&p.free[i]))
	}
}
