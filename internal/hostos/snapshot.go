package hostos

import (
	"cmp"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17). At a quiescent instant the host
// holds no cores and the IRQ queue is empty (the service loop parks on
// Get, which is fine), so the mutable state reduces to the core-pool
// utilization accounting and the per-category CPU account. The file
// system adds the extent allocator cursor, cache counters, and the
// resident page-cache content — data and dirty bits both decide future
// behaviour (cache hits, HDC writeback reconciliation).

// Snap codes the host's accounting state.
func (h *Host) Snap(c *snap.Codec) {
	if n := h.irqQ.Len(); n != 0 {
		c.Failf("%d IRQs queued", n)
	}
	h.Cores.Snap(c)
	h.Acct.Snap(c)
}

// Snap codes the file system: allocator cursor and cache stats, then
// the resident pages. File metadata is setup-determined — the restore
// target stages the identical files — so names and sizes are checked,
// not transplanted. Names and page indices go in sorted order so
// encode order never leaks map iteration order; a load replaces the
// cache.
func (fs *FileSystem) Snap(c *snap.Codec) {
	snap.Check(c, "allocator LBA", fs.nextLBA, c.U64)
	c.I64(&fs.hits)
	c.I64(&fs.misses)
	names := fs.Files()
	snap.Check(c, "files", uint32(len(names)), c.U32)
	for _, n := range names {
		snap.Check(c, "file", n, c.Str)
		snap.Check(c, n+" size", uint64(fs.files[n].Size), c.U64)
	}
	if c.Loading() {
		fs.cachePages = 0
	}
	sim.SnapMap(c, &fs.cache, cmp.Less[string], 4+4, func(name *string, pages *map[int]*pageState) {
		c.Str(name)
		sim.SnapMap(c, pages, cmp.Less[int], 8+1+4, func(idx *int, ps **pageState) {
			if c.Loading() {
				*ps = &pageState{}
				fs.cachePages++
			}
			c.Int(idx)
			c.Bool(&(*ps).dirty)
			c.Bytes(&(*ps).data)
		})
	})
}
