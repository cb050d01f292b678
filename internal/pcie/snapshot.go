package pcie

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). A quiescent fabric has every
// posted write delivered (postedClock at or behind now), no MSI in
// flight, no DMA in any stage and no owner entry for a region its map
// no longer holds (StaleOwners), so the state reduces to the byte
// counters and bandwidth-server accounting.
// The object free lists (recycled signals, posted-write and MSI
// records) restore empty: they trade allocations, not schedule. The
// async-DMA worker pool's idle population is schedule state, so the
// snapshot records it and a load primes it (sim.Pool.Snap).

// Snap codes the fabric state. Ports iterate in slice (ID) order,
// which is the deterministic construction order. asyncMax bounds the
// async-DMA pool a load may prime: a worker is spawned only while
// every pooled one holds a transfer, and each DMAAsync caller holds
// one of its own slots until the completion is consumed, so the pool
// never outgrows the callers' slot total.
func (f *Fabric) Snap(c *snap.Codec, asyncMax int) {
	if f.postedClock > f.env.Now() {
		c.Failf("posted write in flight (clock %v > now %v)", f.postedClock, f.env.Now())
	}
	if n := f.msis.Pending(); n != 0 {
		c.Failf("%d MSIs in flight", n)
	}
	if n := f.StaleOwners(); n != 0 {
		c.Failf("%d owner entries for unmapped regions", n)
	}
	c.I64((*int64)(&f.postedClock))
	c.I64(&f.p2pBytes)
	c.I64(&f.hostBytes)
	f.async.Snap(c, asyncMax, "callers hold at most %d transfers")
	f.core.Snap(c)
	snap.Check(c, "ports", uint32(len(f.ports)), c.U32)
	for _, p := range f.ports {
		snap.Check(c, "port", p.Name, c.Str)
		c.I64(&p.bytesIn)
		c.I64(&p.bytesOut)
		p.up.Snap(c)
		p.down.Snap(c)
	}
}
