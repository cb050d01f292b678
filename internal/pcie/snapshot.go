package pcie

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). A quiescent fabric has every
// posted write delivered (postedClock at or behind now), no MSI in
// flight, and no DMA in any stage, so the state reduces to the byte
// counters and bandwidth-server accounting.
// The object free lists (recycled signals, posted-write and MSI
// records) restore empty: they trade allocations, not schedule. The
// async-DMA worker pool is different — a parked worker woken by a
// queue Put can chain-wake further parked workers (spurious
// re-parking dispatches that a fresh Spawn never causes) — so the
// snapshot records the pool population and the restore path primes
// that many parked workers (PrimeAsyncPool), keeping the dispatch
// count byte-identical to the checkpointed process.

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
	if f.msiPending != 0 {
		c.Failf("%d MSIs in flight", f.msiPending)
	}
	c.I64((*int64)(&f.postedClock))
	c.I64(&f.p2pBytes)
	c.I64(&f.hostBytes)
	idle := f.asyncIdle
	c.Int(&idle)
	if idle < 0 || idle > asyncMax {
		c.Failf("async-DMA pool of %d workers, callers hold at most %d transfers", idle, asyncMax)
	}
	if c.Loading() && c.Err() == nil {
		f.PrimeAsyncPool(idle)
	}
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
