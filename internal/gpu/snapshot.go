package gpu

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). A quiescent GPU runs no kernel
// and no copy, so the state is the two resource accumulators and the
// counters. VRAM content is captured by the memory-map snapshot.

// Snap codes the device state.
func (g *GPU) Snap(c *snap.Codec) {
	g.copyEng.Snap(c)
	g.smUnits.Snap(c)
	c.I64(&g.kernels)
	c.I64(&g.copied)
}
