package trace

import (
	"cmp"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/snap"
)

// Checkpoint support (DESIGN.md §17): the account's window start and
// per-category busy map, categories sorted so encode order never
// leaks map iteration order.

// Snap codes the account state; a load replaces it.
func (a *CPUAccount) Snap(c *snap.Codec) {
	c.I64((*int64)(&a.start))
	sim.SnapMap(c, &a.busy, cmp.Less[Category], 4+8, func(cat *Category, busy *sim.Time) {
		c.Str((*string)(cat))
		c.I64((*int64)(busy))
	})
}
