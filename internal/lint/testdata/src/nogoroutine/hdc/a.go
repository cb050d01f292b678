// Device-package cases, checked under the import path of the HDC
// Engine model: the engine's loops and per-command stages are handler
// procs, so a goroutine-proc Spawn is flagged there as in the NIC.
package hdc

import "dcsctrl/internal/sim"

type stage struct{}

func (stage) step(h *sim.HandlerCtx) {}

func stages(e *sim.Env) {
	e.Spawn("cmd", func(p *sim.Proc) {}) // want `goroutine proc spawned in device package dcsctrl/internal/hdc`
	e.SpawnHandler("cmd", stage{}.step)
}
