// Device-package cases, checked under the import path of the NIC
// model: device pumps are handler procs, so every reference to the
// goroutine-proc Spawn is flagged — called or taken as a method
// value — while SpawnHandler passes.
package nic

import "dcsctrl/internal/sim"

type pump struct{}

func (pump) run(h *sim.HandlerCtx) {}

func pumps(e *sim.Env) {
	e.Spawn("tx", func(p *sim.Proc) {}) // want `goroutine proc spawned in device package dcsctrl/internal/nic`
	spawn := e.Spawn                    // want `goroutine proc spawned in device package`
	_ = spawn
	e.SpawnHandler("rx", pump{}.run)
}

func allowed(e *sim.Env) {
	//dcslint:allow nogoroutine fixture: a reasoned exception still passes
	e.Spawn("legacy", func(p *sim.Proc) {})
}
