// Goroutine procs stay legal outside the device packages: the apps,
// the core host paths and the bench and test drivers spawn them.
package nogoroutine

import "dcsctrl/internal/sim"

func taskPath(e *sim.Env) {
	e.Spawn("task", func(p *sim.Proc) {})
}
