// Goroutine procs stay legal outside the device packages: apps, bench
// drivers and the multi-stage hdc/nvme task paths spawn them.
package nogoroutine

import "dcsctrl/internal/sim"

func taskPath(e *sim.Env) {
	e.Spawn("task", func(p *sim.Proc) {})
}
