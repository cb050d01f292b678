package ether

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). The flow state machine's two
// fields are schedule state — the phase decides whether the next burst
// collapses to a flow segment — so checkpoints must carry them.

// Snap codes the machine's phase and ramp run count.
func (s *FlowState) Snap(c *snap.Codec) {
	c.Int((*int)(&s.phase))
	c.Int(&s.runs)
	if s.phase < FlowIdle || s.phase > FlowDrain {
		c.Failf("flow phase %d out of range", s.phase)
	}
}
