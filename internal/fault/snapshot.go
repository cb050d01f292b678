package fault

import "dcsctrl/internal/sim/snap"

// Checkpoint support (DESIGN.md §17). The injector's schedule (seed +
// profile) is configuration — the restore target is built with the
// identical injector — so the snapshot carries only the mutable part:
// each site's PRNG position and draw/fire counters. Encoding iterates
// the registered site list (stable order), never the streams map, so
// encode order cannot leak map iteration order.

// Snap codes the per-site stream positions. Sites without a stream
// (absent from the profile) encode a presence bit of zero.
func (in *Injector) Snap(c *snap.Codec) {
	snap.Check(c, "injector seed", in.seed, c.U64)
	snap.Check(c, "injector profile", in.profile.Name, c.Str)
	sites := Sites()
	snap.Check(c, "fault sites", uint32(len(sites)), c.U32)
	for _, s := range sites {
		snap.Check(c, "fault site", string(s), c.Str)
		st, ok := in.streams[s]
		snap.Check(c, string(s)+" stream presence", ok, c.Bool)
		if ok {
			c.U64(&st.state)
			c.I64(&st.draws)
			c.I64(&st.hits)
		}
	}
}
