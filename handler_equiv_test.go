// Handler-proc equivalence suite: the model loops run as
// run-to-completion handler procs (DESIGN.md §16), an execution
// strategy that must leave every observable of a run exactly where
// the goroutine-proc loops they replaced put it — the same events at
// the same instants with the same seq tie-breaking. The goroutine
// loops are gone, so their schedule survives as frozen goldens: an
// 8-node rack's fingerprint, makespan, and event count per (seed,
// domain count), recorded from the goroutine loops when both flavors
// still existed and matched byte-for-byte, and unchanged since then by
// every further loop conversion (only the dispatch mix moved). CI runs this file under
// -race: handler bodies execute inline on the dispatcher, so the
// detector must stay silent.
package dcsctrl_test

import (
	"testing"

	"dcsctrl/internal/bench"
	"dcsctrl/internal/sim"
)

// rackGolden is one frozen cell of the 8-node, 4 KB-per-flow rack.
// The fingerprint and makespan are the same at every decomposition;
// the event count is not (fusion depends on which nodes share an
// Env). dispatches is the handler-proc dispatch count and parks the
// goroutine-proc park count: together they pin how much of the
// schedule runs through handlers. Every park the device pumps shed
// when they became handlers reappears as one handler dispatch, so the
// two columns move in lock-step while fingerprint, makespan and
// events stay put. The NVMe loops' conversion moved 16 more in every
// cell: each of the 8 SSDs' two queue-pair loops used to park once on
// its empty queue, and now dispatches once instead.
type rackGolden struct {
	seed       uint64
	domains    int
	fp         string
	makespan   sim.Time
	events     uint64
	dispatches uint64
	parks      uint64
}

var rackGoldens = []rackGolden{
	{0, 1, "6d409c25f458e50af80f4e59aaf03be4", 94326, 6083, 4365, 802},
	{0, 2, "6d409c25f458e50af80f4e59aaf03be4", 94326, 6080, 4365, 802},
	{0, 4, "6d409c25f458e50af80f4e59aaf03be4", 94326, 6078, 4365, 802},
	{7, 1, "282b9d90989f7031969b61e262443006", 97325, 5867, 4219, 798},
	{7, 2, "282b9d90989f7031969b61e262443006", 97325, 5867, 4219, 798},
	{7, 4, "282b9d90989f7031969b61e262443006", 97325, 5867, 4219, 798},
	{42, 1, "a66e29271e381a9670cc818b647a1a36", 95386, 5948, 4271, 804},
	{42, 2, "a66e29271e381a9670cc818b647a1a36", 95386, 5948, 4271, 804},
	{42, 4, "a66e29271e381a9670cc818b647a1a36", 95386, 5946, 4271, 804},
	{0xBADCAFE, 1, "2429496e8abf72da7c970b6b849ff815", 91856, 5813, 4163, 794},
	{0xBADCAFE, 2, "2429496e8abf72da7c970b6b849ff815", 91856, 5812, 4163, 794},
	{0xBADCAFE, 4, "2429496e8abf72da7c970b6b849ff815", 91856, 5811, 4163, 794},
	{20260808, 1, "939bfd799cc8156969e29e5a860f865c", 96428, 5908, 4247, 794},
	{20260808, 2, "939bfd799cc8156969e29e5a860f865c", 96428, 5908, 4247, 794},
	{20260808, 4, "939bfd799cc8156969e29e5a860f865c", 96428, 5906, 4247, 794},
}

func rackGoldenConfig(g rackGolden) bench.RackConfig {
	return bench.RackConfig{Nodes: 8, Domains: g.domains, Bytes: 4 << 10, Seed: g.seed}
}

// TestHandlerEquivRack pins the schedule across shard decompositions:
// for every seed and domain count, the rack must reproduce the frozen
// fingerprint, makespan, event count, handler dispatch count, and park
// count exactly.
func TestHandlerEquivRack(t *testing.T) {
	cells := rackGoldens
	if testing.Short() {
		cells = []rackGolden{rackGoldens[1]} // first seed, 2 domains
	}
	for _, g := range cells {
		res := bench.RunRack(rackGoldenConfig(g))
		if fp := res.Fingerprint(); fp != g.fp {
			t.Fatalf("seed %d domains %d: fingerprint %s != golden %s", g.seed, g.domains, fp, g.fp)
		}
		if res.Makespan != g.makespan {
			t.Fatalf("seed %d domains %d: makespan %v != golden %v", g.seed, g.domains, res.Makespan, g.makespan)
		}
		if res.Events != g.events {
			t.Fatalf("seed %d domains %d: events %d != golden %d", g.seed, g.domains, res.Events, g.events)
		}
		if d := res.ShardStats.HandlerDispatches; d != g.dispatches {
			t.Fatalf("seed %d domains %d: handler dispatches %d != golden %d", g.seed, g.domains, d, g.dispatches)
		}
		if p := res.ShardStats.Parks; p != g.parks {
			t.Fatalf("seed %d domains %d: parks %d != golden %d", g.seed, g.domains, p, g.parks)
		}
	}
}
