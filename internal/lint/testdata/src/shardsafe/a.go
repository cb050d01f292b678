// shardsafe cases: state reachable from one shard domain's sim.Env
// must not be mutably reachable from another. Package-level variables
// written from simulated-timeline code (proc bodies and everything
// they call) and shard.Kernel.AddNode sinks that capture state from
// outside the per-node wiring loop are both cross-domain races under
// the conservative-parallel kernel.
package shardsafe

import (
	"dcsctrl/internal/sim"
	"dcsctrl/internal/sim/shard"
)

// The seeded mutation from the acceptance criteria: a proc body
// incrementing a package-level map.
var opCounts = map[int]int{}

var totalOps int

var diag int

func model(env *sim.Env, id int) {
	env.Spawn("model", func(p *sim.Proc) {
		opCounts[id]++ // want `package-level variable shardsafe\.opCounts incremented from simulated-timeline code`
	})
}

// A write two calls deep is found through the call graph, with the
// chain in the diagnostic.
func bump() {
	totalOps++ // want `package-level variable shardsafe\.totalOps incremented from simulated-timeline code: shard domains share it without synchronization \[func literal → shardsafe\.bump\]`
}

func spawnIndirect(env *sim.Env) {
	env.Spawn("indirect", func(p *sim.Proc) {
		bump()
	})
}

// The escape hatch documents deliberate single-domain instrumentation.
func spawnAllowed(env *sim.Env) {
	env.Spawn("allowed", func(p *sim.Proc) {
		//dcslint:allow shardsafe single-domain debug rig, never run under the shard kernel
		diag++
	})
}

// Locals captured by a proc are that proc's own state: fine.
func spawnLocal(env *sim.Env) {
	count := 0
	env.Spawn("local", func(p *sim.Proc) {
		count++
	})
}

type node struct{ seen int }

func (n *node) inject(frame []byte) { n.seen++ }

func drop(frame []byte) {}

// Per-node wiring: sinks may only reference state created in the
// loop iteration that registers them.
func wire(k *shard.Kernel, domains []*shard.Domain, nodes []*node) {
	var stray *node
	for i := range nodes {
		d := domains[i%len(domains)]
		local := nodes[i]
		k.AddNode(i, d, func(frame []byte) { local.inject(frame) }) // ok: loop-local capture
		k.AddNode(i, d, local.inject)                               // ok: loop-local receiver
		k.AddNode(i, d, drop)                                       // ok: package-level func binds nothing
		k.AddNode(i, d, func(frame []byte) { stray.inject(frame) }) // want `shard sink captures "stray" declared outside the per-node wiring loop: cross-domain pointer capture`
	}
	_ = stray
}

// A method-value sink bound to a receiver hoisted out of the loop
// aliases that receiver into every domain.
func wireShared(k *shard.Kernel, domains []*shard.Domain, n0 *node) {
	for i := 0; i < 4; i++ {
		k.AddNode(i, domains[0], n0.inject) // want `shard sink binds receiver "n0" declared outside the per-node wiring loop: cross-domain pointer capture`
	}
}

// The escape hatch covers deliberately shared read-only sinks.
func wireAllowed(k *shard.Kernel, domains []*shard.Domain, sink *node) {
	for i := 0; i < 4; i++ {
		//dcslint:allow shardsafe shared metrics sink is append-only and merged at the barrier
		k.AddNode(i, domains[0], sink.inject)
	}
}

// The kernel's plumbing types register their functions on the
// simulated timeline too: a deferred call, a coalesced action and a
// worker pool's start function.
var plumbed int

func plumbing(env *sim.Env) {
	sim.NewDeferred(env, func(n int) {
		plumbed += n // want `package-level variable shardsafe\.plumbed assigned from simulated-timeline code`
	})
	sim.NewCoalesced(env, func() {
		plumbed = 0 // want `package-level variable shardsafe\.plumbed assigned from simulated-timeline code`
	})
	sim.NewPool(env, "workers", func(job int, ok bool) {
		plumbed = job // want `package-level variable shardsafe\.plumbed assigned from simulated-timeline code`
	})
}
