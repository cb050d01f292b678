// noblockhandler cases: a handler proc (sim.Env.SpawnHandler) runs
// inline on the dispatcher's goroutine, so its body must never reach
// a park-capable API — waiting is expressed by enrolling on a
// Signal/Cond edge or re-arming, never by blocking. The analyzer
// proves this transitively over the module call graph and flags
// unprovable dynamic calls conservatively.
package noblockhandler

import "dcsctrl/internal/sim"

type machine struct {
	env *sim.Env
	sig *sim.Signal
	q   *sim.Queue[int]
	res *sim.Resource
	p   *sim.Proc // a smuggled goroutine-proc handle: the bug under test
	fn  func()
}

// Clean handler: waits by enrolling on kernel edges and re-arming.
func spawnClean(env *sim.Env, sig *sim.Signal, q *sim.Queue[int]) {
	m := &machine{env: env, sig: sig, q: q}
	env.SpawnHandler("clean", m.runClean)
}

func (m *machine) runClean(h *sim.HandlerCtx) {
	if !m.sig.WaitH(h) {
		return
	}
	if v, ok := m.q.GetH(h); ok {
		_ = v
		h.Rearm(5)
	}
}

// The seeded violation from the acceptance criteria: the handler body
// parks directly through a blocking kernel API.
func spawnDirect(env *sim.Env, res *sim.Resource) {
	m := &machine{env: env, res: res}
	env.SpawnHandler("direct", m.runDirect)
}

func (m *machine) runDirect(h *sim.HandlerCtx) {
	m.res.Acquire(m.p) // want `handler proc \(\*noblockhandler\.machine\)\.runDirect reaches park-capable \(\*sim\.Resource\)\.Acquire`
	m.res.Release()
}

// A park two calls deep is found through the call graph; the chain
// names the API-level sink, not the kernel-internal park.
func spawnBlocking(env *sim.Env, sig *sim.Signal) {
	m := &machine{env: env, sig: sig}
	env.SpawnHandler("blocking", m.runBlocking)
}

func (m *machine) runBlocking(h *sim.HandlerCtx) {
	m.drain() // want `handler proc \(\*noblockhandler\.machine\)\.runBlocking reaches park-capable \(\*sim\.Signal\)\.Wait: .* \[\(\*noblockhandler\.machine\)\.runBlocking → \(\*noblockhandler\.machine\)\.drain → \(\*sim\.Signal\)\.Wait\]`
}

func (m *machine) drain() {
	m.sig.Wait(m.p)
}

// A dynamic call cannot be proven park-free: flagged conservatively.
func spawnDynamic(env *sim.Env, fn func()) {
	m := &machine{env: env, fn: fn}
	env.SpawnHandler("dynamic", m.runDynamic)
}

func (m *machine) runDynamic(h *sim.HandlerCtx) {
	m.fn() // want `cannot prove handler proc \(\*noblockhandler\.machine\)\.runDynamic never blocks: call through a func value`
}

// The escape hatch documents a proven-safe dynamic site.
func spawnAllowed(env *sim.Env, fn func()) {
	m := &machine{env: env, fn: fn}
	env.SpawnHandler("allowed", m.runAllowed)
}

func (m *machine) runAllowed(h *sim.HandlerCtx) {
	//dcslint:allow noblockhandler completion-fn table holds only event-scheduling closures
	m.fn()
}

// An opaque func value cannot be checked at all.
var opaque func(*sim.HandlerCtx)

func spawnOpaque(env *sim.Env) {
	env.SpawnHandler("opaque", opaque) // want `handler proc registered with an opaque func value dcslint cannot check for blocking calls \[noblockhandler\.spawnOpaque\]`
}

// A func literal body is checked like any named root.
func spawnLit(env *sim.Env, sig *sim.Signal) {
	env.SpawnHandler("lit", func(h *sim.HandlerCtx) {
		if !sig.WaitH(h) {
			return
		}
		h.Exit()
	})
}

// Proc.Park is the park point that blocking loops outside the kernel
// call; a handler reaching it is flagged like any blocking API.
func spawnPark(env *sim.Env) {
	m := &machine{env: env}
	env.SpawnHandler("park", m.runPark)
}

func (m *machine) runPark(h *sim.HandlerCtx) {
	m.p.Park() // want `handler proc \(\*noblockhandler\.machine\)\.runPark reaches park-capable \(\*sim\.Proc\)\.Park`
}

// A body bound once into a func-typed field, then registered through
// the field, is checked like the method value itself: the analyzer
// resolves the field to every value stored into it. A field given an
// opaque value, or never stored, cannot be checked.
type bound struct {
	sig     *sim.Signal
	p       *sim.Proc
	cleanFn func(*sim.HandlerCtx)
	blockFn func(*sim.HandlerCtx)
	litFn   func(*sim.HandlerCtx)
	anyFn   func(*sim.HandlerCtx)
	neverFn func(*sim.HandlerCtx)
}

func newBound(sig *sim.Signal, fn func(*sim.HandlerCtx)) *bound {
	b := &bound{sig: sig, litFn: func(h *sim.HandlerCtx) { h.Exit() }}
	b.cleanFn, b.blockFn = b.runClean, b.runBlock
	b.anyFn = fn
	return b
}

func spawnBound(env *sim.Env, b *bound) {
	env.SpawnHandler("bound-clean", b.cleanFn)
	env.SpawnHandler("bound-block", b.blockFn)
	env.SpawnHandler("bound-lit", b.litFn)
	env.SpawnHandler("bound-opaque", b.anyFn)  // want `handler proc registered with an opaque func value dcslint cannot check for blocking calls \[noblockhandler\.spawnBound\]`
	env.SpawnHandler("bound-never", b.neverFn) // want `handler proc registered with an opaque func value dcslint cannot check for blocking calls \[noblockhandler\.spawnBound\]`
}

func (b *bound) runClean(h *sim.HandlerCtx) {
	if !b.sig.WaitH(h) {
		return
	}
	h.Exit()
}

func (b *bound) runBlock(h *sim.HandlerCtx) {
	b.sig.Wait(b.p) // want `handler proc \(\*noblockhandler\.bound\)\.runBlock reaches park-capable \(\*sim\.Signal\)\.Wait`
}
