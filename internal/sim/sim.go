// Package sim implements a deterministic discrete-event simulation
// kernel in the style of SimPy: a single logical timeline, an event
// queue ordered by (time, sequence), and two flavors of process that
// wait through the same state machines.
//
// Exactly one goroutine (either the Run caller or the currently
// running process) executes model code at any instant, so model code
// needs no locking and every run with the same inputs produces the
// same event order.
//
// Every wait is implemented once, as a non-blocking step over a
// HandlerCtx: Rearm, the H calls (Signal.WaitH, Cond.WaitH,
// Queue.GetH, Resource.AcquireH, the BandwidthServer staged triple)
// and the Start/Step machines built on them in device packages. A
// handler proc (SpawnHandler) calls them from a run-to-completion body
// and returns while they report not done. A goroutine proc (Spawn)
// calls the blocking forms — Sleep, Wait, Get, Acquire, Transfer —
// each of which is the same step in a loop around one park point
// (Proc.Park), so both flavors produce the same schedule.
//
// The dispatch core is built for throughput — simulated experiments
// are embarrassingly parallel across environments (see
// internal/bench), so the per-event cost inside one environment is
// the floor for every figure:
//
//   - events live in a 4-ary min-heap over a value slice (no per-event
//     allocation, no container/heap interface calls);
//   - process resumptions carry a *Proc instead of a closure, so the
//     hot park/resume paths (Sleep, Yield, wake) allocate nothing;
//   - events scheduled for the current instant bypass the heap through
//     a FIFO lane (Yield/wake bursts are O(1) per event);
//   - one event loop (dispatch) runs on whichever goroutine holds the
//     dispatch role; callbacks and handler procs run inline, and control
//     transfers directly from the parking process to the next goroutine
//     proc (one channel handoff) instead of bouncing through a
//     scheduler goroutine (two handoffs).
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Convenient duration units, usable for both timestamps and durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time using time.Duration notation (e.g. "42µs").
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns the time as a floating-point number of µs.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// event is a scheduled occurrence. Events with equal deadlines fire in
// the order they were scheduled (seq), which keeps runs deterministic.
// A resumption of a parked process stores the process itself rather
// than a closure so that scheduling one allocates nothing.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // non-nil: resume this process
	fn   func() // nil iff proc is set: run this callback
}

// ErrReentrantRun is the panic value when Env.Run is entered while the
// simulation is already running — for example from inside a process or
// a scheduled callback. The old behaviour was a silent deadlock on the
// scheduler handoff; the panic names the bug instead.
var ErrReentrantRun = errors.New("sim: Env.Run called re-entrantly while the simulation is running (schedule work or spawn a process instead)")

// Env is a simulation environment: a clock, an event queue, and the
// bookkeeping needed to hand control between scheduler and processes.
type Env struct {
	now Time
	seq uint64

	// heap is a 4-ary min-heap of future events ordered by (at, seq);
	// see heap.go. fifo[fifoHead:] is the same-instant lane: events
	// scheduled for the current instant in seq order. The lane always
	// drains before the clock advances, so every entry has at == now.
	heap     []event
	fifo     []event
	fifoHead int

	horizon Time // active Run horizon (<0: run to exhaustion)
	running bool // a Run is in progress (re-entrancy guard)

	yield chan struct{} // end-of-chain signal back to the Run caller

	live  int    // processes spawned and not yet terminated
	steps uint64 // events dispatched (diagnostics)

	fused      uint64 // continuations run inline instead of enqueued
	ios        uint64 // protocol-level I/O completions (CountIO)
	parks      uint64 // goroutine-proc parks (each costs a dispatch handoff)
	handoffs   uint64 // channel handoffs between dispatching goroutines
	hdispatch  uint64 // handler-proc bodies dispatched inline
	chainDepth int    // live inline Chain nesting (runaway-recursion guard)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{yield: make(chan struct{}), horizon: -1}
}

// Now returns the current simulation time.
func (e *Env) Now() Time { return e.now }

// Steps returns the number of events dispatched so far.
func (e *Env) Steps() uint64 { return e.steps }

// Live returns the number of processes that have been spawned and have
// not yet terminated (parked processes count as live).
func (e *Env) Live() int { return e.live }

// Schedule runs fn after delay d. fn executes on whichever goroutine
// holds the dispatch role and must not block; to run blocking logic,
// have fn wake a process or spawn one.
//
//dcslint:hotpath
func (e *Env) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.enqueue(e.now+d, event{fn: fn})
}

// enqueue stamps the event's (at, seq) and queues it: current-instant
// events take the FIFO lane, future events the heap. The lane entries'
// sequence numbers always exceed those of queued heap events at the
// same instant, and next() breaks the tie, so dispatch order is
// globally (at, seq) regardless of which structure holds an event.
func (e *Env) enqueue(t Time, ev event) {
	e.seq++
	ev.at = t
	ev.seq = e.seq
	if t == e.now {
		//dcslint:allow noalloc same-instant FIFO lane keeps its capacity; steady state is 0 allocs/event (BENCH_kernel)
		e.fifo = append(e.fifo, ev)
		return
	}
	e.pushHeap(ev)
}

// next removes and returns the globally earliest event, or ok=false
// when the queue is exhausted or the next event lies beyond the
// horizon (which only heap events can: lane events are at the current
// instant, and the clock never passes the horizon).
func (e *Env) next() (event, bool) {
	if e.fifoHead < len(e.fifo) {
		f := &e.fifo[e.fifoHead]
		if n := len(e.heap); n == 0 || e.heap[0].at > f.at ||
			(e.heap[0].at == f.at && e.heap[0].seq > f.seq) {
			ev := *f
			*f = event{} // drop fn/proc references for GC
			e.fifoHead++
			if e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0] // reuse the lane's backing array
				e.fifoHead = 0
			} else if e.fifoHead >= 32 && e.fifoHead*2 >= len(e.fifo) {
				// Steady-state ping-pong never fully drains the lane
				// (there is always one pending resume), so compact the
				// consumed prefix instead of growing forever.
				n := copy(e.fifo, e.fifo[e.fifoHead:])
				clearTail := e.fifo[n:]
				for i := range clearTail {
					clearTail[i] = event{}
				}
				e.fifo = e.fifo[:n]
				e.fifoHead = 0
			}
			return ev, true
		}
		// A heap event at the same instant was scheduled earlier; it
		// cannot be beyond the horizon because the lane entry is not.
		return e.popHeap(), true
	}
	if len(e.heap) == 0 {
		return event{}, false
	}
	if e.horizon >= 0 && e.heap[0].at > e.horizon {
		return event{}, false
	}
	ev := e.popHeap()
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	return ev, true
}

// Run dispatches events until the queue is empty or the clock would
// pass horizon (horizon < 0 means run to exhaustion). It returns the
// final simulation time. Events beyond the horizon remain queued, so
// Run may be called again to continue. Run is not re-entrant: calling
// it from inside a process or callback panics with ErrReentrantRun.
func (e *Env) Run(horizon Time) Time {
	if e.running {
		panic(ErrReentrantRun)
	}
	e.running = true
	defer func() { e.running = false }()
	e.horizon = horizon
	// Hand the dispatch role to each goroutine proc the loop reaches;
	// control returns here only when the whole chain of handoffs ends.
	for p := e.dispatch(); p != nil; p = e.dispatch() {
		e.pass(p)
		<-e.yield
	}
	if horizon > e.now {
		e.now = horizon
	}
	return e.now
}

// Pending reports whether any events remain queued.
func (e *Env) Pending() bool { return e.fifoHead < len(e.fifo) || len(e.heap) > 0 }

// NextAt reports the deadline of the globally earliest queued event
// without dispatching it. Lane entries are always at the current
// instant, which no heap event can precede, so the lane head wins when
// the lane is non-empty. Conservative window coordinators (sim/shard)
// use this to pick the next execution window's start.
func (e *Env) NextAt() (Time, bool) {
	if e.fifoHead < len(e.fifo) {
		return e.fifo[e.fifoHead].at, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// pendingNow reports whether any already-queued event is due at the
// current instant. While false, the next dispatch would be the event we
// are about to enqueue, so running it inline is schedule-identical.
func (e *Env) pendingNow() bool {
	return e.fifoHead < len(e.fifo) || (len(e.heap) > 0 && e.heap[0].at == e.now)
}

// maxChainDepth bounds live inline Chain nesting. Legal protocol
// batching fuses a handful of frames deep; anything approaching this
// limit is a same-instant recursion bug (see dcslint nochainrecursion).
const maxChainDepth = 1 << 16

// Chain schedules fn at the current instant, running it inline when
// that is schedule-identical to enqueueing: no queued event is due now
// (so fn would be dispatched next anyway). Callers must only Chain
// continuations that are either in tail position of the current event
// or pure scheduling actions (wakes/broadcasts with no other observable
// effect) — otherwise inline execution could reorder observable work
// relative to the enqueued schedule. When same-instant work is already
// queued, fn is enqueued normally.
//
//dcslint:hotpath
func (e *Env) Chain(fn func()) {
	if !e.pendingNow() {
		e.fused++
		e.chainDepth++
		if e.chainDepth > maxChainDepth {
			panic("sim: Chain recursion exceeded maxChainDepth (unbounded same-instant recursion?)")
		}
		//dcslint:allow noalloc fused continuation invoked inline; its allocation behaviour is judged at its creation site
		fn()
		e.chainDepth--
		return
	}
	e.enqueue(e.now, event{fn: fn})
}

// CountIO records n protocol-level I/O completions (NVMe CQEs, NIC wire
// frames, HDC command completions) for events-per-I/O accounting.
func (e *Env) CountIO(n int) { e.ios += uint64(n) }

// Stats is a snapshot of per-run kernel dispatch counters.
type Stats struct {
	Events uint64 // events dispatched through the queue
	Fused  uint64 // continuations fused inline (Chain / Yield fast path)
	IOs    uint64 // protocol I/O completions recorded via CountIO
	// SegFrames is always 0: every frame crosses the wire one by one.
	// It counted frames booked by the deleted wire-claim path and
	// stays only because the benchmark harness (perfbench) reads it.
	SegFrames uint64

	// The park/handoff tax, first-class: every goroutine-proc park
	// costs at least one channel handoff to move the dispatch role;
	// handler dispatches are the same wakes served inline for free.
	Parks             uint64 // goroutine-proc parks
	Handoffs          uint64 // channel handoffs between dispatching goroutines
	HandlerDispatches uint64 // handler-proc bodies invoked inline
}

// EventsPerIO returns dispatched events per recorded I/O (0 if none).
func (s Stats) EventsPerIO() float64 {
	if s.IOs == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.IOs)
}

// Stats returns the environment's dispatch counters.
func (e *Env) Stats() Stats {
	return Stats{
		Events: e.steps, Fused: e.fused, IOs: e.ios,
		Parks: e.parks, Handoffs: e.handoffs, HandlerDispatches: e.hdispatch,
	}
}

// dispatch is the kernel's event loop. It runs on whichever goroutine
// holds the dispatch role, dispatching events in (at, seq) order —
// callbacks and handler procs inline — until one resumes a goroutine
// proc, which it returns: the caller either keeps the role (its own
// wake) or passes it on. It returns nil when the queue is exhausted or
// the next event lies beyond the horizon.
func (e *Env) dispatch() *Proc {
	for {
		ev, ok := e.next()
		if !ok {
			return nil
		}
		e.now = ev.at
		e.steps++
		if p := ev.proc; p != nil {
			if p.hfn == nil {
				return p
			}
			e.runHandler(p)
			continue
		}
		//dcslint:allow noalloc kernel event dispatch; scheduled fns are judged at their creation sites
		ev.fn()
	}
}

// pass hands the dispatch role to goroutine proc p, or back to the Run
// caller when p is nil (the chain of events has ended).
func (e *Env) pass(p *Proc) {
	e.handoffs++
	if p == nil {
		e.yield <- struct{}{}
		return
	}
	if p.dead {
		panic("sim: resuming terminated process " + p.name)
	}
	p.resume <- struct{}{}
}

// runHandler invokes a handler proc's body inline on the dispatching
// goroutine. The body runs to completion (having re-armed itself or
// enrolled on a sync edge) and control stays with the dispatcher.
func (e *Env) runHandler(p *Proc) {
	if p.dead {
		panic("sim: dispatching terminated handler proc " + p.name)
	}
	e.hdispatch++
	//dcslint:allow noalloc handler bodies are judged at their creation sites (noblockhandler walks them)
	p.hfn(&p.ctx)
}

// Proc is a simulation process: a goroutine that runs model logic and
// parks on the scheduler whenever it waits for simulated time or for a
// synchronization object.
//
// A Proc with hfn set is the second flavor — a handler proc (see
// SpawnHandler): it has no goroutine and no resume channel, and its
// wake events invoke hfn inline on the dispatching goroutine. Both
// flavors wait through the same HandlerCtx steps, the same wake path
// and the same waiter records, so schedules are identical across
// flavors.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	dead   bool

	// The proc's Resource waiter record: a proc waits on one thing at
	// a time, so enrolment needs no per-wait allocation.
	resWait *Resource // resource the proc is enrolled on (nil: none)
	granted bool      // Release passed resWait's unit to this proc

	hfn func(*HandlerCtx) // handler body; non-nil marks a handler proc
	ctx HandlerCtx        // the proc's wait context (ctx.proc is the proc)
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.env.now }

// Ctx returns the process's wait context, the handle every H call and
// Start/Step machine takes. A goroutine proc that drives one parks
// (Park) each time it reports not done, then calls it again.
func (p *Proc) Ctx() *HandlerCtx { return &p.ctx }

// Spawn creates a process and schedules it to start immediately (at
// the current simulation time, after already-queued events).
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	p.ctx.proc = p
	e.live++
	go func() {
		<-p.resume // wait for the scheduler to start us
		fn(p)
		p.dead = true
		e.live--
		e.pass(e.dispatch())
	}()
	e.enqueue(e.now, event{proc: p})
	return p
}

// HandlerCtx is a proc's wait context. Every proc embeds one; a
// handler proc's body receives it on each dispatch, and a goroutine
// proc's is Proc.Ctx.
//
// A handler proc is a run-to-completion state machine dispatched
// inline by the event loop (see SpawnHandler). The body may schedule
// events, ring doorbells, fire signals, and re-arm itself, but it must
// never block — every park-capable API panics on a handler proc (and
// dcslint noblockhandler proves the absence statically). Waiting is
// expressed by enrolling on a Signal/Cond/Queue/Resource edge through
// the non-blocking H variants and returning; the next wake re-invokes
// the body, which re-checks its state exactly like a goroutine proc
// re-checks its predicate after a park.
type HandlerCtx struct {
	proc *Proc
}

// SpawnHandler creates a handler proc and schedules its first dispatch
// immediately (at the current simulation time, after already-queued
// events) — the same first event a goroutine Spawn consumes, so the
// two flavors are schedule-identical from birth.
func (e *Env) SpawnHandler(name string, fn func(*HandlerCtx)) *HandlerCtx {
	p := &Proc{env: e, name: name, hfn: fn}
	p.ctx.proc = p
	e.live++
	e.enqueue(e.now, event{proc: p})
	return &p.ctx
}

// Name returns the handler proc's name given at SpawnHandler time.
func (h *HandlerCtx) Name() string { return h.proc.name }

// Env returns the environment the handler proc belongs to.
func (h *HandlerCtx) Env() *Env { return h.proc.env }

// Now returns the current simulation time.
func (h *HandlerCtx) Now() Time { return h.proc.env.now }

// Rearm schedules the proc's next wake after d. A handler body saves
// its continuation state and returns, to be re-invoked then; Sleep is
// Rearm followed by a park. Rearm(0) re-arms at the current instant
// behind already-queued events (what Yield waits on); a body that may
// legally continue inline should simply keep running instead.
//
//dcslint:hotpath
func (h *HandlerCtx) Rearm(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v in %s", d, h.proc.name))
	}
	e := h.proc.env
	e.enqueue(e.now+d, event{proc: h.proc})
}

// Exit terminates the handler proc: the body must return immediately
// after calling it and no wake may still be pending. Dispatching a
// terminated handler proc panics, mirroring goroutine-proc resumption.
func (h *HandlerCtx) Exit() {
	if h.proc.dead {
		panic("sim: handler proc " + h.proc.name + " exited twice")
	}
	h.proc.dead = true
	h.proc.env.live--
}

// Park blocks a goroutine proc until its next wake. It is the one park
// point of every blocking call: the caller has just enrolled the proc
// through an H call or a machine's Step that reported not done, and
// calls it again after Park returns. Parking a handler proc panics.
func (p *Proc) Park() { p.park() }

// park runs the event loop on the parking goroutine until the loop
// reaches the proc's own wake (keep running) or another goroutine
// proc's (hand it the dispatch role and wait to be resumed), so the
// common case costs one channel handoff.
func (p *Proc) park() {
	if p.hfn != nil {
		panic("sim: handler proc " + p.name + " called a blocking API (re-arm on a Signal/Cond edge or use the non-blocking H variants instead)")
	}
	e := p.env
	e.parks++
	next := e.dispatch()
	if next == p {
		return
	}
	e.pass(next)
	<-p.resume
}

// wake schedules p to resume at the current time.
func (e *Env) wake(p *Proc) {
	e.enqueue(e.now, event{proc: p})
}

// Sleep advances the process by d of simulated time: Rearm(d) and
// park. A zero sleep returns at once, with no event.
//
//dcslint:hotpath
func (p *Proc) Sleep(d Time) {
	if d == 0 {
		return
	}
	p.ctx.Rearm(d)
	p.park()
}

// Yield lets every event already scheduled for the current instant run
// before the process continues. When nothing is due at the current
// instant, the round trip through the queue is skipped entirely: an
// enqueued resume would pop straight back (park's own-wake case), so
// returning immediately is schedule-identical.
//
//dcslint:hotpath
func (p *Proc) Yield() {
	e := p.env
	if !e.pendingNow() {
		e.fused++
		return
	}
	p.ctx.Rearm(0)
	p.park()
}
