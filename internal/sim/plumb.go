package sim

import "dcsctrl/internal/sim/snap"

// Device plumbing: the three kernel idioms every device model shares,
// each implemented once — a same-instant coalesced kick (DESIGN.md
// §12), a free-listed deferred call (§11) and a worker pool whose idle
// population is checkpoint state (§11, §17).

// Coalesced is an action that runs at most once per burst of raises
// at one instant: the first Raise chains it (Env.Chain) and later
// raises find it pending. The pending flag clears before the action
// runs, so an action that raises again chains a fresh run. A doorbell
// hook raises one to wake its consumer once, after the last of several
// same-instant doorbell writes is visible.
type Coalesced struct {
	env     *Env
	run     func() // bound once: clears pending, then runs the action
	pending bool
}

// NewCoalesced returns an unraised action that runs fn.
func NewCoalesced(e *Env, fn func()) *Coalesced {
	c := &Coalesced{env: e}
	c.run = func() {
		c.pending = false
		fn()
	}
	return c
}

// Raise chains the action unless a run is already pending. Chain may
// run it inline, so the action must be a pure scheduling action or the
// raise must be in tail position (see Env.Chain).
func (c *Coalesced) Raise() {
	if !c.pending {
		c.pending = true
		c.env.Chain(c.run)
	}
}

// Pending reports whether a raised run has not started yet. A
// checkpoint refuses one.
func (c *Coalesced) Pending() bool { return c.pending }

// Deferred schedules calls of one function, each with its own
// argument, without allocating per call: After takes a record from a
// free list, stores the argument and schedules the record's run
// method, bound once when the record was made. A record returns to
// the list as it fires, before the function runs. The list is driven
// only from the simulated timeline, so reuse is deterministic.
type Deferred[T any] struct {
	env     *Env
	fn      func(T)
	free    []*deferredCall[T]
	pending int
}

// deferredCall is one scheduled call of a Deferred.
type deferredCall[T any] struct {
	d   *Deferred[T]
	v   T
	run func()
}

// NewDeferred returns a deferred call of fn.
func NewDeferred[T any](e *Env, fn func(T)) *Deferred[T] {
	return &Deferred[T]{env: e, fn: fn}
}

// After runs fn(v) after delay d, through Env.Schedule.
func (d *Deferred[T]) After(delay Time, v T) {
	var c *deferredCall[T]
	if k := len(d.free); k > 0 {
		c = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		//dcslint:allow noalloc pool-miss arm: each record and its bound run are created once, then free-listed
		c = &deferredCall[T]{d: d}
		//dcslint:allow noalloc see above: one-time per record, reused forever after
		c.run = c.fire
	}
	c.v = v
	d.pending++
	d.env.Schedule(delay, c.run)
}

func (c *deferredCall[T]) fire() {
	d, v := c.d, c.v
	var zero T
	c.v = zero
	d.pending--
	d.free = append(d.free, c)
	d.fn(v)
}

// Pending returns the number of calls scheduled and not yet run.
func (d *Deferred[T]) Pending() int { return d.pending }

// Pool is a population of worker procs that park on a job queue
// between jobs, so a steady stream of jobs reuses procs instead of
// spawning one per job. Submit hands a job to a parked worker,
// counting it busy, or starts a new worker holding the job. Both
// enqueue exactly one proc event at the current instant, so pooling
// changes allocation cost, not the event timeline. A worker calls Done
// when it finishes a job, then fetches the next one with GetH.
//
// The idle population is schedule state: a Put into a pool with parked
// workers can chain-wake them (spurious re-parking dispatches that a
// fresh start never causes), so Snap records it and a restore primes
// that many workers.
type Pool[J any] struct {
	name  string
	jobs  *Queue[J]
	idle  int
	start func(job J, ok bool)
}

// NewPool returns an empty pool. start starts one worker: holding job
// when ok, otherwise (Prime) fetching its first job from the pool.
func NewPool[J any](e *Env, name string, start func(job J, ok bool)) *Pool[J] {
	return &Pool[J]{name: name, jobs: NewQueue[J](e, name+" jobs"), start: start}
}

// Submit hands job to a parked worker, or starts a new one.
func (p *Pool[J]) Submit(job J) {
	if p.idle > 0 {
		// Reserve the worker now: a second Submit in the same instant
		// must not count this one as still idle.
		p.idle--
		p.jobs.Put(job)
		return
	}
	//dcslint:allow noblockhandler a start function only spawns the worker proc (Spawn or SpawnHandler), which never parks
	//dcslint:allow noalloc pool-miss arm: a worker starts only while every worker is busy; the population then stays
	p.start(job, true)
}

// Done counts a worker that finished its job as idle; it then fetches
// its next job with GetH.
func (p *Pool[J]) Done() { p.idle++ }

// GetH takes a worker's next job (Queue.GetH): ok=false means the
// worker is enrolled on the job queue and must return (a handler) or
// park (a goroutine proc) and call again.
func (p *Pool[J]) GetH(h *HandlerCtx) (J, bool) { return p.jobs.GetH(h) }

// Prime starts n workers with no job, counted idle. A restore primes
// the checkpointed population, then runs the environment to
// quiescence so the workers reach their park points before simulated
// time resumes.
func (p *Pool[J]) Prime(n int) {
	var zero J
	for i := 0; i < n; i++ {
		p.idle++
		p.start(zero, false)
	}
}

// Snap codes the idle population. Outside [0, max] it fails with
// limit, a format that takes max; a load primes that many workers.
func (p *Pool[J]) Snap(c *snap.Codec, max int, limit string) {
	idle := p.idle
	c.Int(&idle)
	if idle < 0 || idle > max {
		c.Failf("%s pool of %d workers, "+limit, p.name, idle, max)
	}
	if c.Loading() && c.Err() == nil {
		p.Prime(idle)
	}
}
