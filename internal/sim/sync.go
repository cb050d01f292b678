package sim

import "fmt"

// Signal is a one-shot completion flag. Processes block in Wait until
// Fire is called; Fire wakes all current and future waiters.
type Signal struct {
	env     *Env
	done    bool
	val     any
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal(e *Env) *Signal { return &Signal{env: e} }

// Fire marks the signal done and wakes all waiters. Firing twice
// panics: completions in the model must be unique.
func (s *Signal) Fire(val any) {
	if s.done {
		panic("sim: signal fired twice")
	}
	s.done = true
	s.val = val
	// Truncate in place rather than dropping the backing array: fired
	// signals are recycled (Reset) on zero-allocation paths, and the
	// next Wait must not have to grow a fresh waiter slice.
	for i, p := range s.waiters {
		s.env.wake(p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Wait blocks the process until the signal fires and returns the
// fired value: WaitH, parking while it reports false.
func (s *Signal) Wait(p *Proc) any {
	for !s.WaitH(&p.ctx) {
		p.park()
	}
	return s.val
}

// WaitH is the non-blocking form of Wait: when the signal has already
// fired it reports true and the caller proceeds inline; otherwise it
// enrolls the proc on the waiter list and reports false — a handler
// body must return and re-check on its next dispatch.
//
//dcslint:hotpath
func (s *Signal) WaitH(h *HandlerCtx) bool {
	if s.done {
		return true
	}
	//dcslint:allow noalloc waiter list is capacity-preserving (Fire truncates, keeps backing array)
	s.waiters = append(s.waiters, h.proc)
	return false
}

// Reset returns a fired signal to the unfired state so it can be
// reused — the backing primitive for deterministic signal free lists
// (sync.Pool is scheduling-dependent and therefore banned from model
// code). Only the owner that observed the completion may Reset:
// resetting an unfired signal, or one that still has parked waiters,
// is a lifecycle bug and panics.
func (s *Signal) Reset() {
	if !s.done {
		panic("sim: reset of unfired signal")
	}
	if len(s.waiters) != 0 {
		panic("sim: reset of signal with waiters")
	}
	s.done = false
	s.val = nil
}

// Cond is a broadcast condition variable: Wait parks the process until
// the next Broadcast, after which the caller re-checks its predicate
// in a loop. Unlike Queue, stale notifications accumulate no state.
type Cond struct {
	env     *Env
	waiters []*Proc
}

// NewCond returns a condition bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks until the next Broadcast: WaitH, then park. Callers must
// loop:
//
//	for !predicate() { cond.Wait(p) }
func (c *Cond) Wait(p *Proc) {
	c.WaitH(&p.ctx)
	p.park()
}

// WaitH is the non-blocking form of Wait: it enrolls the proc for the
// next Broadcast and returns. A handler body must return after calling
// it and re-check its predicate on the next dispatch:
//
//	if !predicate() { cond.WaitH(h); return }
//
//dcslint:hotpath
func (c *Cond) WaitH(h *HandlerCtx) {
	//dcslint:allow noalloc waiter list is capacity-preserving (Broadcast truncates, keeps backing array)
	c.waiters = append(c.waiters, h.proc)
}

// Broadcast wakes every currently parked waiter.
func (c *Cond) Broadcast() {
	// wake only schedules the resume event — no waiter re-enters Wait
	// until after this loop returns — so truncating in place is safe
	// and keeps the backing array for the next round of waiters.
	for i, w := range c.waiters {
		c.env.wake(w)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// waitFIFO is a FIFO of waiting procs, shared by Queue and Resource.
// It dequeues by head index and rewinds when drained, and a FIFO that
// never fully drains compacts its live window to the front instead of
// growing past its capacity, so steady-state enrol/wake cycles reuse
// one backing array forever. Reslicing (`s = s[1:]`) would instead
// bleed one element of capacity per cycle and end up allocating on
// every operation.
type waitFIFO struct {
	procs []*Proc
	head  int
}

// len returns the number of enrolled procs.
func (f *waitFIFO) len() int { return len(f.procs) - f.head }

// push enrols p at the tail.
func (f *waitFIFO) push(p *Proc) {
	if f.head > 0 && len(f.procs) == cap(f.procs) {
		n := copy(f.procs, f.procs[f.head:])
		for i := n; i < len(f.procs); i++ {
			f.procs[i] = nil
		}
		f.procs = f.procs[:n]
		f.head = 0
	}
	//dcslint:allow noalloc waiter FIFO rewinds and compacts in place, keeping its backing array
	f.procs = append(f.procs, p)
}

// pop removes and returns the longest-enrolled proc; the FIFO must be
// non-empty.
func (f *waitFIFO) pop() *Proc {
	p := f.procs[f.head]
	f.procs[f.head] = nil
	f.head++
	if f.head == len(f.procs) {
		f.procs = f.procs[:0]
		f.head = 0
	}
	return p
}

// Queue is an unbounded FIFO channel between processes. Put never
// blocks; Get blocks until an item is available. Items are delivered
// in insertion order and waiters are served in arrival order. The item
// FIFO dequeues by head index and rewinds like the waiter FIFO
// (waitFIFO), so a steady-state Put/Get cycle allocates nothing.
type Queue[T any] struct {
	env      *Env
	name     string
	items    []T
	itemHead int
	waiters  waitFIFO
}

// NewQueue returns an empty queue.
func NewQueue[T any](e *Env, name string) *Queue[T] {
	return &Queue[T]{env: e, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.itemHead }

// takeItem pops the head item, zeroing the vacated slot (queued values
// may hold pointers) and rewinding once the queue drains.
func (q *Queue[T]) takeItem() T {
	var zero T
	v := q.items[q.itemHead]
	q.items[q.itemHead] = zero
	q.itemHead++
	if q.itemHead == len(q.items) {
		q.items = q.items[:0]
		q.itemHead = 0
	}
	return v
}

// wakeWaiter wakes the longest-parked waiter, if any.
func (q *Queue[T]) wakeWaiter() {
	if q.waiters.len() > 0 {
		q.env.wake(q.waiters.pop())
	}
}

// Put appends an item and wakes the first waiter, if any.
func (q *Queue[T]) Put(v T) {
	// A queue that stays non-empty slides (head advances, tail appends)
	// and would double its backing array forever; compact the live
	// window to the front instead of growing past capacity.
	if q.itemHead > 0 && len(q.items) == cap(q.items) {
		var zero T
		n := copy(q.items, q.items[q.itemHead:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.itemHead = 0
	}
	//dcslint:allow noalloc item FIFO rewinds and compacts in place, keeping its backing array
	q.items = append(q.items, v)
	q.wakeWaiter()
}

// Get removes and returns the oldest item, blocking while empty:
// GetH, parking while it reports false.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.GetH(&p.ctx); ok {
			return v
		}
		p.park()
	}
}

// GetH is the non-blocking form of Get: when an item is available it
// is taken and returned with ok=true; otherwise the proc is enrolled on
// the waiter FIFO and ok=false — a handler body must return and retry
// on its next dispatch.
//
//dcslint:hotpath
func (q *Queue[T]) GetH(h *HandlerCtx) (T, bool) {
	if q.Len() == 0 {
		q.waiters.push(h.proc)
		var zero T
		return zero, false
	}
	v := q.takeItem()
	// If items remain and more waiters are parked, keep the chain going:
	// the wake that freed us may have raced with multiple Puts.
	if q.Len() > 0 {
		q.wakeWaiter()
	}
	return v, true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.takeItem(), true
}

// Resource is a counting semaphore with FIFO hand-off: Release grants
// the resource directly to the longest-waiting Acquire, so no waiter
// can be starved by late arrivals.
//
// A proc waits on one thing at a time, so its waiter record is the
// Proc itself (resWait/granted) rather than a per-wait allocation, and
// the waiters sit in Queue's capacity-preserving waitFIFO: contended
// Acquire/Release cycles allocate nothing in steady state, on either
// proc flavor.
type Resource struct {
	env     *Env
	name    string
	cap     int
	inUse   int
	waiters waitFIFO

	// busy-time accounting (for utilization reporting)
	busy      Time // accumulated unit-busy time
	lastStamp Time
}

// NewResource returns a resource with capacity units.
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{env: e, name: name, cap: capacity}
}

func (r *Resource) stamp() {
	now := r.env.now
	r.busy += Time(r.inUse) * (now - r.lastStamp)
	r.lastStamp = now
}

// BusyTime returns accumulated unit-busy time (unit-nanoseconds).
func (r *Resource) BusyTime() Time {
	r.stamp()
	return r.busy
}

// Acquire blocks until a unit is available and takes it: AcquireH,
// parking while it reports false.
func (r *Resource) Acquire(p *Proc) {
	for !r.AcquireH(&p.ctx) {
		p.park()
	}
}

// AcquireH is the non-blocking form of Acquire: it reports true once
// the caller holds a unit. On false the proc is enrolled (or still
// enrolled) on the FIFO waiter list; a handler body must return and
// call AcquireH again on its next dispatch. Release passes ownership
// directly to the head waiter.
//
//dcslint:hotpath
func (r *Resource) AcquireH(h *HandlerCtx) bool {
	p := h.proc
	if p.resWait == r {
		if !p.granted {
			return false // spurious dispatch: grant not ours yet
		}
		p.resWait, p.granted = nil, false
		return true
	}
	if p.resWait != nil {
		panic("sim: proc " + p.name + " acquiring " + r.name + " while enrolled on " + p.resWait.name)
	}
	if r.inUse < r.cap && r.waiters.len() == 0 {
		r.stamp()
		r.inUse++
		return true
	}
	p.resWait, p.granted = r, false
	r.waiters.push(p)
	return false
}

// Release returns a unit. If processes are waiting, ownership passes
// directly to the head waiter without the count dropping.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.waiters.len() > 0 {
		p := r.waiters.pop()
		p.granted = true
		r.env.wake(p)
		return
	}
	r.stamp()
	r.inUse--
}
