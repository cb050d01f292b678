package sim

import (
	"fmt"
	"sort"
)

// Checkpoint support: capture and force the kernel's observable state
// at quiescent instants (DESIGN.md §17).
//
// The event heap itself is never serialized — events hold closures and
// process references, which have no stable byte representation.
// Instead, checkpoints are only legal at full quiescence (Run returned
// with nothing pending; parked service processes are fine, queued
// events are not), where the kernel state reduces to the clock, the
// sequence counter, and the dispatch statistics. Restore rebuilds the
// model from the identical configuration, settles it, overlays the
// device state, and forces these counters — after which every future
// enqueue stamps the same (time, seq) it would have in the
// straight-through run.

// EnvState is the kernel's checkpointable state: everything the
// (time, seq) stamping of future events and the run fingerprint depend
// on. Parks/handoffs/dispatches are deliberately absent — they count
// goroutine mechanics (proc starts vs pool wakes) that legitimately
// differ between a forked and a straight run while the event timeline
// stays byte-identical.
type EnvState struct {
	Now       Time
	Seq       uint64
	Steps     uint64
	Fused     uint64
	IOs       uint64
	Segments  uint64
	SegFrames uint64
}

// Quiescent reports whether the environment is checkpointable: no Run
// in progress and no queued events. Parked processes are allowed —
// service loops (NIC demux, IRQ service, ring pollers) park forever
// between bursts and hold no hidden schedule state while parked.
func (e *Env) Quiescent() bool {
	return !e.running && !e.Pending()
}

// CheckpointState captures the kernel counters. It errors unless the
// environment is quiescent: with events still queued, the heap holds
// schedule state the checkpoint cannot represent.
func (e *Env) CheckpointState() (EnvState, error) {
	if !e.Quiescent() {
		return EnvState{}, fmt.Errorf("sim: checkpoint of non-quiescent env (running=%v pending=%v)", e.running, e.Pending())
	}
	return EnvState{
		Now: e.now, Seq: e.seq, Steps: e.steps,
		Fused: e.fused, IOs: e.ios, Segments: e.segments, SegFrames: e.segFrames,
	}, nil
}

// ForceCheckpointState overlays captured kernel counters onto a
// settled environment, completing a restore. The clock may only move
// forward: snapshots are taken after a warm phase, restores happen on
// a freshly settled environment whose clock is near zero.
func (e *Env) ForceCheckpointState(s EnvState) error {
	if !e.Quiescent() {
		return fmt.Errorf("sim: restore into non-quiescent env (running=%v pending=%v)", e.running, e.Pending())
	}
	if s.Now < e.now {
		return fmt.Errorf("sim: restore would move the clock backwards (%v -> %v)", e.now, s.Now)
	}
	e.now = s.Now
	e.seq = s.Seq
	e.steps = s.Steps
	e.fused = s.Fused
	e.ios = s.IOs
	e.segments = s.Segments
	e.segFrames = s.SegFrames
	return nil
}

// AccumState is a Resource's utilization accounting, captured so
// restored runs report the same busy fractions a straight run would.
type AccumState struct {
	Busy      Time
	LastStamp Time
}

// CheckpointAccum captures the resource's busy accounting. It errors
// when units are held or waiters are parked: a checkpointable instant
// must not have work in flight on the resource.
func (r *Resource) CheckpointAccum() (AccumState, error) {
	if r.inUse != 0 {
		return AccumState{}, fmt.Errorf("sim: checkpoint of resource %q with %d units in use", r.name, r.inUse)
	}
	if n := r.waiters.len(); n != 0 {
		return AccumState{}, fmt.Errorf("sim: checkpoint of resource %q with %d waiters", r.name, n)
	}
	return AccumState{Busy: r.busy, LastStamp: r.lastStamp}, nil
}

// RestoreAccum overlays captured busy accounting onto an idle resource.
func (r *Resource) RestoreAccum(s AccumState) error {
	if r.inUse != 0 || r.waiters.len() != 0 {
		return fmt.Errorf("sim: restore into busy resource %q", r.name)
	}
	r.busy = s.Busy
	r.lastStamp = s.LastStamp
	return nil
}

// BWState is a BandwidthServer's cumulative accounting.
type BWState struct {
	Accum AccumState
	Bytes int64
	Xfers int64
}

// CheckpointBW captures the server's cumulative counters.
func (b *BandwidthServer) CheckpointBW() (BWState, error) {
	a, err := b.res.CheckpointAccum()
	if err != nil {
		return BWState{}, err
	}
	return BWState{Accum: a, Bytes: b.bytes, Xfers: b.xfers}, nil
}

// RestoreBW overlays captured counters onto an idle server.
func (b *BandwidthServer) RestoreBW(s BWState) error {
	if err := b.res.RestoreAccum(s.Accum); err != nil {
		return err
	}
	b.bytes = s.Bytes
	b.xfers = s.Xfers
	return nil
}

// WaiterNames returns the names of the processes currently enrolled on
// the condition, in park order. Park order is wake order: Broadcast
// wakes waiters front to back, and at a same-instant wake the enqueue
// order decides which predicate re-check runs first. A checkpoint of a
// condition with several parked service processes must therefore
// record the order so a restore can reproduce it.
func (c *Cond) WaiterNames() []string {
	names := make([]string, len(c.waiters))
	for i, w := range c.waiters {
		names[i] = w.name
	}
	return names
}

// ReorderWaiters permutes the condition's parked waiters to match the
// given name order. The name multiset must match the enrolled waiters
// exactly; names must be unique (service-loop names are).
func (c *Cond) ReorderWaiters(names []string) error {
	if len(names) != len(c.waiters) {
		return fmt.Errorf("sim: cond has %d waiters, restore order lists %d", len(c.waiters), len(names))
	}
	byName := make(map[string]*Proc, len(c.waiters))
	for _, w := range c.waiters {
		if byName[w.name] != nil {
			return fmt.Errorf("sim: duplicate cond waiter name %q", w.name)
		}
		byName[w.name] = w
	}
	ordered := make([]*Proc, len(names))
	for i, n := range names {
		p := byName[n]
		if p == nil {
			return fmt.Errorf("sim: cond waiter %q absent at restore", n)
		}
		ordered[i] = p
		delete(byName, n)
	}
	copy(c.waiters, ordered)
	return nil
}

// CheckpointQueue returns a copy of the queue's live items in FIFO
// order. Order is state: a restored queue must hand out items in the
// exact sequence the straight run would.
func CheckpointQueue[T any](q *Queue[T]) []T {
	return append([]T(nil), q.items[q.itemHead:]...)
}

// RestoreQueue replaces the queue's content with items. A non-empty
// restore into a queue with parked waiters is inconsistent state — a
// Put would have woken one — and errors.
func RestoreQueue[T any](q *Queue[T], items []T) error {
	if len(items) > 0 && q.waiters.len() > 0 {
		return fmt.Errorf("sim: restore of %d items into queue %q with waiters", len(items), q.name)
	}
	var zero T
	for i := range q.items {
		q.items[i] = zero
	}
	q.items = append(q.items[:0], items...)
	q.itemHead = 0
	return nil
}

// SortedKeys returns the map's keys in sorted order — the collect/
// sort/index idiom snapshot encoders use so encode order can never
// leak map iteration order (dcslint maporder).
func SortedKeys[K ~uint64 | ~uint32 | ~uint16 | ~int | ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
