package sim

import (
	"fmt"
	"sort"

	"dcsctrl/internal/sim/snap"
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
	Now   Time
	Seq   uint64
	Steps uint64
	Fused uint64
	IOs   uint64
}

// Snap codes the kernel counters.
func (s *EnvState) Snap(c *snap.Codec) {
	c.I64((*int64)(&s.Now))
	c.U64(&s.Seq)
	c.U64(&s.Steps)
	c.U64(&s.Fused)
	c.U64(&s.IOs)
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
		Fused: e.fused, IOs: e.ios,
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
	return nil
}

// Snap codes the resource's busy accounting, so restored runs report
// the same busy fractions a straight run would. It fails, saving or
// loading, unless the resource is idle: a checkpointable instant has
// no work in flight on it.
func (r *Resource) Snap(c *snap.Codec) {
	if r.inUse != 0 || r.waiters.len() != 0 {
		c.Failf("resource %q has %d units in use and %d waiters", r.name, r.inUse, r.waiters.len())
	}
	c.I64((*int64)(&r.busy))
	c.I64((*int64)(&r.lastStamp))
}

// Snap codes the server's cumulative accounting.
func (b *BandwidthServer) Snap(c *snap.Codec) {
	b.res.Snap(c)
	c.I64(&b.bytes)
	c.I64(&b.xfers)
}

// SnapWaiters codes the names of the processes parked on the
// condition, in park order. Park order is wake order: Broadcast wakes
// waiters front to back, and at a same-instant wake the enqueue order
// decides which predicate re-check runs first. A load permutes the
// target's parked waiters into the captured order; the two name sets
// must match exactly, and names must be unique (service-loop names
// are).
func (cd *Cond) SnapWaiters(c *snap.Codec) {
	snap.Check(c, "cond waiters", uint32(len(cd.waiters)), c.U32)
	if !c.Loading() {
		for _, w := range cd.waiters {
			name := w.name
			c.Str(&name)
		}
		return
	}
	byName := make(map[string]*Proc, len(cd.waiters))
	for _, w := range cd.waiters {
		byName[w.name] = w
	}
	ordered := make([]*Proc, 0, len(cd.waiters))
	for range cd.waiters {
		var name string
		c.Str(&name)
		p := byName[name]
		if p == nil {
			c.Failf("cond waiter %q absent at restore or listed twice", name)
		}
		if c.Err() != nil {
			return
		}
		ordered = append(ordered, p)
		delete(byName, name)
	}
	copy(cd.waiters, ordered)
}

// SnapQueue codes the queue's live items in FIFO order, each through
// item and of at least minSize bytes. Order is state: a restored queue
// must hand out items in the exact sequence the straight run would. A
// load replaces the content; a non-empty load into a queue with parked
// waiters is inconsistent state (a Put would have woken one) and
// fails.
func SnapQueue[T any](c *snap.Codec, q *Queue[T], minSize int, item func(*T)) {
	n := q.Len()
	c.Count(&n, minSize)
	if !c.Loading() {
		for i := q.itemHead; i < len(q.items); i++ {
			item(&q.items[i])
		}
		return
	}
	if n > 0 && q.waiters.len() > 0 {
		c.Failf("%d items into queue %q with waiters", n, q.name)
	}
	if c.Err() != nil {
		return
	}
	clear(q.items)
	q.items, q.itemHead = q.items[:0], 0
	for range n {
		var v T
		item(&v)
		q.items = append(q.items, v)
	}
}

// SnapMap codes a map as a counted list of entries, each through entry
// and of at least minSize bytes, in ascending key order under less —
// the collect/sort/index idiom, so encode order can never leak map
// iteration order (dcslint maporder). A load replaces *m and fails on
// keys out of order, so every map has exactly one encoding.
func SnapMap[K comparable, V any](c *snap.Codec, m *map[K]V, less func(a, b K) bool, minSize int, entry func(*K, *V)) {
	// One k and v for the whole walk: entry's pointers escape, and a
	// pair per entry would allocate per flash block.
	var k, prev, zeroK K
	var v, zeroV V
	if !c.Loading() {
		keys := make([]K, 0, len(*m))
		for key := range *m {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		n := len(keys)
		c.Count(&n, minSize)
		for _, key := range keys {
			k, v = key, (*m)[key]
			entry(&k, &v)
		}
		return
	}
	var n int
	c.Count(&n, minSize)
	if c.Err() != nil {
		return
	}
	*m = make(map[K]V, n)
	for i := range n {
		k, v = zeroK, zeroV
		entry(&k, &v)
		if i > 0 && !less(prev, k) {
			c.Failf("map key %v out of order", k)
		}
		if c.Err() != nil {
			return
		}
		(*m)[k] = v
		prev = k
	}
}

// SortedKeys returns the map's keys in sorted order — the collect/
// sort/index idiom Snap methods use to walk setup-determined maps so
// encode order can never leak map iteration order (dcslint maporder).
func SortedKeys[K ~uint64 | ~uint32 | ~uint16 | ~int | ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
