// Package shard executes several sim.Env event queues in parallel
// under conservative lookahead synchronization, the SimBricks-style
// fixed-latency trick: every cross-domain interaction travels over a
// fabric link with a non-zero minimum latency Δ, so all domains can
// safely run any window [B, B+Δ) in parallel — nothing a domain does
// inside the window can affect another domain before the window ends.
//
// Determinism is absolute, not statistical: a run's results are
// byte-identical at any worker count AND any domain decomposition.
// Three mechanisms carry the guarantee (DESIGN.md §14):
//
//  1. Domains share no state. Every node's devices, memory, and
//     processes live in exactly one domain's Env, and all node-to-node
//     traffic — even between nodes of the same domain — crosses the
//     fabric.
//  2. The fabric is sequential. Cross-node frames become time-stamped
//     messages gathered at each barrier and injected into a
//     single-threaded fabric engine owned by the coordinator, node ids
//     ascending and each node's departures in the order it sent them.
//     The fabric orders events by time and equal times by call order,
//     so it sees every frame in the decomposition-invariant order
//     (departure time, source node, per-source order), and link
//     contention is resolved in one deterministic order regardless of
//     sharding.
//  3. Windows only partition time. Running [B, W] on one goroutine or
//     eight, or re-cutting window boundaries, never reorders any
//     domain's own (at, seq) dispatch.
//
// This package is, with the kernel itself, the only simulation code
// allowed to use goroutines and channels (dcslint nogoroutine policy):
// its worker pool and barriers are pure execution-engine concurrency,
// invisible to the simulated timeline.
package shard

import (
	"fmt"
	"sync"

	"dcsctrl/internal/sim"
)

// Fabric is the coordinator-owned interconnect between domains. It
// must be deterministic and single-threaded: the kernel calls it only
// from the barrier, never concurrently with domain execution.
//
// Inject enters a frame departing src at time at; AdvanceTo processes
// all fabric events with deadline ≤ t, invoking deliver for each frame
// reaching its destination node by t; NextTime reports the earliest
// pending fabric event. Injections must never create fabric events at
// or before already-processed times — the lookahead bound guarantees
// this when windows are no longer than Lookahead.
//
// At each barrier the kernel calls Inject for the departures of the
// window just run: node ids ascending, each node's departures in time
// order, departures at equal times in the order the node sent them.
// Departures of different nodes are not merged by time, so the fabric
// must order its events by time itself and break ties between equal
// times by call order.
type Fabric interface {
	Inject(src int, at sim.Time, frame []byte, wireLen int)
	NextTime() (sim.Time, bool)
	AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte))
}

// Domain is one shard: an Env plus the nodes assigned to it, executed
// by at most one worker at a time.
type Domain struct {
	id  int
	env *sim.Env
}

// Env returns the domain's simulation environment.
func (d *Domain) Env() *sim.Env { return d.env }

// injection is one frame awaiting the next barrier.
type injection struct {
	at      sim.Time
	wireLen int
	frame   []byte
}

// Outbox is a node's transmit attachment point: it satisfies the NIC
// uplink shape (SendFrame) structurally and buffers departures until
// the next barrier. Only the owning domain's Env touches it during a
// window, and only the coordinator touches it at barriers, so it needs
// no locking.
type Outbox struct {
	env *sim.Env
	src int
	buf []injection
}

// SendFrame records one frame leaving the node at the current instant.
// The fabric takes ownership of the frame buffer.
func (o *Outbox) SendFrame(frame []byte, wireLen, payLen int) {
	o.buf = append(o.buf, injection{at: o.env.Now(), wireLen: wireLen, frame: frame})
}

// nodeReg is one node's routing entry: its domain, its outbox and its
// arrivals — the delivery sink, deferred on the domain's Env. The
// coordinator takes arrival records at barriers and the domain returns
// them inside its window, so the barrier orders every access.
type nodeReg struct {
	dom    *Domain
	arrive *sim.Deferred[[]byte]
	out    *Outbox
}

// Stats counts the kernel's synchronization work. ParWindows is the
// knob-not-dead signal: a multi-domain run that never dispatches two
// domains concurrently is silently serial (benchdiff's NOPAR gate).
type Stats struct {
	Windows     uint64 // execution windows run
	ParWindows  uint64 // windows with ≥2 domains dispatched concurrently
	CrossFrames uint64 // frames merged through the fabric
	Domains     int
	Workers     int // worker goroutines the run may use

	// Dispatch-flavor counters summed across domains (DESIGN.md §16):
	// the park/resume handoff tax and the handler dispatches that
	// replace it.
	Parks             uint64
	Handoffs          uint64
	HandlerDispatches uint64
}

// Kernel is the conservative parallel coordinator: it owns the barrier
// loop, the fabric, and the worker pool.
type Kernel struct {
	fab     Fabric
	la      sim.Time
	workers int

	domains []*Domain
	nodes   []nodeReg

	active []*Domain // barrier dispatch scratch
	stats  Stats

	winStart sim.Time // current window bounds (injection sanity check)
	winEnd   sim.Time
	ran      bool
}

// NewKernel builds a coordinator. lookahead is the synchronization
// quantum — the fabric's minimum injection-to-first-event latency
// (ether.Topology.Lookahead). workers bounds the goroutines used per
// window; ≤1 runs every window serially on the caller's goroutine,
// which is also the byte-identical reference schedule.
func NewKernel(fab Fabric, lookahead sim.Time, workers int) *Kernel {
	if lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v (zero-latency links cannot be sharded conservatively)", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	return &Kernel{fab: fab, la: lookahead, workers: workers, winEnd: -1}
}

// AddDomain creates a new empty domain with a fresh Env.
func (k *Kernel) AddDomain() *Domain {
	d := &Domain{id: len(k.domains), env: sim.NewEnv()}
	k.domains = append(k.domains, d)
	return d
}

// Domains returns the kernel's domains in creation order.
func (k *Kernel) Domains() []*Domain { return k.domains }

// AddNode registers node id in domain d with its frame-delivery sink
// (called at the frame's exact arrival instant, on d's timeline) and
// returns the node's transmit Outbox. Node ids must be added densely
// in order — they are the fabric's addressing.
func (k *Kernel) AddNode(id int, d *Domain, sink func(frame []byte)) *Outbox {
	if id != len(k.nodes) {
		panic(fmt.Sprintf("shard: node %d added out of order (want %d)", id, len(k.nodes)))
	}
	out := &Outbox{env: d.env, src: id}
	k.nodes = append(k.nodes, nodeReg{dom: d, arrive: sim.NewDeferred(d.env, sink), out: out})
	return out
}

// Stats returns the synchronization counters.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.Domains = len(k.domains)
	s.Workers = k.workers
	if s.Workers > s.Domains {
		s.Workers = s.Domains
	}
	for _, d := range k.domains {
		es := d.env.Stats()
		s.Parks += es.Parks
		s.Handoffs += es.Handoffs
		s.HandlerDispatches += es.HandlerDispatches
	}
	return s
}

// Run executes all domains to quiescence, or until every domain's
// next event lies beyond horizon (horizon < 0: run to exhaustion),
// and returns the last window's end time. Run may be called again to
// continue. The caller's goroutine acts as the coordinator; domain
// windows run on a transient worker pool that exits before Run
// returns.
func (k *Kernel) Run(horizon sim.Time) sim.Time {
	pool := k.startPool()
	if pool != nil {
		defer pool.stop()
	}
	var end sim.Time
	for {
		k.gather()
		b, ok := k.next()
		if !ok {
			break
		}
		if horizon >= 0 && b > horizon {
			break
		}
		// Inclusive window end: events in [b, b+la) are safe to run.
		wend := b + k.la - 1*sim.Nanosecond
		if horizon >= 0 && wend > horizon {
			wend = horizon
		}
		k.winStart, k.winEnd, k.ran = b, wend, true
		k.stats.Windows++
		if k.fab != nil {
			k.fab.AdvanceTo(wend, k.deliver)
		}
		active := k.active[:0]
		for _, d := range k.domains {
			if t, has := d.env.NextAt(); has && t <= wend {
				active = append(active, d)
			}
		}
		k.active = active
		if pool != nil && len(active) > 1 {
			k.stats.ParWindows++
			pool.run(active, wend)
		} else {
			for _, d := range active {
				d.env.Run(wend)
			}
		}
		end = wend
	}
	return end
}

// gather injects every outbox's departures into the fabric in the
// order the Fabric contract states: node ids ascending, each node's
// departures in the order it sent them. Equal-time departures thus
// reach the fabric in (source node, per-source FIFO) order whatever
// the decomposition, and the fabric orders the rest by time.
func (k *Kernel) gather() {
	for i := range k.nodes {
		o := k.nodes[i].out
		for j := range o.buf {
			inj := &o.buf[j]
			if k.ran && (inj.at < k.winStart || inj.at > k.winEnd) {
				panic(fmt.Sprintf("shard: node %d injected a frame at %v outside its window [%v, %v]",
					o.src, inj.at, k.winStart, k.winEnd))
			}
			if k.fab == nil {
				panic(fmt.Sprintf("shard: node %d sent a frame but the kernel has no fabric", o.src))
			}
			k.fab.Inject(o.src, inj.at, inj.frame, inj.wireLen)
			k.stats.CrossFrames++
			*inj = injection{} // drop the frame reference for GC
		}
		o.buf = o.buf[:0]
	}
}

// next returns the earliest pending instant across every domain and
// the fabric — the next window's start.
func (k *Kernel) next() (sim.Time, bool) {
	var b sim.Time
	ok := false
	for _, d := range k.domains {
		if t, has := d.env.NextAt(); has && (!ok || t < b) {
			b, ok = t, true
		}
	}
	if k.fab != nil {
		if t, has := k.fab.NextTime(); has && (!ok || t < b) {
			b, ok = t, true
		}
	}
	return b, ok
}

// deliver schedules one fabric arrival on the destination domain's
// timeline. Deliveries are scheduled only at barriers (no domain is
// running), and always in the future of the destination's clock — the
// lookahead legality argument.
func (k *Kernel) deliver(dst int, at sim.Time, frame []byte) {
	reg := &k.nodes[dst]
	env := reg.dom.env
	d := at - env.Now()
	if d < 0 {
		panic(fmt.Sprintf("shard: delivery to node %d at %v is in its domain's past (now %v): lookahead violation",
			dst, at, env.Now()))
	}
	reg.arrive.After(d, frame)
}

// task is one domain window handed to a pool worker.
type task struct {
	d    *Domain
	wend sim.Time
	wg   *sync.WaitGroup
}

// pool is the transient per-Run worker pool. Handing a domain's Env to
// a worker is safe: the channel send/receive and the WaitGroup edges
// order every access to the Env between windows, and within a window
// exactly one worker touches it.
type pool struct {
	tasks chan task
	done  sync.WaitGroup // the workers still running
}

// startPool spawns the worker pool, or returns nil when the run is
// serial (one domain or one worker) — the serial path dispatches on
// the coordinator goroutine with zero extra goroutines.
func (k *Kernel) startPool() *pool {
	w := k.workers
	if w > len(k.domains) {
		w = len(k.domains)
	}
	if w <= 1 {
		return nil
	}
	p := &pool{tasks: make(chan task, len(k.domains))}
	p.done.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer p.done.Done()
			for t := range p.tasks {
				t.d.env.Run(t.wend)
				t.wg.Done()
			}
		}()
	}
	return p
}

// run executes one window across the active domains and blocks until
// all of them reach wend.
func (p *pool) run(active []*Domain, wend sim.Time) {
	var wg sync.WaitGroup
	wg.Add(len(active))
	for _, d := range active {
		p.tasks <- task{d: d, wend: wend, wg: &wg}
	}
	wg.Wait()
}

// stop winds the pool down and returns once every worker has exited,
// so a finished run leaves no goroutine behind.
func (p *pool) stop() {
	close(p.tasks)
	p.done.Wait()
}
