package ether

import (
	"fmt"

	"dcsctrl/internal/sim"
)

// FabricSim is the rack fabric's own sequential discrete-event engine:
// per-directed-link busy clocks and frame-hop events queued on FIFO
// lanes, advanced by the shard coordinator between execution windows.
// It runs on one goroutine, so contention resolution (which frame wins
// a switch output port) is decided in a single deterministic order no
// matter how the nodes are sharded across domains — the determinism
// merge point of DESIGN.md §14.
//
// The hop model per switch: a frame arriving at time T is ready to
// contend for its output port at T + FwdDelay, waits for the port's
// busy clock, occupies it for the frame's serialization time at the
// link rate, and propagates one link latency to the next hop. The
// injecting NIC has already serialized the frame onto its access link
// (its txBW server), so the first hop charges only propagation.
//
// Events are processed in (at, seq) order, seq being the order in
// which they were queued. Each event has one producer, and each
// producer has its own FIFO lane: a node's injections go on the node's
// lane, and the next hop of a frame leaving an output port goes on
// that port's lane. A port's busy clock only moves forward and the
// latency after it is fixed, and a node injects in departure order,
// so every lane is produced in increasing (at, seq) order. A 4-ary
// min-heap of the non-empty lanes, keyed on each lane's head, then
// pops exactly the global (at, seq) order, and it holds at most one
// entry per lane however many frames are in flight. Pending events
// live in one slot pool with a free list.
type FabricSim struct {
	topo *Topology

	slots []fabEvent // pending events; each lane threads its own through next
	free  int32      // first free slot, -1 when none
	lanes []fabLane  // [0,Nodes) injections by source node, then one per output port
	heads []laneHead // 4-ary min-heap of the non-empty lanes
	seq   uint64
	now   sim.Time   // time of the last processed event (sanity floor)
	busy  []sim.Time // per directed output port: busy-until

	frames    int64 // frames delivered
	wireBytes int64 // wire bytes delivered
	drops     int64 // unroutable frames
}

// Frame hop stages. Events are stamped at the instant the frame is
// ready to contend for the stage's output port (arrival + FwdDelay),
// except delivery events, which are stamped at node arrival.
const (
	hopSrcToR = iota // contend at the source ToR
	hopSpine         // contend at the spine
	hopDstToR        // contend at the destination ToR
	hopDeliver
)

type fabEvent struct {
	at      sim.Time
	seq     uint64
	frame   []byte
	src     int32
	dst     int32
	wireLen int32
	next    int32 // next slot in the lane, or in the free list; -1 ends it
	stage   uint8
}

// fabLane is one producer's FIFO of pending events, as slot indices
// (-1 when the lane is empty).
type fabLane struct{ head, tail int32 }

// laneHead is a non-empty lane's entry in the merge heap, keyed on the
// (at, seq) of the event at the lane's head.
type laneHead struct {
	at   sim.Time
	seq  uint64
	lane int32
}

func (a *laneHead) before(b *laneHead) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// NewFabricSim builds the engine for a topology.
func NewFabricSim(t *Topology) *FabricSim {
	s := t.Spec()
	tors := t.ToRs()
	// Directed output ports: [0,Nodes) ToR→node, then ToR→spine, then
	// spine→ToR.
	ports := s.Nodes + tors*s.Spines + s.Spines*tors
	lanes := make([]fabLane, s.Nodes+ports)
	for i := range lanes {
		lanes[i] = fabLane{head: -1, tail: -1}
	}
	return &FabricSim{topo: t, free: -1, lanes: lanes,
		heads: make([]laneHead, 0, len(lanes)), busy: make([]sim.Time, ports)}
}

// Inject enters one wire frame into the fabric at time at (the instant
// its last bit left the source NIC). The destination is read from the
// frame's IPv4 header, so routing needs no side channel; frames
// addressed outside the rack are dropped and counted. A source's frames
// must be injected in departure order.
func (f *FabricSim) Inject(src int, at sim.Time, frame []byte, wireLen int) {
	if len(frame) < EthHeaderLen+IPv4HeaderLen {
		f.drops++
		return
	}
	var dstIP IP
	copy(dstIP[:], frame[EthHeaderLen+16:EthHeaderLen+20])
	dst, ok := f.topo.NodeOfIP(dstIP)
	if !ok {
		f.drops++
		return
	}
	spec := f.topo.Spec()
	first := at + spec.NodeLinkLat + spec.FwdDelay
	if first < f.now {
		panic(fmt.Sprintf("ether: fabric injection at %v creates event at %v before advanced time %v (lookahead violation)",
			at, first, f.now))
	}
	f.push(src, fabEvent{at: first, stage: hopSrcToR,
		src: int32(src), dst: int32(dst), wireLen: int32(wireLen), frame: frame})
}

// NextTime reports the deadline of the earliest pending fabric event.
func (f *FabricSim) NextTime() (sim.Time, bool) {
	if len(f.heads) == 0 {
		return 0, false
	}
	return f.heads[0].at, true
}

// AdvanceTo processes every fabric event with deadline ≤ t in (at, seq)
// order, calling deliver for each frame that reaches its destination
// node by t. Later arrivals stay queued for a later window.
func (f *FabricSim) AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte)) {
	spec := f.topo.Spec()
	spines, tors, nodes := spec.Spines, f.topo.ToRs(), spec.Nodes
	for len(f.heads) > 0 && f.heads[0].at <= t {
		ev := f.pop()
		f.now = ev.at
		if ev.stage == hopDeliver {
			f.frames++
			f.wireBytes += int64(ev.wireLen)
			deliver(int(ev.dst), ev.at, ev.frame)
			continue
		}
		src, dst := int(ev.src), int(ev.dst)
		sTor, dTor := f.topo.ToROf(src), f.topo.ToROf(dst)
		var port int
		var bps float64
		var next fabEvent
		switch {
		case ev.stage == hopSrcToR && sTor == dTor:
			// One-hop route: the source ToR egresses straight to the node.
			port, bps = dst, spec.NodeBps
			next = fabEvent{stage: hopDeliver}
		case ev.stage == hopSrcToR:
			sp := f.topo.SpineFor(src, dst)
			port, bps = nodes+sTor*spines+sp, spec.SpineBps
			next = fabEvent{stage: hopSpine}
		case ev.stage == hopSpine:
			sp := f.topo.SpineFor(src, dst)
			port, bps = nodes+tors*spines+sp*tors+dTor, spec.SpineBps
			next = fabEvent{stage: hopDstToR}
		default: // hopDstToR
			port, bps = dst, spec.NodeBps
			next = fabEvent{stage: hopDeliver}
		}
		start := ev.at
		if f.busy[port] > start {
			start = f.busy[port]
		}
		ser := sim.BpsToTime(int(ev.wireLen), bps)
		f.busy[port] = start + ser
		next.src, next.dst, next.wireLen, next.frame = ev.src, ev.dst, ev.wireLen, ev.frame
		if next.stage == hopDeliver {
			next.at = start + ser + spec.NodeLinkLat
		} else {
			next.at = start + ser + spec.SpineLinkLat + spec.FwdDelay
		}
		f.push(nodes+port, next)
	}
}

// Stats returns delivered frames, delivered wire bytes, and unroutable
// drops.
func (f *FabricSim) Stats() (frames, wireBytes, drops int64) {
	return f.frames, f.wireBytes, f.drops
}

// push appends an event to a lane, stamping its tie-break sequence
// number. An event earlier than the lane's tail would break the merge
// order, so it panics instead.
func (f *FabricSim) push(lane int, ev fabEvent) {
	l := &f.lanes[lane]
	if l.tail >= 0 && ev.at < f.slots[l.tail].at {
		panic(fmt.Sprintf("ether: fabric lane %d fed an event at %v behind its tail at %v (a source injected out of departure order)",
			lane, ev.at, f.slots[l.tail].at))
	}
	f.seq++
	ev.seq = f.seq
	ev.next = -1
	i := f.free
	if i >= 0 {
		f.free = f.slots[i].next
		f.slots[i] = ev
	} else {
		i = int32(len(f.slots))
		f.slots = append(f.slots, ev)
	}
	if l.tail < 0 {
		l.head, l.tail = i, i
		f.pushHead(laneHead{at: ev.at, seq: ev.seq, lane: int32(lane)})
		return
	}
	f.slots[l.tail].next = i
	l.tail = i
}

// pop removes and returns the earliest pending event: the head of the
// lane on top of the merge heap.
func (f *FabricSim) pop() fabEvent {
	top := &f.heads[0]
	l := &f.lanes[top.lane]
	i := l.head
	ev := f.slots[i]
	f.slots[i] = fabEvent{next: f.free} // drop the frame reference for GC
	f.free = i
	if l.head = ev.next; l.head >= 0 {
		h := &f.slots[l.head]
		top.at, top.seq = h.at, h.seq
	} else {
		l.tail = -1
		last := len(f.heads) - 1
		f.heads[0] = f.heads[last]
		f.heads = f.heads[:last]
	}
	f.siftDown()
	return ev
}

// pushHead adds a lane that just became non-empty to the merge heap.
func (f *FabricSim) pushHead(x laneHead) {
	f.heads = append(f.heads, x)
	h := f.heads
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// siftDown restores the merge heap after its top entry changed.
func (f *FabricSim) siftDown() {
	h := f.heads
	n := len(h)
	if n == 0 {
		return
	}
	x := h[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
