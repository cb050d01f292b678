package ether

import (
	"fmt"

	"dcsctrl/internal/sim"
)

// FabricSim is the rack fabric's own sequential discrete-event engine:
// per-directed-link busy clocks and a frame-hop event heap, advanced by
// the shard coordinator between execution windows. It runs on one
// goroutine, so contention resolution (which frame wins a switch output
// port) is decided in a single deterministic order no matter how the
// nodes are sharded across domains — the determinism merge point of
// DESIGN.md §14.
//
// The hop model per switch: a frame arriving at time T is ready to
// contend for its output port at T + FwdDelay, waits for the port's
// busy clock, occupies it for the frame's serialization time at the
// link rate, and propagates one link latency to the next hop. The
// injecting NIC has already serialized the frame onto its access link
// (its txBW server), so the first hop charges only propagation.
type FabricSim struct {
	topo *Topology

	heap []fabEvent
	seq  uint64
	now  sim.Time   // time of the last processed event (sanity floor)
	busy []sim.Time // per directed output port: busy-until

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
	stage   uint8
	src     int32
	dst     int32
	wireLen int32
	frame   []byte
}

// NewFabricSim builds the engine for a topology.
func NewFabricSim(t *Topology) *FabricSim {
	s := t.Spec()
	tors := t.ToRs()
	// Directed output ports: [0,Nodes) ToR→node, then ToR→spine, then
	// spine→ToR.
	ports := s.Nodes + tors*s.Spines + s.Spines*tors
	return &FabricSim{topo: t, busy: make([]sim.Time, ports)}
}

// Inject enters one wire frame into the fabric at time at (the instant
// its last bit left the source NIC). The destination is read from the
// frame's IPv4 header, so routing needs no side channel; frames
// addressed outside the rack are dropped and counted.
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
	f.push(fabEvent{at: first, stage: hopSrcToR,
		src: int32(src), dst: int32(dst), wireLen: int32(wireLen), frame: frame})
}

// NextTime reports the deadline of the earliest pending fabric event.
func (f *FabricSim) NextTime() (sim.Time, bool) {
	if len(f.heap) == 0 {
		return 0, false
	}
	return f.heap[0].at, true
}

// AdvanceTo processes every fabric event with deadline ≤ t in (at, seq)
// order, calling deliver for each frame that reaches its destination
// node by t. Later arrivals stay queued for a later window.
func (f *FabricSim) AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte)) {
	spec := f.topo.Spec()
	spines, tors, nodes := spec.Spines, f.topo.ToRs(), spec.Nodes
	for len(f.heap) > 0 && f.heap[0].at <= t {
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
		f.push(next)
	}
}

// Stats returns delivered frames, delivered wire bytes, and unroutable
// drops.
func (f *FabricSim) Stats() (frames, wireBytes, drops int64) {
	return f.frames, f.wireBytes, f.drops
}

// push inserts an event, stamping its tie-break sequence number.
func (f *FabricSim) push(ev fabEvent) {
	f.seq++
	ev.seq = f.seq
	f.heap = append(f.heap, ev)
	i := len(f.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(i, parent) {
			break
		}
		f.heap[i], f.heap[parent] = f.heap[parent], f.heap[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (f *FabricSim) pop() fabEvent {
	top := f.heap[0]
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap[last] = fabEvent{} // drop the frame reference for GC
	f.heap = f.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(f.heap) && f.less(l, small) {
			small = l
		}
		if r < len(f.heap) && f.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		f.heap[i], f.heap[small] = f.heap[small], f.heap[i]
		i = small
	}
	return top
}

func (f *FabricSim) less(a, b int) bool {
	if f.heap[a].at != f.heap[b].at {
		return f.heap[a].at < f.heap[b].at
	}
	return f.heap[a].seq < f.heap[b].seq
}
