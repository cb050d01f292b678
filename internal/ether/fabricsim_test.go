package ether

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dcsctrl/internal/sim"
)

// heapFabric is the reference fabric engine FuzzFabricOrder holds
// FabricSim to: the same hop model, with every pending frame hop in one
// binary heap ordered by (at, seq).
type heapFabric struct {
	topo *Topology

	heap []heapEvent
	seq  uint64
	now  sim.Time
	busy []sim.Time

	frames, wireBytes, drops int64
}

type heapEvent struct {
	at      sim.Time
	seq     uint64
	stage   uint8
	src     int32
	dst     int32
	wireLen int32
	frame   []byte
}

func newHeapFabric(t *Topology) *heapFabric {
	s := t.Spec()
	tors := t.ToRs()
	ports := s.Nodes + tors*s.Spines + s.Spines*tors
	return &heapFabric{topo: t, busy: make([]sim.Time, ports)}
}

func (f *heapFabric) Inject(src int, at sim.Time, frame []byte, wireLen int) {
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
		panic(fmt.Sprintf("reference fabric: injection at %v before advanced time %v", first, f.now))
	}
	f.push(heapEvent{at: first, stage: hopSrcToR,
		src: int32(src), dst: int32(dst), wireLen: int32(wireLen), frame: frame})
}

func (f *heapFabric) NextTime() (sim.Time, bool) {
	if len(f.heap) == 0 {
		return 0, false
	}
	return f.heap[0].at, true
}

func (f *heapFabric) AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte)) {
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
		var next heapEvent
		switch {
		case ev.stage == hopSrcToR && sTor == dTor:
			port, bps = dst, spec.NodeBps
			next = heapEvent{stage: hopDeliver}
		case ev.stage == hopSrcToR:
			sp := f.topo.SpineFor(src, dst)
			port, bps = nodes+sTor*spines+sp, spec.SpineBps
			next = heapEvent{stage: hopSpine}
		case ev.stage == hopSpine:
			sp := f.topo.SpineFor(src, dst)
			port, bps = nodes+tors*spines+sp*tors+dTor, spec.SpineBps
			next = heapEvent{stage: hopDstToR}
		default:
			port, bps = dst, spec.NodeBps
			next = heapEvent{stage: hopDeliver}
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

func (f *heapFabric) Stats() (frames, wireBytes, drops int64) {
	return f.frames, f.wireBytes, f.drops
}

func (f *heapFabric) push(ev heapEvent) {
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

func (f *heapFabric) pop() heapEvent {
	top := f.heap[0]
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
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

func (f *heapFabric) less(a, b int) bool {
	if f.heap[a].at != f.heap[b].at {
		return f.heap[a].at < f.heap[b].at
	}
	return f.heap[a].seq < f.heap[b].seq
}

// fabric is the engine surface the shard kernel drives.
type fabric interface {
	Inject(src int, at sim.Time, frame []byte, wireLen int)
	NextTime() (sim.Time, bool)
	AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte))
	Stats() (frames, wireBytes, drops int64)
}

// departure is one frame leaving a source NIC.
type departure struct {
	src     int
	at      sim.Time
	frame   []byte
	wireLen int
}

// delivery is one frame reaching its destination node.
type delivery struct {
	dst   int
	at    sim.Time
	frame []byte
}

// fuzzBytes hands out fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// decodeFabricCase turns fuzz bytes into a rack (nodes, radix, spines,
// rates and latencies; a zero field takes the default) and each
// source's departures in time order. Departure gaps are multiples of
// 200 ns, often zero, so departures from different sources tie.
func decodeFabricCase(data []byte) (*Topology, []departure) {
	b := fuzzBytes(data)
	spec := RackSpec{
		Nodes:        1 + int(b.next()%48),
		NodesPerToR:  int(b.next() % 9),
		Spines:       int(b.next() % 5),
		NodeBps:      float64(b.next()%41) * 1e9,
		SpineBps:     float64(b.next()%101) * 1e9,
		NodeLinkLat:  sim.Time(b.next()) * 20 * sim.Nanosecond,
		SpineLinkLat: sim.Time(b.next()) * 20 * sim.Nanosecond,
		FwdDelay:     sim.Time(b.next()) * 10 * sim.Nanosecond,
	}
	topo := NewTopology(spec)
	clock := make([]sim.Time, spec.Nodes)
	var deps []departure
	for len(b) > 0 && len(deps) < 4096 {
		src := int(b.next()) % spec.Nodes
		to := b.next()
		clock[src] += sim.Time(b.next()%16) * 200 * sim.Nanosecond
		wireLen := 64 + int(b.next())*6
		frame := make([]byte, EthHeaderLen+IPv4HeaderLen)
		binary.BigEndian.PutUint32(frame, uint32(len(deps)))
		switch to {
		case 255: // addressed outside the rack
			ip := IP{192, 168, 0, 1}
			copy(frame[EthHeaderLen+16:], ip[:])
		case 254: // too short to route
			frame = frame[:EthHeaderLen]
		default:
			ip := topo.NodeIP(int(to) % spec.Nodes)
			copy(frame[EthHeaderLen+16:], ip[:])
		}
		deps = append(deps, departure{src: src, at: clock[src], frame: frame, wireLen: wireLen})
	}
	return topo, deps
}

// runWindows drives engines as the shard kernel does. Each barrier
// injects the previous window's departures into every engine through
// its own order function, reads the next window's start (the earlier
// of the next departure and the fabric's next event) and advances every
// engine to the window's end. check runs after every injection and
// every advance, with the step and the window end it belongs to.
func runWindows(topo *Topology, deps []departure, engines []fabric, orders []func([]departure), check func(step string, wend sim.Time)) [][]delivery {
	la := topo.Lookahead()
	got := make([][]delivery, len(engines))
	sinks := make([]func(int, sim.Time, []byte), len(engines))
	for i := range engines {
		i := i
		sinks[i] = func(dst int, at sim.Time, frame []byte) {
			got[i] = append(got[i], delivery{dst, at, frame})
		}
	}
	var outbox []departure
	wend := sim.Time(-1)
	for rest := deps; ; {
		for i := range engines {
			orders[i](outbox)
		}
		check("injecting the departures of the window ending", wend)
		outbox = outbox[:0]
		b, ok := engines[0].NextTime()
		if len(rest) > 0 && (!ok || rest[0].at < b) {
			b, ok = rest[0].at, true
		}
		if !ok {
			return got
		}
		wend = b + la - 1
		for i, e := range engines {
			e.AdvanceTo(wend, sinks[i])
		}
		check("advancing to", wend)
		for len(rest) > 0 && rest[0].at <= wend {
			outbox = append(outbox, rest[0])
			rest = rest[1:]
		}
	}
}

// FuzzFabricOrder holds the lane engine to the single-heap reference,
// driven window by window as the shard kernel drives it. Both take
// each window's departures in node order, the order the kernel's
// gather injects them; a third engine, the heap again, takes them
// sorted by (time, source, per-source order), the order the fabric
// must process them in. All three must deliver the same frames
// to the same nodes at the same instants, in the same order, report
// the same NextTime after every step and end with the same Stats.
func FuzzFabricOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, deps := decodeFabricCase(data)
		// Departures in time order, ties in (source, per-source)
		// order, as the kernel's windows release them.
		sort.SliceStable(deps, func(a, b int) bool {
			if deps[a].at != deps[b].at {
				return deps[a].at < deps[b].at
			}
			return deps[a].src < deps[b].src
		})
		lanes, ref, sorted := NewFabricSim(topo), newHeapFabric(topo), newHeapFabric(topo)
		engines := []fabric{lanes, ref, sorted}
		nodeOrder := func(e fabric) func([]departure) {
			return func(out []departure) {
				for src := 0; src < topo.Spec().Nodes; src++ {
					for _, d := range out {
						if d.src == src {
							e.Inject(d.src, d.at, d.frame, d.wireLen)
						}
					}
				}
			}
		}
		timeOrder := func(out []departure) {
			for _, d := range out { // already in (at, src, per-source) order
				sorted.Inject(d.src, d.at, d.frame, d.wireLen)
			}
		}
		orders := []func([]departure){nodeOrder(lanes), nodeOrder(ref), timeOrder}
		names := []string{"lanes", "heap", "heap fed by time"}
		check := func(step string, wend sim.Time) {
			t0, ok0 := engines[0].NextTime()
			for i, e := range engines[1:] {
				if ti, oki := e.NextTime(); ti != t0 || oki != ok0 {
					t.Fatalf("after %s %v: %s NextTime (%v, %v), %s (%v, %v)", step, wend, names[0], t0, ok0, names[i+1], ti, oki)
				}
			}
		}
		got := runWindows(topo, deps, engines, orders, check)
		for i := 1; i < len(got); i++ {
			if len(got[i]) != len(got[0]) {
				t.Fatalf("%s delivered %d frames, %s %d", names[0], len(got[0]), names[i], len(got[i]))
			}
			for j, d := range got[0] {
				r := got[i][j]
				if d.dst != r.dst || d.at != r.at || !bytes.Equal(d.frame, r.frame) {
					t.Fatalf("delivery %d: %s (node %d at %v, frame %x), %s (node %d at %v, frame %x)",
						j, names[0], d.dst, d.at, d.frame[:4], names[i], r.dst, r.at, r.frame[:4])
				}
			}
		}
		f0, w0, d0 := engines[0].Stats()
		for i, e := range engines[1:] {
			if fi, wi, di := e.Stats(); fi != f0 || wi != w0 || di != d0 {
				t.Fatalf("Stats: %s (%d, %d, %d), %s (%d, %d, %d)", names[0], f0, w0, d0, names[i+1], fi, wi, di)
			}
		}
		if int(f0+d0) != len(deps) {
			t.Fatalf("%d frames delivered and %d dropped of %d injected", f0, d0, len(deps))
		}
	})
}

// TestFabricSourceOutOfOrderPanics: a source whose frame departs
// earlier than its previous one would feed its lane out of order and
// break the merge, so the injection panics rather than reordering the
// fabric silently.
func TestFabricSourceOutOfOrderPanics(t *testing.T) {
	topo := NewTopology(RackSpec{Nodes: 4})
	f := NewFabricSim(topo)
	frame := func(dst int) []byte {
		b := make([]byte, EthHeaderLen+IPv4HeaderLen)
		ip := topo.NodeIP(dst)
		copy(b[EthHeaderLen+16:], ip[:])
		return b
	}
	f.Inject(0, 10*sim.Microsecond, frame(1), 64)
	f.Inject(1, 5*sim.Microsecond, frame(2), 64)  // another source may depart earlier
	f.Inject(0, 10*sim.Microsecond, frame(3), 64) // and so may a tie
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a source departing before its previous frame did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "out of departure order") {
			t.Fatalf("panic %q does not name the departure order", msg)
		}
	}()
	f.Inject(0, 9*sim.Microsecond, frame(2), 64)
}
