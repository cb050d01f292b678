// Kernel-level tests with a stub fixed-latency fabric: the coordinator
// mechanics (window partition, barrier gather, worker dispatch) must be
// byte-identical at any worker count and any domain decomposition,
// without dragging in the full ether/core stack.
package shard

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dcsctrl/internal/sim"
)

// stubFabric delivers every frame exactly lat after injection, in
// (time, injection order) order, as the Fabric contract requires. The
// kernel's gather makes injection order decomposition-invariant, so
// the stub inherits the determinism guarantee the real FabricSim
// relies on.
type stubFabric struct {
	lat  sim.Time
	evs  []stubEvent
	seq  int
	dst  func(src int) int
	done int
}

type stubEvent struct {
	at    sim.Time
	seq   int
	dst   int
	frame []byte
}

func (f *stubFabric) Inject(src int, at sim.Time, frame []byte, wireLen int) {
	f.evs = append(f.evs, stubEvent{at: at + f.lat, seq: f.seq, dst: f.dst(src), frame: frame})
	f.seq++
	sort.Slice(f.evs, func(a, b int) bool {
		if f.evs[a].at != f.evs[b].at {
			return f.evs[a].at < f.evs[b].at
		}
		return f.evs[a].seq < f.evs[b].seq
	})
}

func (f *stubFabric) NextTime() (sim.Time, bool) {
	if len(f.evs) == 0 {
		return 0, false
	}
	return f.evs[0].at, true
}

func (f *stubFabric) AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte)) {
	for len(f.evs) > 0 && f.evs[0].at <= t {
		e := f.evs[0]
		f.evs = f.evs[1:]
		f.done++
		deliver(e.dst, e.at, e.frame)
	}
}

// arrival is one observed delivery, the unit of the equivalence trace.
type arrival struct {
	Node int
	At   sim.Time
	Tag  byte
	TTL  byte
}

// runRelay builds nodes spread over domains, seeds one staggered frame
// per node, and lets each arrival re-send to the next node until its
// TTL drains — multi-hop traffic that crosses every window boundary.
// It returns the full arrival trace in (at, node) order plus stats.
func runRelay(t *testing.T, nodes, domains, workers int) ([]arrival, Stats) {
	t.Helper()
	const lat = 500 * sim.Nanosecond
	fab := &stubFabric{lat: lat, dst: func(src int) int { return (src + 1) % nodes }}
	k := NewKernel(fab, lat, workers)
	doms := make([]*Domain, domains)
	for i := range doms {
		doms[i] = k.AddDomain()
	}
	traces := make([][]arrival, nodes) // per-node: only its domain writes it
	outs := make([]*Outbox, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		d := doms[i*domains/nodes]
		out := k.AddNode(i, d, func(frame []byte) {
			traces[i] = append(traces[i], arrival{Node: i, At: d.Env().Now(), Tag: frame[0], TTL: frame[1]})
			if frame[1] > 0 {
				outs[i].SendFrame([]byte{frame[0], frame[1] - 1}, 64, 2)
			}
		})
		outs[i] = out
		// Staggered seed: node i emits frame tag i with TTL 5 at a time
		// offset that lands seeds in different windows.
		d.Env().Schedule(sim.Time(1+i*137)*sim.Nanosecond, func() {
			out.SendFrame([]byte{byte(i), 5}, 64, 2)
		})
	}
	k.Run(-1)
	var all []arrival
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].At != all[b].At {
			return all[a].At < all[b].At
		}
		return all[a].Node < all[b].Node
	})
	want := nodes * 6 // each seed delivers TTL+1 = 6 times
	if len(all) != want {
		t.Fatalf("nodes=%d domains=%d workers=%d: %d arrivals, want %d", nodes, domains, workers, len(all), want)
	}
	return all, k.Stats()
}

// TestKernelEquivalence pins the core guarantee at the kernel level:
// the arrival trace is identical at every worker count and every
// decomposition, and so is the cross-fabric frame count.
func TestKernelEquivalence(t *testing.T) {
	const nodes = 6
	ref, refStats := runRelay(t, nodes, 1, 1)
	for _, c := range []struct{ domains, workers int }{
		{2, 1}, {2, 2}, {3, 2}, {4, 4}, {6, 8}, {6, 1},
	} {
		got, st := runRelay(t, nodes, c.domains, c.workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("domains=%d workers=%d: arrival trace diverges from serial", c.domains, c.workers)
		}
		if st.CrossFrames != refStats.CrossFrames {
			t.Fatalf("domains=%d workers=%d: cross frames %d != %d", c.domains, c.workers, st.CrossFrames, refStats.CrossFrames)
		}
		if c.domains > 1 && c.workers > 1 && st.ParWindows == 0 {
			t.Fatalf("domains=%d workers=%d: no parallel windows", c.domains, c.workers)
		}
		if c.workers <= 1 && st.ParWindows != 0 {
			t.Fatalf("domains=%d workers=1: reported %d parallel windows on the serial path", c.domains, st.ParWindows)
		}
	}
}

// TestKernelGuards pins the constructor and registration panics: the
// legality preconditions must fail loudly, not corrupt schedules.
func TestKernelGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero lookahead", func() { NewKernel(&stubFabric{}, 0, 1) })
	mustPanic("node out of order", func() {
		k := NewKernel(&stubFabric{}, sim.Microsecond, 1)
		d := k.AddDomain()
		k.AddNode(1, d, func([]byte) {})
	})
	mustPanic("frame without fabric", func() {
		k := NewKernel(nil, sim.Microsecond, 1)
		d := k.AddDomain()
		out := k.AddNode(0, d, func([]byte) {})
		d.Env().Schedule(sim.Nanosecond, func() { out.SendFrame([]byte{0}, 64, 1) })
		k.Run(-1)
	})
}

// TestKernelHorizon pins Run's horizon contract: a bounded run stops
// before events beyond the horizon and can be resumed to completion.
func TestKernelHorizon(t *testing.T) {
	const lat = sim.Microsecond
	fab := &stubFabric{lat: lat, dst: func(src int) int { return src ^ 1 }}
	k := NewKernel(fab, lat, 1)
	d := k.AddDomain()
	var got []sim.Time
	for i := 0; i < 2; i++ {
		i := i
		out := k.AddNode(i, d, func(frame []byte) { got = append(got, d.Env().Now()) })
		d.Env().Schedule(sim.Time(10+i)*sim.Microsecond, func() { out.SendFrame([]byte{byte(i)}, 64, 1) })
	}
	k.Run(5 * sim.Microsecond)
	if len(got) != 0 {
		t.Fatalf("horizon 5µs: %d arrivals before the seeds' time", len(got))
	}
	k.Run(-1)
	if len(got) != 2 {
		t.Fatalf("resumed run delivered %d arrivals, want 2", len(got))
	}
	if fmt.Sprint(got) != fmt.Sprint([]sim.Time{11 * sim.Microsecond, 12 * sim.Microsecond}) {
		t.Fatalf("arrival times %v", got)
	}
}

// recordingFabric is stubFabric logging every Inject call, numbered by
// the barrier (the AdvanceTo) that follows it.
type recordingFabric struct {
	stubFabric
	barrier int
	log     []injected
}

// injected is one Inject call: its source, departure time and the
// source's send count for the frame (the frame's last two bytes).
type injected struct {
	Barrier int
	Src     int
	At      sim.Time
	Sent    int
}

func (f *recordingFabric) Inject(src int, at sim.Time, frame []byte, wireLen int) {
	sent := int(frame[len(frame)-2])<<8 | int(frame[len(frame)-1])
	f.log = append(f.log, injected{Barrier: f.barrier, Src: src, At: at, Sent: sent})
	f.stubFabric.Inject(src, at, frame, wireLen)
}

func (f *recordingFabric) AdvanceTo(t sim.Time, deliver func(dst int, at sim.Time, frame []byte)) {
	f.barrier++
	f.stubFabric.AdvanceTo(t, deliver)
}

// runGather builds a relay in which departures tie: every seed and
// every arrival sends two frames at the same instant, and nodes i and
// i+3 seed at the same instant, so their relays tie across nodes and
// domains. It returns the fabric's Inject log.
func runGather(t *testing.T, domains, workers int) []injected {
	t.Helper()
	const nodes, lat = 6, 500 * sim.Nanosecond
	fab := &recordingFabric{stubFabric: stubFabric{lat: lat, dst: func(src int) int { return (src + 1) % nodes }}}
	k := NewKernel(fab, lat, workers)
	doms := make([]*Domain, domains)
	for i := range doms {
		doms[i] = k.AddDomain()
	}
	outs := make([]*Outbox, nodes)
	sent := make([]int, nodes) // per node: only its domain writes it
	send2 := func(i int, ttl byte) {
		for j := 0; j < 2; j++ {
			outs[i].SendFrame([]byte{ttl, byte(sent[i] >> 8), byte(sent[i])}, 64, 3)
			sent[i]++
		}
	}
	for i := 0; i < nodes; i++ {
		i := i
		d := doms[i*domains/nodes]
		outs[i] = k.AddNode(i, d, func(frame []byte) {
			if frame[0] > 0 && frame[len(frame)-1]%2 == 0 { // relay the first of each pair
				send2(i, frame[0]-1)
			}
		})
		d.Env().Schedule(sim.Time(1+(i%3)*137)*sim.Nanosecond, func() { send2(i, 4) })
	}
	k.Run(-1)
	return fab.log
}

// TestGatherInjectOrder pins the order the barrier hands departures to
// the fabric (the Fabric contract): within one barrier, node ids
// ascend and each node's departures come in the order it sent them,
// so in time order with ties in call order. The log must also be the
// same at every decomposition and worker count.
func TestGatherInjectOrder(t *testing.T) {
	ref := runGather(t, 1, 1)
	var crossTies, ownTies int
	for i := 1; i < len(ref); i++ {
		a, b := ref[i-1], ref[i]
		if a.Barrier != b.Barrier {
			continue
		}
		switch {
		case b.Src < a.Src:
			t.Fatalf("barrier %d: node %d injected after node %d", b.Barrier, b.Src, a.Src)
		case b.Src == a.Src && b.At < a.At:
			t.Fatalf("barrier %d: node %d's departure at %v after one at %v", b.Barrier, b.Src, b.At, a.At)
		case b.Src == a.Src && b.Sent <= a.Sent:
			t.Fatalf("barrier %d: node %d's frame %d after its frame %d", b.Barrier, b.Src, b.Sent, a.Sent)
		case b.Src == a.Src && b.At == a.At:
			ownTies++
		}
		for j := i - 1; j >= 0 && ref[j].Barrier == b.Barrier; j-- {
			if ref[j].Src != b.Src && ref[j].At == b.At {
				crossTies++
				break
			}
		}
	}
	if ownTies == 0 || crossTies == 0 {
		t.Fatalf("the relay produced %d same-node and %d cross-node ties; the order check needs both", ownTies, crossTies)
	}
	for _, domains := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			if got := runGather(t, domains, workers); !reflect.DeepEqual(got, ref) {
				t.Fatalf("domains=%d workers=%d: Inject log differs from the serial run's", domains, workers)
			}
		}
	}
}
