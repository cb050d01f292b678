package ether

import (
	"fmt"

	"dcsctrl/internal/sim"
)

// RackSpec describes a two-tier switched fabric: N nodes hang off
// top-of-rack (ToR) switches, and the ToRs are fully meshed through a
// spine tier. Every link has a fixed propagation latency and a line
// rate; the fixed latencies are what make conservative parallel
// execution possible (see Topology.Lookahead and internal/sim/shard).
type RackSpec struct {
	Nodes       int // leaf node count (1..65536)
	NodesPerToR int // leaf radix; default 16
	Spines      int // spine switch count; default 2 (unused with one ToR)

	NodeBps  float64 // node access-link rate; default 10 Gbit/s
	SpineBps float64 // ToR-spine uplink rate; default 40 Gbit/s

	NodeLinkLat  sim.Time // access-link propagation per hop; default 2µs
	SpineLinkLat sim.Time // uplink propagation per hop; default 1µs
	FwdDelay     sim.Time // per-switch forwarding latency; default 300ns
}

// withDefaults fills zero fields with the calibrated defaults.
func (s RackSpec) withDefaults() RackSpec {
	if s.NodesPerToR <= 0 {
		s.NodesPerToR = 16
	}
	if s.Spines <= 0 {
		s.Spines = 2
	}
	if s.NodeBps <= 0 {
		s.NodeBps = 10e9
	}
	if s.SpineBps <= 0 {
		s.SpineBps = 40e9
	}
	if s.NodeLinkLat <= 0 {
		s.NodeLinkLat = 2 * sim.Microsecond
	}
	if s.SpineLinkLat <= 0 {
		s.SpineLinkLat = 1 * sim.Microsecond
	}
	if s.FwdDelay <= 0 {
		s.FwdDelay = 300 * sim.Nanosecond
	}
	return s
}

// Topology is a validated rack fabric: addressing, routing, and the
// conservative lookahead bound derived from its link latencies.
type Topology struct {
	spec RackSpec
	tors int
}

// NewTopology validates the spec and returns the topology.
func NewTopology(spec RackSpec) *Topology {
	spec = spec.withDefaults()
	if spec.Nodes < 1 || spec.Nodes > 1<<16 {
		panic(fmt.Sprintf("ether: rack node count %d out of range [1, 65536]", spec.Nodes))
	}
	tors := (spec.Nodes + spec.NodesPerToR - 1) / spec.NodesPerToR
	return &Topology{spec: spec, tors: tors}
}

// Spec returns the topology's (defaulted) specification.
func (t *Topology) Spec() RackSpec { return t.spec }

// ToRs returns the top-of-rack switch count.
func (t *Topology) ToRs() int { return t.tors }

// ToROf returns the ToR switch a node hangs off.
func (t *Topology) ToROf(node int) int { return node / t.spec.NodesPerToR }

// SpineFor returns the spine carrying traffic from src to dst —
// deterministic ECMP: the pick depends only on the node pair, never on
// arrival order, so routing is identical at any domain decomposition.
func (t *Topology) SpineFor(src, dst int) int { return (src + dst) % t.spec.Spines }

// NodeIP returns node i's address. Byte 0 is the 10/8 rack prefix and
// bytes 1–2 carry the node index, so routing can recover the
// destination from a frame's IP header alone (NodeOfIP).
func (t *Topology) NodeIP(i int) IP { return IP{10, byte(i >> 8), byte(i), 1} }

// NodeMAC returns node i's locally administered MAC.
func (t *Topology) NodeMAC(i int) MAC { return MAC{0x02, 0, 0, byte(i >> 8), byte(i), 1} }

// NodeOfIP inverts NodeIP; ok is false for addresses outside the rack.
func (t *Topology) NodeOfIP(ip IP) (int, bool) {
	if ip[0] != 10 || ip[3] != 1 {
		return 0, false
	}
	n := int(ip[1])<<8 | int(ip[2])
	if n >= t.spec.Nodes {
		return 0, false
	}
	return n, true
}

// Lookahead is the conservative synchronization quantum: the minimum
// delay between a frame's injection (its last transmit-side NIC event)
// and the earliest fabric event it can create. A frame injected at
// time T first contends for a switch output port at
// T + NodeLinkLat + FwdDelay, so as long as execution windows are no
// longer than this bound, (a) the sequential fabric engine never sees
// an event earlier than anything it already processed, and (b) every
// delivery lands strictly after the window that produced it
// (end-to-end latency adds at least one more serialization and
// propagation on top of the bound). Spine latencies do not constrain
// the bound: spine events are created by fabric-internal processing,
// which the engine's event heap already orders.
func (t *Topology) Lookahead() sim.Time { return t.spec.NodeLinkLat + t.spec.FwdDelay }
