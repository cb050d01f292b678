package nic

// Flow-fidelity transmit fast path (DESIGN.md §13): when a
// connection's per-flow state machine (internal/ether) reports a
// steady bulk stream and the mechanical crossover conditions hold, a
// run of frames is collapsed into one analytic claim — the wire clock,
// byte counters, core occupancy, and FIFO budget advance exactly as
// the per-frame schedule would have advanced them, but no frame walks
// the transmit FIFO or the wire machine. Everything not provably
// collapsible stays per-frame; the two paths produce identical
// timelines, so falling back is always safe.

import (
	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// observeBurst feeds one transmit burst through the connection's phase
// machine and reports whether its runs may be claimed. A burst sent
// while wire corruption can still fire demotes the flow: the per-frame
// replay path must own every frame that might be corrupted.
func (n *NIC) observeBurst(t ether.Tuple, segs []ether.Segment) bool {
	st := n.flows[t]
	if st == nil {
		st = &ether.FlowState{}
		n.flows[t] = st
	}
	if n.params.Faults.Armed(fault.NICCorruptFrame) {
		st.Demote()
		return false
	}
	st.Observe(ether.ClassifySegments(segs))
	return st.Eligible() && n.env.WireFidelity() == sim.WireFlow
}

// pendingClaimedFrames returns the number of claimed frames that have
// not yet left the wire — the virtual occupancy of the transmit FIFO
// plus its in-service slot. Exited entries are retired lazily.
func (n *NIC) pendingClaimedFrames() int {
	now := n.env.Now()
	for n.claimHead < len(n.claimExits) && n.claimExits[n.claimHead] <= now {
		n.claimHead++
	}
	if n.claimHead == len(n.claimExits) {
		n.claimExits = n.claimExits[:0]
		n.claimHead = 0
	}
	return len(n.claimExits) - n.claimHead
}

// virtualQueued is the claimed-frame count against the FIFO cap: of
// the pending claims, the earliest is in wire service (claims are
// booked from max(now, wireFree), so it has always started), the rest
// model queued FIFO entries.
func (n *NIC) virtualQueued() int {
	if p := n.pendingClaimedFrames(); p > 0 {
		return p - 1
	}
	return 0
}

// nextClaimExit returns the earliest pending claimed-frame wire exit.
func (n *NIC) nextClaimExit() (sim.Time, bool) {
	if n.pendingClaimedFrames() == 0 {
		return 0, false
	}
	return n.claimExits[n.claimHead], true
}

// claimRun books one run of frames analytically. It returns false —
// and the caller transmits the run per-frame — when a real frame is
// anywhere between FIFO insertion and wire exit (claims must never
// interleave with the per-frame wire machine), when the virtual FIFO
// budget would be exceeded, or when there is no peer to deliver to.
//
// The booking replays the per-frame schedule exactly: each frame
// serializes at line rate starting at max(now, wireFree) — the run is
// built in one batch, so every frame of the run is "in the FIFO" now —
// and arrives at the peer one propagation delay after its wire exit.
// Counters (txFrames, txPayload, wire busy time, CountIO) advance by
// the same amounts at booking time; only event count changes.
func (n *NIC) claimRun(segs []ether.Segment) bool {
	peer := n.peer
	if peer == nil || n.realInFlight != 0 {
		return false
	}
	if n.pendingClaimedFrames()+len(segs) > txFIFOCap {
		return false
	}
	env := n.env
	now := env.Now()
	start := n.wireFree
	if start < now {
		start = now
	}
	wireBytes := 0
	var busy sim.Time
	for i := range segs {
		s := &segs[i]
		frame := s.MarshalTo(n.getFrameBuf())
		wl := s.WireLen()
		t := sim.BpsToTime(wl, n.params.WireBps)
		start += t
		busy += t
		wireBytes += wl
		//dcslint:allow noalloc exit ring rewinds when drained (pendingClaimedFrames), keeping its backing array
		n.claimExits = append(n.claimExits, start)
		n.txFrames++
		n.txPayload += int64(len(s.Payload))
		n.scheduleDelivery(peer.rxQ, frame, start+n.params.PropDelay-now)
	}
	n.wireFree = start
	n.segFrames += int64(len(segs))
	n.txBW.AccrueFlow(wireBytes, len(segs), busy)
	env.CountIO(len(segs))
	env.CountSegment(len(segs))
	return true
}
