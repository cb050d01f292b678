package nic

import (
	"fmt"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// SendRing is the submitter side of a transmit queue: it formats BDs
// into ring memory, rings doorbells and tracks which posted BDs the
// NIC has fetched. Both the host NIC driver and the HDC Engine's NIC
// controller drive one of these; they differ in whose cycles pay for
// it.
type SendRing struct {
	fab   *pcie.Fabric
	nic   *NIC
	cfg   QueueConfig
	tail  uint64
	waits []fetchWait // Track order, so tails ascend
}

// fetchWait is a signal to fire once the completed-BD counter reaches
// tail.
type fetchWait struct {
	tail uint64
	sig  *sim.Signal
}

// Completed reads the cumulative completed-BD counter (submitter-local
// memory read).
func (r *SendRing) Completed() uint64 {
	return le64(r.fab.Mem().View(r.cfg.SendStatus, 8))
}

// FreeSlots returns the number of BD slots currently available.
func (r *SendRing) FreeSlots() int {
	return r.cfg.SendEntries - int(r.tail-r.Completed())
}

// Push writes a packet chain into the ring. The final BD must carry
// SendFlagEnd. The caller must ring the doorbell afterwards.
//
//dcslint:hotpath nic_frame_echo
func (r *SendRing) Push(bds []SendBD) error {
	if len(bds) == 0 {
		return fmt.Errorf("nic: empty BD chain")
	}
	if bds[len(bds)-1].Flags&SendFlagEnd == 0 {
		return fmt.Errorf("nic: chain missing END flag")
	}
	if r.FreeSlots() < len(bds) {
		return fmt.Errorf("nic: send ring %d full", r.cfg.QID)
	}
	for _, bd := range bds {
		slot := r.tail % uint64(r.cfg.SendEntries)
		enc := bd.Encode()
		r.cfg.SendRing.WriteAt(slot*SendBDSize, enc[:])
		r.tail++
	}
	return nil
}

// RingDoorbell posts the new tail to the NIC.
//
//dcslint:hotpath
func (r *SendRing) RingDoorbell() {
	sendTail, _, _, _ := r.nic.doorbellAddrs(r.cfg.QID)
	r.fab.PostedWrite(sendTail, r.tail)
}

// Arm acknowledges the completions seen so far and requests an
// interrupt as soon as the completed-BD counter passes them.
func (r *SendRing) Arm() {
	_, sendArm, _, _ := r.nic.doorbellAddrs(r.cfg.QID)
	r.fab.PostedWrite(sendArm, r.Completed())
}

// Track arranges for sig to fire once the NIC has fetched every BD
// posted so far, which frees the buffers they point at. Sweep fires
// it.
func (r *SendRing) Track(sig *sim.Signal) {
	//dcslint:allow noalloc tracked fetches are bounded by the ring's BDs and Sweep slides them out, so the capacity settles
	r.waits = append(r.waits, fetchWait{tail: r.tail, sig: sig})
}

// Sweep fires, in Track order, every tracked signal whose BDs the
// completed-BD counter has passed, and drops them. The submitter calls
// it wherever it learns of completions: its interrupt or status snoop.
func (r *SendRing) Sweep() {
	completed := r.Completed()
	k := 0
	for _, w := range r.waits {
		if w.tail > completed {
			break
		}
		w.sig.Fire(nil)
		k++
	}
	// Compact in place: reslicing the front would bleed capacity
	// (DESIGN.md §11), and Track's append would reallocate.
	m := copy(r.waits, r.waits[k:])
	clear(r.waits[m:])
	r.waits = r.waits[:m]
}

// Tracked returns the number of tracked signals not yet fired.
func (r *SendRing) Tracked() int { return len(r.waits) }

// RecvRing is the submitter side of a receive queue: it posts buffers
// and consumes completions.
type RecvRing struct {
	fab     *pcie.Fabric
	nic     *NIC
	cfg     QueueConfig
	tail    uint64 // buffers posted (cumulative)
	cplHead uint64 // completions consumed (cumulative)
	addrs   []mem.Addr
}

// Post writes receive BDs into the ring. The caller must ring the
// doorbell afterwards.
//
//dcslint:hotpath
func (r *RecvRing) Post(bds []RecvBD) error {
	if int(r.tail-r.cplHead)+len(bds) > r.cfg.RecvEntries {
		return fmt.Errorf("nic: recv ring %d overcommitted", r.cfg.QID)
	}
	for _, bd := range bds {
		slot := r.tail % uint64(r.cfg.RecvEntries)
		enc := bd.Encode()
		r.cfg.RecvRing.WriteAt(slot*RecvBDSize, enc[:])
		r.addrs[slot] = bd.Addr
		r.tail++
	}
	return nil
}

// RingDoorbell posts the new recv tail to the NIC.
//
//dcslint:hotpath
func (r *RecvRing) RingDoorbell() {
	_, _, recvTail, _ := r.nic.doorbellAddrs(r.cfg.QID)
	r.fab.PostedWrite(recvTail, r.tail)
}

// Arm acknowledges the completions consumed so far and requests an
// interrupt as soon as new ones land.
func (r *RecvRing) Arm() {
	_, _, _, recvArm := r.nic.doorbellAddrs(r.cfg.QID)
	r.fab.PostedWrite(recvArm, r.cplHead)
}

// Completions reads the cumulative completion counter.
func (r *RecvRing) Completions() uint64 {
	return le64(r.fab.Mem().View(r.cfg.RecvStatus, 8))
}

// Unconsumed returns posted-minus-locally-consumed buffers — the bound
// Post enforces; use it when deciding how many buffers to repost.
func (r *RecvRing) Unconsumed() int { return int(r.tail - r.cplHead) }

// Filled is one consumed receive completion plus the buffer address
// it refers to.
type Filled struct {
	Cpl  RecvCpl
	Addr mem.Addr
}

// AppendPoll consumes all available completions (submitter-local
// memory reads) and appends them, with their buffer addresses
// resolved, to out. Consumers that poll in a loop reuse one scratch
// slice and allocate nothing per wake.
//
//dcslint:hotpath
func (r *RecvRing) AppendPoll(out []Filled) []Filled {
	avail := r.Completions()
	for r.cplHead < avail {
		slot := r.cplHead % uint64(r.cfg.RecvEntries)
		raw := r.fab.Mem().View(r.cfg.RecvCpl.Base+mem.Addr(slot*RecvCplSize), RecvCplSize)
		cpl, err := DecodeRecvCpl(raw)
		if err != nil {
			panic(err)
		}
		if cpl.Valid == 0 {
			panic(fmt.Sprintf("nic: completion %d not valid on queue %d", r.cplHead, r.cfg.QID))
		}
		//dcslint:allow noalloc callers recycle the polled slice, so capacity is reused; nic_frame_echo proves 0 allocs/op
		out = append(out, Filled{Cpl: cpl, Addr: r.addrs[cpl.BDIndex]})
		r.cplHead++
	}
	return out
}
