package nvme

import (
	"fmt"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/pcie"
)

// RingConfig describes one submission/completion queue pair from the
// submitter's point of view. SQ and CQ are regions owned by the
// submitter (host DRAM for the kernel driver, FPGA BRAM for the HDC
// Engine's NVMe controller); the doorbells live in the SSD's BAR.
type RingConfig struct {
	QID        uint16
	Entries    int
	SQ         *mem.Region
	CQ         *mem.Region
	SQDoorbell mem.Addr
	CQDoorbell mem.Addr
}

// Ring is the submitter side of a queue pair: it formats SQEs into
// queue memory, rings doorbells, and consumes CQEs by phase bit,
// dispatching each to the callback registered at submit time.
type Ring struct {
	cfg     RingConfig
	fab     *pcie.Fabric
	sqTail  int
	cqHead  int
	phase   bool
	nextCID uint16
	pending map[uint16]func(Completion)
}

// Outstanding returns the number of commands submitted but not yet
// completed.
func (r *Ring) Outstanding() int { return len(r.pending) }

// Full reports whether the submission queue has no free slot (one
// slot is sacrificed to distinguish full from empty, per spec).
func (r *Ring) Full() bool { return len(r.pending) >= r.cfg.Entries-1 }

// Submit writes cmd into the next SQE slot and registers onDone for
// its completion. It returns the assigned CID. The caller must ring
// the doorbell (possibly batching several submissions per ring).
//
//dcslint:hotpath nvme_read_4k
func (r *Ring) Submit(cmd Command, onDone func(Completion)) (uint16, error) {
	if r.Full() {
		return 0, fmt.Errorf("nvme: SQ %d full", r.cfg.QID)
	}
	cid := r.nextCID
	r.nextCID++
	for {
		if _, busy := r.pending[cid]; !busy {
			break
		}
		cid = r.nextCID
		r.nextCID++
	}
	cmd.CID = cid
	sqe := cmd.Encode()
	r.cfg.SQ.WriteAt(uint64(r.sqTail)*CommandSize, sqe[:])
	r.sqTail = (r.sqTail + 1) % r.cfg.Entries
	r.pending[cid] = onDone
	return cid, nil
}

// RingDoorbell posts the current SQ tail to the device.
//
//dcslint:hotpath
func (r *Ring) RingDoorbell() {
	r.fab.PostedWrite(r.cfg.SQDoorbell, uint64(r.sqTail))
}

// ProcessCompletions consumes every CQE whose phase bit matches the
// expected phase, invokes the registered callbacks, advances the CQ
// head, and rings the CQ head doorbell. It returns the number of
// completions consumed. Safe to call from a write hook or IRQ path.
//
//dcslint:hotpath
func (r *Ring) ProcessCompletions() int {
	n := 0
	var raw [CompletionSize]byte
	for {
		r.cfg.CQ.ReadAt(uint64(r.cqHead)*CompletionSize, raw[:])
		cpl, err := DecodeCompletion(raw[:])
		if err != nil || cpl.Phase != r.phase {
			break
		}
		cb, ok := r.pending[cpl.CID]
		if !ok {
			panic(fmt.Sprintf("nvme: completion for unknown CID %d on ring %d", cpl.CID, r.cfg.QID))
		}
		delete(r.pending, cpl.CID)
		r.cqHead++
		if r.cqHead == r.cfg.Entries {
			r.cqHead = 0
			r.phase = !r.phase
		}
		n++
		if cb != nil {
			//dcslint:allow noalloc completion callback supplied at Submit; benched paths install non-capturing handlers
			cb(cpl)
		}
	}
	if n > 0 {
		r.fab.PostedWrite(r.cfg.CQDoorbell, uint64(r.cqHead))
	}
	return n
}
