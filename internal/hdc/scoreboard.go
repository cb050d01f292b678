package hdc

import (
	"dcsctrl/internal/sim"
)

// Scoreboard tracks all in-flight device commands for user-requested
// multi-device tasks. Capacity is bounded (hardware entries);
// AllocIssue waits while full, back-pressuring the command's stages.
// Dependencies (§III-B: no NIC send before its NVMe read completes)
// are enforced by the stage pipeline that allocates the entries: a
// chunk reaches its destination stage only after its source command
// completed. So an entry is a slot and its state transitions, not a
// record: the scoreboard counts live entries and charges each
// transition's cost.
type Scoreboard struct {
	cap      int
	live     int
	opCost   sim.Time // per state transition (FPGA cycles)
	freeCond *sim.Cond
	issued   int64
	done     int64
	maxLive  int

	// Batched retirement: DeferDone counts finished entries here and
	// the retire stage completes every same-instant batch in one pass
	// (one sleep covering the batch's op costs, one broadcast).
	pendDone int
	doneKick *sim.Cond
}

// NewScoreboard returns a scoreboard with the given entry capacity and
// per-operation cost.
func NewScoreboard(env *sim.Env, capacity int, opCost sim.Time) *Scoreboard {
	if capacity < 1 {
		panic("hdc: scoreboard capacity")
	}
	s := &Scoreboard{cap: capacity, opCost: opCost,
		freeCond: sim.NewCond(env), doneKick: sim.NewCond(env)}
	env.SpawnHandler("sb-retire", (&retireMachine{s: s}).run)
	return s
}

// Live returns the number of allocated, not-yet-retired entries.
func (s *Scoreboard) Live() int { return s.live }

// MaxLive returns the high-water mark of live entries.
func (s *Scoreboard) MaxLive() int { return s.maxLive }

// Stats returns issued and completed device-command counts.
func (s *Scoreboard) Stats() (issued, done int64) { return s.issued, s.done }

// Issue is one stage's scoreboard allocation between dispatches; the
// zero value is idle and reusable.
type Issue struct {
	charging bool // capacity found; the issue charge is elapsing
}

// AllocIssue allocates an entry and drives it wait→ready→issue in one
// batched transition: all three op costs are charged in a single
// re-arm. It reports true once the entry is issued. On false the proc
// is enrolled for a free entry (the scoreboard is full) or re-armed
// for the charge; the caller must return and call again with the same
// Issue.
//
//dcslint:hotpath
func (s *Scoreboard) AllocIssue(h *sim.HandlerCtx, is *Issue) bool {
	if !is.charging {
		if s.live >= s.cap {
			s.freeCond.WaitH(h)
			return false
		}
		is.charging = true
		if d := 3 * s.opCost; d > 0 {
			h.Rearm(d)
			return false
		}
	}
	is.charging = false
	s.live++
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
	s.issued++
	return true
}

// DeferDone hands a finished entry to the scoreboard's retire stage
// without blocking the caller; retirement cost is charged there, in
// same-instant batches. Every DeferDone needs a live entry whose
// retirement is not yet pending; anything else is a model bug.
//
//dcslint:hotpath
func (s *Scoreboard) DeferDone() {
	if s.pendDone >= s.live {
		panic("hdc: DeferDone with no live, unretired entry")
	}
	s.pendDone++
	s.doneKick.Broadcast()
}

// retireState enumerates where the retire stage resumes.
type retireState int

const (
	retireWait    retireState = iota // wait for a finished entry
	retireGather                     // same-instant finishes have landed
	retireCharged                    // the batch's op costs elapsed
)

// retireMachine batch-completes scoreboard entries: every entry
// finishing at one instant retires under a single charge covering the
// batch's op costs, followed by one broadcast to capacity waiters.
type retireMachine struct {
	s  *Scoreboard
	st retireState
	k  int
}

//dcslint:hotpath
func (m *retireMachine) run(h *sim.HandlerCtx) {
	s := m.s
	for {
		switch m.st {
		case retireWait:
			if s.pendDone == 0 {
				s.doneKick.WaitH(h)
				return
			}
			// Gather every entry retiring at this instant.
			m.st = retireGather
			if !h.Yield() {
				return
			}
		case retireGather:
			m.k = s.pendDone
			m.st = retireCharged
			if d := sim.Time(m.k) * s.opCost; d > 0 {
				h.Rearm(d)
				return
			}
		case retireCharged:
			k := m.k
			s.pendDone -= k
			s.live -= k
			s.done += int64(k)
			s.freeCond.Broadcast()
			m.st = retireWait
		}
	}
}
