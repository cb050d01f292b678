package hdc

import (
	"fmt"

	"dcsctrl/internal/sim"
)

// EntryState is a scoreboard entry's lifecycle state (Figure 6).
type EntryState int

// Scoreboard entry states: wait (dependencies outstanding), ready
// (issuable), issue (at a device controller), done.
const (
	StateWait EntryState = iota
	StateReady
	StateIssue
	StateDone
)

func (s EntryState) String() string {
	switch s {
	case StateWait:
		return "wait"
	case StateReady:
		return "ready"
	case StateIssue:
		return "issue"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Entry is one device command tracked by the scoreboard: which device
// it targets, read/write direction, source and destination addresses,
// auxiliary data, and state — the fields of Figure 6.
type Entry struct {
	CmdID uint32 // owning D2D command
	Seq   int    // chunk sequence within the command
	Dev   string // "nvme", "nic", "ndp"
	RW    byte   // 'R' or 'W'
	Src   uint64
	Dst   uint64
	Aux   uint64
	State EntryState
}

// Scoreboard tracks all in-flight device commands for user-requested
// multi-device tasks. Capacity is bounded (hardware entries);
// AllocIssue blocks when full, back-pressuring the command's stages.
// Dependencies (§III-B: no NIC send before its NVMe read completes)
// are enforced by the stage pipeline that allocates the entries: a
// chunk reaches its destination stage only after its source command
// completed.
type Scoreboard struct {
	env      *sim.Env
	cap      int
	live     int
	opCost   sim.Time // per state transition (FPGA cycles)
	freeCond *sim.Cond
	issued   int64
	done     int64
	maxLive  int

	// Batched retirement: DeferDone parks finished entries here and the
	// retire stage completes every same-instant batch in one pass (one
	// sleep covering the batch's op costs, one broadcast).
	pendDone []*Entry
	doneKick *sim.Cond
}

// NewScoreboard returns a scoreboard with the given entry capacity and
// per-operation cost.
func NewScoreboard(env *sim.Env, capacity int, opCost sim.Time) *Scoreboard {
	if capacity < 1 {
		panic("hdc: scoreboard capacity")
	}
	s := &Scoreboard{env: env, cap: capacity, opCost: opCost,
		freeCond: sim.NewCond(env), doneKick: sim.NewCond(env)}
	env.Spawn("sb-retire", s.retireLoop)
	return s
}

// Live returns the number of allocated, not-yet-retired entries.
func (s *Scoreboard) Live() int { return s.live }

// MaxLive returns the high-water mark of live entries.
func (s *Scoreboard) MaxLive() int { return s.maxLive }

// Stats returns issued and completed device-command counts.
func (s *Scoreboard) Stats() (issued, done int64) { return s.issued, s.done }

// AllocIssue allocates an entry and drives it wait→ready→issue in one
// batched transition: all three op costs are charged in a single
// sleep. It blocks while the scoreboard is full. Not a noalloc root:
// it returns a freshly allocated Entry by design.
func (s *Scoreboard) AllocIssue(p *sim.Proc, cmdID uint32, seq int, dev string, rw byte) *Entry {
	for s.live >= s.cap {
		s.freeCond.Wait(p)
	}
	p.Sleep(3 * s.opCost)
	s.live++
	if s.live > s.maxLive {
		s.maxLive = s.live
	}
	s.issued++
	return &Entry{CmdID: cmdID, Seq: seq, Dev: dev, RW: rw, State: StateIssue}
}

// DeferDone hands a finished entry to the scoreboard's retire stage
// without blocking the caller; retirement cost is charged there, in
// same-instant batches.
//
//dcslint:hotpath
func (s *Scoreboard) DeferDone(e *Entry) {
	if e.State != StateIssue {
		panic(fmt.Sprintf("hdc: DeferDone from %v", e.State))
	}
	//dcslint:allow noalloc pendDone keeps its capacity across batches; steady state is 0 allocs/op (BENCH_dataplane hdc_gather)
	s.pendDone = append(s.pendDone, e)
	s.doneKick.Broadcast()
}

// retireLoop batch-completes scoreboard entries: every entry finishing
// at one instant retires under a single sleep covering the batch's op
// costs, followed by one broadcast to capacity waiters.
func (s *Scoreboard) retireLoop(p *sim.Proc) {
	for {
		for len(s.pendDone) == 0 {
			s.doneKick.Wait(p)
		}
		p.Yield() // gather every entry retiring at this instant
		k := len(s.pendDone)
		p.Sleep(sim.Time(k) * s.opCost)
		for _, e := range s.pendDone[:k] {
			e.State = StateDone
			s.live--
			s.done++
		}
		n := copy(s.pendDone, s.pendDone[k:])
		s.pendDone = s.pendDone[:n]
		s.freeCond.Broadcast()
	}
}
