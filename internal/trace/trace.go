// Package trace provides the measurement machinery of the testbed:
// per-category CPU busy-time accounting (the quantity behind the
// paper's Figures 3b, 8, 12 and 13), latency breakdowns by pipeline
// phase (Figures 3a and 11), and simple summary statistics.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"dcsctrl/internal/sim"
)

// Category labels where CPU time or latency is spent. The set mirrors
// the stacked-bar legends in the paper's figures.
type Category string

// Categories used across the testbed.
const (
	CatUser        Category = "user"         // application-level code
	CatFileSystem  Category = "file-system"  // VFS, extent lookup, page cache
	CatBlockLayer  Category = "block-layer"  // request queue, NVMe driver
	CatNetStack    Category = "net-stack"    // TCP/IP, socket buffers, NIC driver
	CatDevCtrl     Category = "device-ctrl"  // command submit/complete, doorbells
	CatDataCopy    Category = "data-copy"    // user<->kernel and CPU-mediated copies
	CatGPUCtrl     Category = "gpu-ctrl"     // kernel launch, cudaMemcpy control
	CatGPUCopy     Category = "gpu-copy"     // CPU<->GPU data transfer time
	CatInterrupt   Category = "interrupt"    // IRQ entry/exit, completion softirq
	CatHDCDriver   Category = "hdc-driver"   // DCS-ctrl's thin kernel module
	CatScoreboard  Category = "scoreboard"   // HDC Engine hardware scheduling
	CatRead        Category = "read"         // storage media time
	CatWrite       Category = "write"        // storage media time (writes)
	CatHash        Category = "hash"         // checksum computation
	CatNICTransmit Category = "nic-transmit" // wire serialization
	CatPageCache   Category = "page-cache"   // stock-kernel page cache management
	CatSockBuf     Category = "sock-buf"     // stock-kernel socket buffer management
	CatIdleWait    Category = "wait"         // time blocked on devices (latency only)
	CatRetry       Category = "retry"        // backoff + re-issue after a device fault
	CatFallback    Category = "fallback"     // host-mediated path after engine failure
)

// CPUAccount accumulates per-category core busy time. One account
// normally covers one host (all its cores).
type CPUAccount struct {
	env   *sim.Env
	busy  map[Category]sim.Time
	start sim.Time
}

// NewCPUAccount returns an account starting at the current sim time.
func NewCPUAccount(env *sim.Env) *CPUAccount {
	return &CPUAccount{env: env, busy: map[Category]sim.Time{}, start: env.Now()}
}

// Charge adds d of busy time to category c.
func (a *CPUAccount) Charge(c Category, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative charge %v to %s", d, c))
	}
	a.busy[c] += d
}

// Reset clears all accumulated time and restarts the window now.
func (a *CPUAccount) Reset() {
	a.busy = map[Category]sim.Time{}
	a.start = a.env.Now()
}

// Window returns the accounting window length so far.
func (a *CPUAccount) Window() sim.Time { return a.env.Now() - a.start }

// Busy returns the busy time accumulated for category c.
func (a *CPUAccount) Busy(c Category) sim.Time { return a.busy[c] }

// TotalBusy returns busy time summed over all categories.
func (a *CPUAccount) TotalBusy() sim.Time {
	var t sim.Time
	for _, v := range a.busy {
		t += v
	}
	return t
}

// Categories returns the categories with non-zero time, sorted.
func (a *CPUAccount) Categories() []Category {
	cs := make([]Category, 0, len(a.busy))
	for c, v := range a.busy {
		if v > 0 {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// TotalUtilization returns total busy / (cores×window).
func (a *CPUAccount) TotalUtilization(cores int) float64 {
	w := a.Window()
	if w <= 0 || cores <= 0 {
		return 0
	}
	return float64(a.TotalBusy()) / (float64(w) * float64(cores))
}

// Breakdown is an ordered latency decomposition of one operation:
// phases appear in first-charge order, matching a stacked figure bar.
// An operation charges a handful of phases, so one ordered slice
// serves both the order and the lookup.
type Breakdown struct {
	phases []phase
}

// phase is one category's accumulated time in a Breakdown.
type phase struct {
	cat Category
	dur sim.Time
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// Add charges d to phase c, appending c to the order on first use.
func (b *Breakdown) Add(c Category, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative breakdown %v for %s", d, c))
	}
	for i := range b.phases {
		if b.phases[i].cat == c {
			b.phases[i].dur += d
			return
		}
	}
	b.phases = append(b.phases, phase{cat: c, dur: d})
}

// Get returns the time charged to phase c.
func (b *Breakdown) Get(c Category) sim.Time {
	for _, ph := range b.phases {
		if ph.cat == c {
			return ph.dur
		}
	}
	return 0
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() sim.Time {
	var t sim.Time
	for _, ph := range b.phases {
		t += ph.dur
	}
	return t
}

// Phases returns the phases in first-charge order.
func (b *Breakdown) Phases() []Category {
	var cs []Category
	for _, ph := range b.phases {
		cs = append(cs, ph.cat)
	}
	return cs
}

// String renders "phase=dur" pairs in order.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, ph := range b.phases {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%v", ph.cat, ph.dur)
	}
	return sb.String()
}
