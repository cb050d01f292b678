// Package fault is the seed-deterministic fault-injection layer for
// the simulated hardware. Every device model exposes named injection
// sites at its hardware boundary (a posted write leaving the root
// complex, a flash page read, a frame hitting the wire, a command
// entering the HDC engine); an Injector decides per event whether the
// fault fires.
//
// Determinism is the design center: each site draws from its own
// xorshift64* stream, seeded by mixing the injector seed with the
// site name. Fault decisions therefore depend only on (seed, site,
// draw index) — never on map iteration order, wall-clock time, or
// which other sites exist — so a failure run replays bit-identically
// and recovery paths are assertable in regression tests.
//
// A fault schedule is plain data: a Profile maps sites to a firing
// probability and an optional count limit. Profiles carry no code,
// so they can be named on the dcsctl command line, embedded in test
// tables, and diffed between runs.
package fault

import (
	"fmt"
	"sort"
	"strings"
)

// Site names one injection point at a hardware boundary. Sites are
// registered here, centrally, so profiles can be validated and stats
// reported uniformly.
type Site string

// The injection sites, grouped by device model.
const (
	// PCIeDelayPosted delays a posted MMIO write in flight (switch
	// congestion); software sees nothing but latency.
	PCIeDelayPosted Site = "pcie.delay-posted"
	// PCIeDropPosted drops a posted write TLP; the data-link layer's
	// ACK/NAK protocol replays it after the replay timer, so delivery
	// is delayed but guaranteed (transparent to software, as on real
	// PCIe).
	PCIeDropPosted Site = "pcie.drop-posted"
	// PCIeLinkDegrade stalls a DMA transfer as if the link retrained
	// to a lower width for a moment.
	PCIeLinkDegrade Site = "pcie.link-degrade"

	// NVMeReadError fails a flash read with an uncorrectable-media
	// status in the CQ entry; the driver must retry.
	NVMeReadError Site = "nvme.read-error"
	// NVMeWriteError fails a flash program operation with a media
	// status before any data is committed; retry is idempotent.
	NVMeWriteError Site = "nvme.write-error"

	// NICCorruptFrame corrupts a frame on the wire. The receiver's
	// checksum verification drops it and the link layer replays the
	// original, preserving FIFO delivery order.
	NICCorruptFrame Site = "nic.crc-corrupt"
	// NICStuckBD makes a buffer-descriptor fetch return stale data;
	// the NIC re-reads the descriptor after a recovery delay.
	NICStuckBD Site = "nic.stuck-bd"

	// HDCEngineStall stalls the engine's command parser briefly
	// (transient pipeline hang, well below the driver timeout).
	HDCEngineStall Site = "hdc.engine-stall"
	// HDCPoisonCpl poisons a command at admission: the completion
	// entry carries a transient error status and nothing has moved,
	// so the driver's re-issue is idempotent.
	HDCPoisonCpl Site = "hdc.poison-cpl"
	// HDCEngineFail kills the engine's command parser outright. In-
	// flight commands never complete; the driver's command timeout
	// declares the engine dead and ops fall back to the host path.
	HDCEngineFail Site = "hdc.engine-fail"
)

// Sites lists every registered site in stable order.
func Sites() []Site {
	return []Site{
		PCIeDelayPosted, PCIeDropPosted, PCIeLinkDegrade,
		NVMeReadError, NVMeWriteError,
		NICCorruptFrame, NICStuckBD,
		HDCEngineStall, HDCPoisonCpl, HDCEngineFail,
	}
}

// Rule is the plain-data schedule for one site.
type Rule struct {
	// Prob is the per-draw firing probability in [0,1].
	Prob float64
	// Limit caps the number of times the site fires; 0 means
	// unlimited. Limit with Prob=1 means "fail exactly the first
	// Limit attempts", the shape deterministic recovery tests want.
	Limit int
}

// Profile is a named, plain-data fault schedule.
type Profile struct {
	Name  string
	Rules map[Site]Rule
}

// None returns the empty profile: no site ever fires.
func None() Profile { return Profile{Name: "none"} }

// Light returns a low-rate profile across every recoverable site —
// enough to exercise each recovery path in a workload run without
// dominating it.
func Light() Profile {
	return Profile{Name: "light", Rules: map[Site]Rule{
		PCIeDelayPosted: {Prob: 0.01},
		PCIeDropPosted:  {Prob: 0.005},
		PCIeLinkDegrade: {Prob: 0.005},
		NVMeReadError:   {Prob: 0.01},
		NVMeWriteError:  {Prob: 0.01},
		NICCorruptFrame: {Prob: 0.005},
		NICStuckBD:      {Prob: 0.005},
		HDCEngineStall:  {Prob: 0.01},
		HDCPoisonCpl:    {Prob: 0.02},
	}}
}

// Heavy returns an aggressive profile: every recoverable site fires
// often enough that multi-retry sequences and backoff are exercised.
func Heavy() Profile {
	return Profile{Name: "heavy", Rules: map[Site]Rule{
		PCIeDelayPosted: {Prob: 0.05},
		PCIeDropPosted:  {Prob: 0.02},
		PCIeLinkDegrade: {Prob: 0.02},
		NVMeReadError:   {Prob: 0.05},
		NVMeWriteError:  {Prob: 0.05},
		NICCorruptFrame: {Prob: 0.02},
		NICStuckBD:      {Prob: 0.02},
		HDCEngineStall:  {Prob: 0.05},
		HDCPoisonCpl:    {Prob: 0.08},
	}}
}

// EngineFail returns the graceful-degradation scenario: the HDC
// engine dies on the first command it parses and every D2D op must
// fall back to the host-mediated path.
func EngineFail() Profile {
	return Profile{Name: "engine-fail", Rules: map[Site]Rule{
		HDCEngineFail: {Prob: 1, Limit: 1},
	}}
}

// ProfileByName resolves a named profile (for the dcsctl -faults
// flag).
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "", "none":
		return None(), true
	case "light":
		return Light(), true
	case "heavy":
		return Heavy(), true
	case "engine-fail":
		return EngineFail(), true
	}
	return Profile{}, false
}

// ProfileNames lists the named profiles.
func ProfileNames() []string { return []string{"none", "light", "heavy", "engine-fail"} }

// Validate rejects unknown sites and out-of-range rules.
func (pr Profile) Validate() error {
	known := map[Site]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	for s, r := range pr.Rules {
		if !known[s] {
			return fmt.Errorf("fault: unknown site %q", s)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("fault: site %q probability %v out of [0,1]", s, r.Prob)
		}
		if r.Limit < 0 {
			return fmt.Errorf("fault: site %q negative limit %d", s, r.Limit)
		}
	}
	return nil
}

// String renders the profile compactly, sites in stable order.
func (pr Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", pr.Name)
	first := true
	for _, s := range Sites() {
		r, ok := pr.Rules[s]
		if !ok {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s:%g", s, r.Prob)
		if r.Limit > 0 {
			fmt.Fprintf(&b, "/%d", r.Limit)
		}
	}
	b.WriteString("}")
	return b.String()
}

// stream is one site's private PRNG plus counters (xorshift64*, the
// same generator as internal/workload, duplicated so fault never
// perturbs workload replay).
type stream struct {
	state uint64
	draws int64
	hits  int64
}

func (st *stream) next() uint64 {
	x := st.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	st.state = x
	return x * 0x2545F4914F6CDD1D
}

// SiteStats reports one site's draw/fire counts.
type SiteStats struct {
	Draws    int64
	Injected int64
}

// Injector makes the per-event fault decisions for one simulation.
// All methods are nil-receiver safe — device models call Hit
// unconditionally and a nil injector means "no faults". The Injector
// is not goroutine-safe; the discrete-event simulation is single-
// threaded.
type Injector struct {
	seed    uint64
	profile Profile
	streams map[Site]*stream
}

// NewInjector builds an injector for the profile. It panics on an
// invalid profile (a schedule is configuration; failing fast beats
// silently skipping sites).
func NewInjector(seed uint64, profile Profile) *Injector {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{seed: seed, profile: profile, streams: map[Site]*stream{}}
	for s := range profile.Rules {
		in.streams[s] = &stream{state: mix(seed, string(s))}
	}
	return in
}

// mix derives a site stream's initial state from the injector seed
// and the site name (FNV-1a over the name, folded with the seed
// through splitmix64-style finalization). Zero is remapped so
// xorshift never sticks.
func mix(seed uint64, site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// Hit reports whether the fault at site fires for this event, and
// advances that site's stream. Nil-safe: a nil injector never fires.
func (in *Injector) Hit(site Site) bool {
	if in == nil {
		return false
	}
	st, ok := in.streams[site]
	if !ok {
		return false
	}
	r := in.profile.Rules[site]
	if r.Limit > 0 && st.hits >= int64(r.Limit) {
		return false
	}
	st.draws++
	u := float64(st.next()>>11) / float64(1<<53)
	if u >= r.Prob {
		return false
	}
	st.hits++
	return true
}

// Seed returns the injector seed (nil-safe).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Profile returns the schedule the injector was built from
// (nil-safe; the zero Profile for nil).
func (in *Injector) ProfileUsed() Profile {
	if in == nil {
		return Profile{}
	}
	return in.profile
}

// Injected returns how many times the site has fired (nil-safe).
func (in *Injector) Injected(site Site) int64 {
	if in == nil {
		return 0
	}
	st, ok := in.streams[site]
	if !ok {
		return 0
	}
	return st.hits
}

// TotalInjected sums fires across all sites (nil-safe).
func (in *Injector) TotalInjected() int64 {
	if in == nil {
		return 0
	}
	var n int64
	for _, st := range in.streams {
		n += st.hits
	}
	return n
}

// Stats returns per-site draw/fire counts for every site with at
// least one draw, keyed by site (nil-safe; empty map for nil).
func (in *Injector) Stats() map[Site]SiteStats {
	out := map[Site]SiteStats{}
	if in == nil {
		return out
	}
	for s, st := range in.streams {
		if st.draws > 0 {
			out[s] = SiteStats{Draws: st.draws, Injected: st.hits}
		}
	}
	return out
}

// StatsString renders Stats() one line per site in stable order —
// for dcsctl and test failure messages.
func (in *Injector) StatsString() string {
	stats := in.Stats()
	keys := make([]string, 0, len(stats))
	for s := range stats {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		st := stats[Site(k)]
		fmt.Fprintf(&b, "%-20s %8d draws %6d injected\n", k, st.Draws, st.Injected)
	}
	return b.String()
}
