// Package ndp implements the HDC Engine's near-device processing
// units (§III-D): data-integrity, encryption, and compression IP cores
// that run between device operations so D2D transfers need no host
// CPU. Each unit carries the Table III FPGA resource/throughput model
// and performs the real transformation (stdlib crypto/compress), so
// pipelines are verified end to end, byte for byte.
package ndp

import (
	"fmt"

	"dcsctrl/internal/fpga"
	"dcsctrl/internal/sim"
)

// Unit is one IP core type.
type Unit interface {
	// Name is the IP core's short name ("md5", "aes256", ...).
	Name() string
	// UnitThroughputBps is one instance's data throughput (Table III).
	UnitThroughputBps() float64
	// PerUnitUsage is one instance's FPGA resource cost (Table III).
	PerUnitUsage() fpga.Usage
	// NewStream returns a fresh instance of the unit's transformation
	// for one object.
	NewStream() Stream
}

// Transform runs in through a fresh stream of u as one chunk and
// returns the output bytes and the auxiliary result (the digest of an
// integrity unit, nil otherwise). It is the one-shot form in which a
// CPU or GPU computes what the engine's unit computes. A one-shot GZIP
// output carries the stream's sync-flush block; it decompresses the
// same.
func Transform(u Unit, in []byte) (out, aux []byte, err error) {
	st := u.NewStream()
	if out, err = st.Write(in); err != nil {
		return nil, nil, fmt.Errorf("ndp: %s: %w", u.Name(), err)
	}
	tail, aux, err := st.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("ndp: %s: %w", u.Name(), err)
	}
	return append(out, tail...), aux, nil
}

// TargetBps is the line rate the paper provisions NDP banks for.
const TargetBps = 10e9

// UnitsFor returns the number of instances needed to sustain bps.
func UnitsFor(u Unit, bps float64) int {
	n := 1
	for float64(n)*u.UnitThroughputBps() < bps {
		n++
	}
	return n
}

// Bank is a provisioned set of identical units plus the timing model:
// processing occupies the bank's aggregate bandwidth, with a small
// per-invocation setup cost (buffer switch, unit dispatch).
type Bank struct {
	unit  Unit
	units int
	bw    *sim.BandwidthServer
	setup sim.Time

	invocations int64
	bytes       int64
}

// NewBank provisions enough instances of u to sustain targetBps and
// claims their FPGA resources from budget (error when the device is
// too full — the paper's flexibility constraint made concrete).
func NewBank(env *sim.Env, budget *fpga.Budget, u Unit, targetBps float64) (*Bank, error) {
	n := UnitsFor(u, targetBps)
	per := u.PerUnitUsage()
	total := fpga.Usage{
		Component:   "ndp-" + u.Name(),
		LUTs:        per.LUTs * n,
		Registers:   per.Registers * n,
		BRAMs:       per.BRAMs * n,
		PowerW:      per.PowerW * float64(n),
		MaxClockMHz: per.MaxClockMHz,
	}
	if err := budget.Claim(total); err != nil {
		return nil, fmt.Errorf("ndp: provisioning %d×%s: %w", n, u.Name(), err)
	}
	agg := float64(n) * u.UnitThroughputBps()
	return &Bank{
		unit:  u,
		units: n,
		bw:    sim.NewBandwidthServer(env, "ndp-"+u.Name(), agg, 0),
		setup: 500 * sim.Nanosecond,
	}, nil
}

// Unit returns the bank's IP core type.
func (b *Bank) Unit() Unit { return b.unit }

// Units returns the instance count.
func (b *Bank) Units() int { return b.units }

// AggregateBps returns the bank's total throughput.
func (b *Bank) AggregateBps() float64 { return b.bw.Rate() }

// Stats returns invocation and byte counters.
func (b *Bank) Stats() (invocations, bytes int64) { return b.invocations, b.bytes }
