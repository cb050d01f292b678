// Package core assembles the testbed: a node is a host (CPU cores +
// kernel stacks) plus an NVMe SSD, a 10-GbE NIC, a GPU, and — in the
// DCS-ctrl configuration — the HDC Engine, all behind a PCIe switch.
// It implements the paper's compared designs as multi-device task
// execution paths over the same device models:
//
//   - Vanilla: stock kernel (page cache, socket buffers, copies).
//   - SWOpt: optimized kernel (direct I/O, reduced copies), data
//     staged through host DRAM — the paper's baseline (§II-B1).
//   - SWP2P: software-controlled peer-to-peer — data moves directly
//     between devices where a P2P target exists (GPU VRAM), but every
//     control action still runs on the host CPU.
//   - DevIntegration: a tightly integrated storage+NIC+accelerator
//     device (QuickSAN/BlueDBM-style reference point of Figure 3).
//   - DCSCtrl: the paper's contribution — control and data both move
//     to the HDC Engine.
package core

import (
	"fmt"

	"dcsctrl/internal/fault"
	"dcsctrl/internal/gpu"
	"dcsctrl/internal/hdc"
	"dcsctrl/internal/hostos"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/nic"
	"dcsctrl/internal/nvme"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Config selects a server design.
type Config int

// The compared designs.
const (
	Vanilla Config = iota
	SWOpt
	SWP2P
	DevIntegration
	DCSCtrl
)

func (c Config) String() string {
	switch c {
	case Vanilla:
		return "vanilla"
	case SWOpt:
		return "sw-opt"
	case SWP2P:
		return "sw-p2p"
	case DevIntegration:
		return "dev-integration"
	case DCSCtrl:
		return "dcs-ctrl"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// Params bundles every model's parameters. Calibration constants live
// here; EXPERIMENTS.md documents their provenance.
type Params struct {
	Host   hostos.Params
	SSD    nvme.Params
	NIC    nic.Params
	GPU    gpu.Params
	PCIe   pcie.Params
	HDC    hdc.Params
	Driver hdc.DriverParams

	// Integrated-device reference (Figure 3): a consolidated
	// storage+NIC+accelerator with an internal interconnect.
	IntegratedInternalBps float64  // internal data-path bandwidth
	IntegratedCtrl        sim.Time // hardware control path per op

	// NumSSDs is the number of SSDs per node (Figure 13 assumes six).
	// Files are distributed round-robin across them.
	NumSSDs int
	// NDPFuncs lists the NDP units provisioned on DCS engines; nil
	// means all of them. Narrow it when provisioning for a faster
	// line rate so the design still fits the Virtex-7.
	NDPFuncs []uint8
	// HostNICQueues is the host driver's receive-queue count (RSS).
	// One queue suffices at 10 GbE; the 40 GbE experiments need
	// several so the softirq path scales across cores.
	HostNICQueues int
	// HostArenaBytes sizes the host staging-buffer arena. It must
	// exceed the peak in-flight buffer footprint (concurrent ops ×
	// object size); the 40 GbE runs need more than the default.
	HostArenaBytes uint64
	// EngineNICQueues is the number of NIC queue pairs the HDC Engine
	// drives. One suffices at 10 GbE; 40 GbE needs several, exactly
	// as the host side needs RSS.
	EngineNICQueues int

	// Faults, when non-nil, threads a deterministic fault injector
	// through every device model on the node (internal/fault). NewNode
	// also arms the HDC Driver's command watchdog (unless CmdTimeout
	// was set explicitly) so an injected engine failure is detected
	// and recovered rather than hanging the run.
	Faults *fault.Injector
}

// DefaultParams return the full calibrated parameter set.
func DefaultParams() Params {
	return Params{
		Host:                  hostos.DefaultParams(),
		SSD:                   nvme.DefaultParams(),
		NIC:                   nic.DefaultParams(),
		GPU:                   gpu.DefaultParams(),
		PCIe:                  pcie.DefaultParams(),
		HDC:                   hdc.DefaultParams(),
		Driver:                hdc.DefaultDriverParams(),
		IntegratedInternalBps: 64e9,
		IntegratedCtrl:        1 * sim.Microsecond,
		NumSSDs:               1,
		HostNICQueues:         1,
		HostArenaBytes:        128 << 20,
		EngineNICQueues:       1,
	}
}

// Processing identifies the intermediate data processing of a task
// (Table II), mapped to NDP functions or GPU kernels depending on the
// configuration.
type Processing uint8

// Supported intermediate processing kinds.
const (
	ProcNone   Processing = Processing(hdc.FnNone)
	ProcMD5    Processing = Processing(hdc.FnMD5)
	ProcCRC32  Processing = Processing(hdc.FnCRC32)
	ProcSHA256 Processing = Processing(hdc.FnSHA256)
	ProcAES256 Processing = Processing(hdc.FnAES256)
	ProcGZIP   Processing = Processing(hdc.FnGZIP)
)

func (p Processing) String() string { return hdc.FnName(uint8(p)) }

// digestUnit returns the NDP unit whose digest a processing kind
// computes, or nil for a kind that computes none; onGPU reports whether
// the baselines' GPU has a kernel for it (otherwise a baseline computes
// it on the CPU).
func (p Processing) digestUnit() (unit ndp.Unit, onGPU bool) {
	switch p {
	case ProcMD5:
		return ndp.MD5{}, true
	case ProcCRC32:
		return ndp.CRC32{}, true
	case ProcSHA256:
		return ndp.SHA256{}, false
	default:
		return nil, false
	}
}
