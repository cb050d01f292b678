// Package gpu models the accelerator the paper's baselines use for
// intermediate processing (an NVIDIA Tesla K20m): device memory
// exposed as a P2P target (GPUDirect-style), a DMA copy engine, and
// kernel execution with launch latency and compute throughput. A hash
// kernel computes the real digest over the actual bytes with the same
// ndp unit the HDC Engine runs, so baseline pipelines are functionally
// verifiable too.
package gpu

import (
	"fmt"

	"dcsctrl/internal/mem"
	"dcsctrl/internal/ndp"
	"dcsctrl/internal/pcie"
	"dcsctrl/internal/sim"
)

// Params are the GPU performance characteristics.
type Params struct {
	VRAMBytes    uint64
	LaunchLat    sim.Time // kernel launch to first instruction
	CompleteLat  sim.Time // completion signalling back to host
	HashBps      float64  // checksum kernel throughput over data
	CopyEngines  int      // concurrent DMA engines
	CopySetupLat sim.Time // per-copy programming latency on device
}

// DefaultParams return K20m-calibrated values. Hash throughput is
// deliberately modest: per-request checksum kernels at 4-64 KB sizes
// run far below peak GPU bandwidth (launch-bound, little parallelism).
func DefaultParams() Params {
	return Params{
		VRAMBytes:    64 << 20,
		LaunchLat:    25 * sim.Microsecond,
		CompleteLat:  15 * sim.Microsecond,
		HashBps:      40e9,
		CopyEngines:  2,
		CopySetupLat: 10 * sim.Microsecond,
	}
}

// GPU is the device model.
type GPU struct {
	Name string

	fab    *pcie.Fabric
	params Params
	port   *pcie.Port

	// VRAM is exposed on the bus (GPUDirect): peers may DMA into it.
	VRAM *mem.Region

	copyEng *sim.Resource
	smUnits *sim.Resource // kernel serialization (one kernel at a time)

	kernels int64
	copied  int64
}

// NewGPU builds the device on a new fabric port.
func NewGPU(env *sim.Env, fab *pcie.Fabric, name string, params Params) *GPU {
	g := &GPU{Name: name, fab: fab, params: params}
	g.port = fab.AddPort(name)
	g.VRAM = fab.Mem().AddRegion(name+"-vram", mem.GPUVRAM, params.VRAMBytes, true)
	fab.Attach(g.port, g.VRAM)
	g.copyEng = sim.NewResource(env, name+"-copy", params.CopyEngines)
	g.smUnits = sim.NewResource(env, name+"-sm", 1)
	return g
}

// Stats returns kernels launched and bytes copied by the copy engine.
func (g *GPU) Stats() (kernels, copiedBytes int64) { return g.kernels, g.copied }

// Copy moves n bytes between VRAM and any bus address using a copy
// engine (either direction; a cudaMemcpy issued by the host or a
// GPUDirect peer transfer). The process blocks for the transfer.
func (g *GPU) Copy(p *sim.Proc, dst, src mem.Addr, n int) error {
	g.copyEng.Acquire(p)
	defer g.copyEng.Release()
	p.Sleep(g.params.CopySetupLat)
	return g.fab.DMA(p, g.port, dst, src, n)
}

// RunHashKernel launches a kernel computing unit's digest over
// VRAM[data:data+n] and returns the digest bytes (16 for MD5, 4 for
// CRC32 big-endian). The digest is also written back to VRAM at
// resultAddr.
func (g *GPU) RunHashKernel(p *sim.Proc, unit ndp.Unit, data mem.Addr, n int, resultAddr mem.Addr) ([]byte, error) {
	if !g.VRAM.Contains(data) || !g.VRAM.Contains(resultAddr) {
		return nil, fmt.Errorf("gpu: kernel operands must reside in VRAM")
	}
	g.smUnits.Acquire(p)
	defer g.smUnits.Release()
	p.Sleep(g.params.LaunchLat)
	p.Sleep(sim.BpsToTime(n, g.params.HashBps))
	// View: a digest stream only reads the bytes, synchronously.
	_, digest, err := ndp.Transform(unit, g.fab.Mem().View(data, n))
	if err != nil {
		return nil, err
	}
	g.fab.Mem().Write(resultAddr, digest)
	p.Sleep(g.params.CompleteLat)
	g.kernels++
	g.copied += int64(n)
	return digest, nil
}
