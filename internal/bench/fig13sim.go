package bench

import (
	"fmt"
	"io"

	"dcsctrl/internal/core"
	"dcsctrl/internal/hdc"
	"dcsctrl/internal/report"
	"dcsctrl/internal/sim"
)

// Figure13Sim validates the paper's Figure 13 projection by direct
// simulation instead of extrapolation: a 40-Gbps NIC, six SSDs, and
// one 6-core CPU per node, saturated with concurrent object streams
// (GET with MD5 integrity). Two fabric variants are measured:
//
//   - the paper's own PCIe Gen2 switch, where DCS-ctrl turns out to be
//     *fabric-bound* (every payload byte crosses the engine port twice)
//     — a real deployment consideration the projection glosses over;
//   - a Gen3 x16 fabric, where DCS-ctrl approaches the wire while the
//     software design stays CPU-bound, reproducing the projected ~2x.
type Figure13Sim struct {
	// Gbps[fabric][config] is delivered saturation throughput.
	Gbps map[string]map[core.Config]float64
	// Gains per fabric: DCS-ctrl over SW-ctrl P2P.
	Gains map[string]float64
}

// Fig13SimParams returns the scaled-up node parameters (Gen2 fabric).
func Fig13SimParams() core.Params {
	params := core.DefaultParams()
	params.NumSSDs = 6
	params.NIC.WireBps = 40e9
	params.HostNICQueues = 4
	params.HDC.NDPTargetBps = 40e9
	// Provision only the units the workload needs: a 40-Gbps MD5 bank
	// is 42 instances, and the full Table III set at 40 Gbps would no
	// longer fit the Virtex-7 — the flexibility/provisioning trade the
	// paper's resource tables are about.
	params.NDPFuncs = []uint8{hdc.FnMD5, hdc.FnCRC32}
	// Peak in-flight staging grows with the concurrent stream count
	// (32 × 256 KB streams, double-buffered).
	params.HostArenaBytes = 256 << 20
	params.GPU.VRAMBytes = 128 << 20
	// Scale the engine: deeper command queue and scoreboard, more NIC
	// queue pairs (like host RSS), more DDR3 buffering.
	params.HDC.CmdQueueEntries = 128
	params.HDC.ScoreboardEntries = 256
	params.HDC.NICEntries = 1024
	params.HDC.DDR3Bytes = 192 << 20
	params.HDC.ChunkCount = 1024
	params.HDC.RecvBufs = 32768
	params.HDC.Window = 8
	params.EngineNICQueues = 4
	return params
}

// fig13Fabrics lists the measured fabric variants.
var fig13Fabrics = []struct {
	name string
	mod  func(*core.Params)
}{
	{"pcie-gen2 (paper's switch)", func(p *core.Params) {}},
	{"pcie-gen3 x16", func(p *core.Params) {
		p.PCIe.LinkBps = 126e9
		p.PCIe.CoreBps = 512e9
	}},
}

// fig13Stream measures saturation throughput: k concurrent 256 KB GET
// streams with MD5, repeated so the pipeline reaches steady state.
func fig13Stream(kind core.Config, params core.Params) float64 {
	env := sim.NewEnv()
	cl := core.NewCluster(env, kind, params)
	const size = 256 << 10
	const k = 32
	const rounds = 6
	done := 0
	for i := 0; i < k; i++ {
		conn := cl.OpenConn(true)
		f, err := cl.Server.StageFile(fmt.Sprintf("f%d", i), make([]byte, size))
		if err != nil {
			panic(err)
		}
		ff, cn := f, conn
		env.Spawn("stream", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				if _, err := cl.Server.SendFileOp(p, ff, 0, size, cn.ID, core.ProcMD5); err != nil {
					panic(err)
				}
				done++
			}
		})
		env.Spawn("sink", func(p *sim.Proc) { cl.ClientRecv(p, cn, rounds*size) })
	}
	end := env.Run(-1)
	return float64(done*size) * 8 / end.Seconds() / 1e9
}

// RunFigure13SimParallel fans the fabric×config saturation cells
// across up to workers goroutines.
func RunFigure13SimParallel(workers int) Figure13Sim {
	out := Figure13Sim{
		Gbps:  map[string]map[core.Config]float64{},
		Gains: map[string]float64{},
	}
	configs := []core.Config{core.SWP2P, core.DCSCtrl}
	gbps := make([]float64, len(fig13Fabrics)*len(configs))
	ParallelFor(len(gbps), workers, func(i int) {
		fab := fig13Fabrics[i/len(configs)]
		params := Fig13SimParams()
		fab.mod(&params)
		gbps[i] = fig13Stream(configs[i%len(configs)], params)
	})
	for fi, fab := range fig13Fabrics {
		row := map[core.Config]float64{}
		for ci, k := range configs {
			row[k] = gbps[fi*len(configs)+ci]
		}
		out.Gbps[fab.name] = row
		if row[core.SWP2P] > 0 {
			out.Gains[fab.name] = row[core.DCSCtrl] / row[core.SWP2P]
		}
	}
	return out
}

// Render writes the measured-saturation table.
func (f Figure13Sim) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 13 (validated by simulation): GET saturation at 40 GbE, 6 SSDs, 6 cores",
		Headers: []string{"fabric", "sw-p2p Gbps", "dcs-ctrl Gbps", "gain"},
	}
	for _, fab := range fig13Fabrics {
		row := f.Gbps[fab.name]
		t.AddRow(fab.name,
			fmt.Sprintf("%.1f", row[core.SWP2P]),
			fmt.Sprintf("%.1f", row[core.DCSCtrl]),
			fmt.Sprintf("%.2fx", f.Gains[fab.name]))
	}
	t.Render(w)
	fmt.Fprintln(w, "  On the paper's Gen2 switch DCS-ctrl is fabric-bound (each byte")
	fmt.Fprintln(w, "  crosses the engine port twice); with a Gen3 fabric it approaches")
	fmt.Fprintln(w, "  the wire while the software design stays CPU-bound — the measured")
	fmt.Fprintln(w, "  counterpart of the paper's ~1.95x projection.")
	fmt.Fprintln(w)
}
