// Command dcsctl runs a single multi-device operation on a chosen
// server configuration and reports latency, breakdown, digest, and
// server CPU — the interactive one-off counterpart of dcsbench.
//
// Usage:
//
//	dcsctl -config dcs-ctrl -op send -size 262144 -proc md5 -n 4
//	dcsctl -config sw-p2p   -op recv -size 1048576 -proc crc32
//	dcsctl -config dcs-ctrl -op send -n 8 -faults heavy -fault-seed 42
//
// The integrated-device design models no receive path, so
// -config dev-integration -op recv is rejected before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/mem"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

func main() {
	cfgName := flag.String("config", "dcs-ctrl", "vanilla|sw-opt|sw-p2p|dev-integration|dcs-ctrl")
	op := flag.String("op", "send", "send (SSD->NIC) or recv (NIC->SSD; not on dev-integration)")
	size := flag.Int("size", 256<<10, fmt.Sprintf("bytes per operation, 1 to %d (the GPU VRAM less two pages)", maxSize))
	procName := flag.String("proc", "md5", "none|md5|crc32|aes256|gzip")
	count := flag.Int("n", 1, "operations to run back to back")
	faults := flag.String("faults", "none",
		"fault-injection profile: "+strings.Join(fault.ProfileNames(), "|"))
	faultSeed := flag.Uint64("fault-seed", 1, "deterministic fault-injection seed")
	flag.Parse()

	kind, proc, err := parse(*cfgName, *op, *procName, *size, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsctl:", err)
		os.Exit(2)
	}
	profile, ok := fault.ProfileByName(*faults)
	if !ok {
		fmt.Fprintf(os.Stderr, "dcsctl: unknown fault profile %q (want %s)\n",
			*faults, strings.Join(fault.ProfileNames(), "|"))
		os.Exit(2)
	}

	params := core.DefaultParams()
	if len(profile.Rules) > 0 {
		params.Faults = fault.NewInjector(*faultSeed, profile)
	}
	env := sim.NewEnv()
	cl := core.NewCluster(env, kind, params)
	content := make([]byte, *size)
	for i := range content {
		content[i] = byte(i * 13)
	}
	conn := cl.OpenConn(true)

	var results []core.OpResult
	switch *op {
	case "send":
		f, err := cl.Server.StageFile("obj", content)
		must(err)
		env.Spawn("server", func(p *sim.Proc) {
			for i := 0; i < *count; i++ {
				res, err := cl.Server.SendFileOp(p, f, 0, *size, conn.ID, proc)
				must(err)
				results = append(results, res)
			}
		})
		env.Spawn("client", func(p *sim.Proc) {
			cl.ClientRecv(p, conn, *count**size)
		})
	case "recv":
		f, err := cl.Server.CreateFile("upload", *size)
		must(err)
		env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < *count; i++ {
				cl.ClientSend(p, conn, content)
			}
		})
		env.Spawn("server", func(p *sim.Proc) {
			for i := 0; i < *count; i++ {
				res, err := cl.Server.RecvFileOp(p, conn.ID, f, 0, *size, proc)
				must(err)
				results = append(results, res)
			}
		})
	}
	end := env.Run(-1)

	var lat trace.Sample
	for _, r := range results {
		lat.AddTime(r.Latency)
	}
	fmt.Printf("%s %s ×%d, %d bytes each, processing=%s\n", kind, *op, *count, *size, proc)
	fmt.Printf("latency µs: mean=%.1f p50=%.1f min=%.1f max=%.1f\n",
		lat.Mean(), lat.Percentile(50), lat.Min(), lat.Max())
	if len(results) > 0 {
		fmt.Printf("last breakdown: %v\n", results[len(results)-1].Breakdown)
		if d := results[len(results)-1].Digest; len(d) > 0 {
			fmt.Printf("digest: %x\n", d)
		}
	}
	busy := cl.Server.Host.Acct.TotalBusy()
	fmt.Printf("server CPU busy %v over %v (%.1f%% of %d cores)\n",
		busy, end, cl.Server.Host.Utilization()*100, core.DefaultParams().Host.Cores)
	gbps := float64(*count**size) * 8 / end.Seconds() / 1e9
	fmt.Printf("delivered %.2f Gbps\n", gbps)

	if params.Faults != nil {
		fmt.Printf("\nfault injection (profile=%s seed=%d): %d faults fired\n",
			params.Faults.ProfileUsed().Name, params.Faults.Seed(), params.Faults.TotalInjected())
		if s := params.Faults.StatsString(); s != "" {
			fmt.Print(s)
		}
		replays, refetches := cl.Server.NIC.RecoveryStats()
		fmt.Printf("recovery: nic-tx-replays=%d nic-bd-refetches=%d host-nvme-retries=%d fallbacks=%d\n",
			replays, refetches, cl.Server.HostNVMeRetries(), cl.Server.Fallbacks())
		if d := cl.Server.Driver; d != nil {
			fmt.Printf("hdc driver: retries=%d timeouts=%d engine-failed=%v\n",
				d.Retries(), d.Timeouts(), d.Failed())
		}
	}
}

// maxSize is the largest operation every configuration runs: the
// baselines' GPU path stages the operation's bytes plus a spare page
// and a result page in GPU VRAM.
var maxSize = int(core.DefaultParams().GPU.VRAMBytes) - 2*mem.PageSize

// parse checks the command line's choices before anything is built:
// the configuration, the operation (and that the configuration models
// it), the processing unit, the operation size and the count.
func parse(cfgName, op, procName string, size, count int) (core.Config, core.Processing, error) {
	var kind core.Config
	found := false
	for _, k := range []core.Config{core.Vanilla, core.SWOpt, core.SWP2P, core.DevIntegration, core.DCSCtrl} {
		if k.String() == cfgName {
			kind, found = k, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("unknown config %q", cfgName)
	}
	switch {
	case op != "send" && op != "recv":
		return 0, 0, fmt.Errorf("unknown op %q", op)
	case op == "recv" && kind == core.DevIntegration:
		return 0, 0, fmt.Errorf("-config %s -op recv: the integrated device models no receive path", cfgName)
	}
	procs := map[string]core.Processing{
		"none": core.ProcNone, "md5": core.ProcMD5, "crc32": core.ProcCRC32,
		"aes256": core.ProcAES256, "gzip": core.ProcGZIP,
	}
	proc, ok := procs[procName]
	switch {
	case !ok:
		return 0, 0, fmt.Errorf("unknown processing %q", procName)
	case size < 1 || size > maxSize:
		return 0, 0, fmt.Errorf("-size %d: want 1 to %d bytes", size, maxSize)
	case count < 1:
		return 0, 0, fmt.Errorf("-n %d: want at least 1 operation", count)
	}
	return kind, proc, nil
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsctl:", err)
		os.Exit(1)
	}
}
