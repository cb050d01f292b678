package apps

import (
	"fmt"

	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// HDFSConfig drives the balancer experiment: a sender reads blocks
// from its SSD and ships them; the receiver computes CRC32 and stores
// them (§V-C2). Block size is scaled down from HDFS's 64/128 MB to
// keep discrete-event runs tractable (documented in EXPERIMENTS.md).
type HDFSConfig struct {
	Streams   int
	BlockSize int
	Warmup    sim.Time
	Duration  sim.Time

	// AppCPUPerBlock is the DataNode/balancer application-level cost
	// per block (Java protocol handling, block bookkeeping); paid on
	// every configuration.
	AppCPUPerBlock sim.Time
	// AppRelayBps is the baseline DataNode's user-space per-byte data
	// shuffling rate; eliminated under DCS-ctrl.
	AppRelayBps float64
}

// DefaultHDFSConfig returns the evaluation setup.
func DefaultHDFSConfig() HDFSConfig {
	return HDFSConfig{
		Streams:        4,
		BlockSize:      1 << 20,
		Warmup:         2 * sim.Millisecond,
		Duration:       30 * sim.Millisecond,
		AppCPUPerBlock: 430 * sim.Microsecond,
		AppRelayBps:    17.2e9,
	}
}

// HDFSResult summarizes a balancer run. Sender and receiver busy
// times are reported separately, as in Figure 12b.
type HDFSResult struct {
	Blocks  int
	Bytes   int64
	Elapsed sim.Time

	SenderBusy   map[trace.Category]sim.Time
	ReceiverBusy map[trace.Category]sim.Time
	SenderCPU    float64
	ReceiverCPU  float64
	Gbps         float64
	Errors       int
}

// RunHDFS executes the balancer: the cluster's Client is the sender
// and the Server is the receiver (both run the configuration under
// test; build the cluster with NewClusterWithClient).
func RunHDFS(env *sim.Env, cl *core.Cluster, cfg HDFSConfig) (HDFSResult, error) {
	if cfg.Streams < 1 || cfg.BlockSize < 4096 {
		return HDFSResult{}, fmt.Errorf("apps: bad HDFS config")
	}
	res := HDFSResult{
		SenderBusy:   map[trace.Category]sim.Time{},
		ReceiverBusy: map[trace.Category]sim.Time{},
	}

	content := periodic(cfg.BlockSize, 7, 1)

	stop := false
	measuring := false
	for s := 0; s < cfg.Streams; s++ {
		conn := cl.OpenConn(true)
		srcF, err := cl.Client.StageFile(fmt.Sprintf("blk-src-%d", s), content)
		if err != nil {
			return res, err
		}
		dstF, err := cl.Server.CreateFile(fmt.Sprintf("blk-dst-%d", s), cfg.BlockSize)
		if err != nil {
			return res, err
		}
		// Sender: read a block from the SSD and send it, no checksum.
		env.Spawn("hdfs-sender", func(p *sim.Proc) {
			for !stop {
				cl.Client.Host.Exec(p, trace.CatUser, cfg.AppCPUPerBlock, nil)
				if relayed(cl.Client.Kind) && cfg.AppRelayBps > 0 {
					cl.Client.Host.Exec(p, trace.CatUser, sim.BpsToTime(cfg.BlockSize, cfg.AppRelayBps), nil)
				}
				if _, err := cl.Client.SendFileOp(p, srcF, 0, cfg.BlockSize, conn.ID, core.ProcNone); err != nil {
					res.Errors++
					return
				}
			}
		})
		// Receiver: receive, CRC32, store.
		env.Spawn("hdfs-receiver", func(p *sim.Proc) {
			for !stop {
				cl.Server.Host.Exec(p, trace.CatUser, cfg.AppCPUPerBlock, nil)
				if relayed(cl.Server.Kind) && cfg.AppRelayBps > 0 {
					cl.Server.Host.Exec(p, trace.CatUser, sim.BpsToTime(cfg.BlockSize, cfg.AppRelayBps), nil)
				}
				if _, err := cl.Server.RecvFileOp(p, conn.ID, dstF, 0, cfg.BlockSize, core.ProcCRC32); err != nil {
					res.Errors++
					return
				}
				if measuring {
					res.Blocks++
					res.Bytes += int64(cfg.BlockSize)
				}
			}
		})
	}

	env.Spawn("hdfs-measure", func(p *sim.Proc) {
		p.Sleep(cfg.Warmup)
		cl.Server.Host.Acct.Reset()
		cl.Client.Host.Acct.Reset()
		measuring = true
		p.Sleep(cfg.Duration)
		measuring = false
		for _, cat := range cl.Client.Host.Acct.Categories() {
			res.SenderBusy[cat] = cl.Client.Host.Acct.Busy(cat)
		}
		for _, cat := range cl.Server.Host.Acct.Categories() {
			res.ReceiverBusy[cat] = cl.Server.Host.Acct.Busy(cat)
		}
		res.SenderCPU = cl.Client.Host.Utilization()
		res.ReceiverCPU = cl.Server.Host.Utilization()
		res.Elapsed = cl.Server.Host.Acct.Window()
		stop = true
	})

	env.Run(-1)
	if res.Elapsed > 0 {
		res.Gbps = float64(res.Bytes) * 8 / res.Elapsed.Seconds() / 1e9
	}
	return res, nil
}
