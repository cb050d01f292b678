package apps

import (
	"bytes"
	"fmt"
	"testing"

	"dcsctrl/internal/core"
	"dcsctrl/internal/ether"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// requireStagingFree asserts that no node holds a staging buffer or a
// user mapping, and that no fabric keeps an owner entry for a region
// its map no longer holds. Once a run is quiescent every buffer staged
// for a device is back and every send has unmapped and detached its
// caller's bytes, so a call site that forgets a release fails here,
// and so would the cluster's next snapshot.
func requireStagingFree(t *testing.T, nodes ...*core.Node) {
	t.Helper()
	for _, n := range nodes {
		if spans, bytes := n.StagingLive(); spans != 0 {
			t.Errorf("%s holds %d staging buffers (%d bytes) after the run", n.Name, spans, bytes)
		}
		if k := n.MM.UserMappings(); k != 0 {
			t.Errorf("%s holds %d user mappings after the run", n.Name, k)
		}
		if k := n.Fab.StaleOwners(); k != 0 {
			t.Errorf("%s's fabric keeps %d owner entries for unmapped regions", n.Name, k)
		}
	}
}

// TestStagingConservation runs every path that stages host or GPU
// memory, or maps a caller's bytes for a send, to quiescence and
// checks that each node got every staging buffer back and unmapped
// every send: a Fig 11 cell on each design, Swift and HDFS on Vanilla
// and the three evaluated designs, GET-only Swift on a dev-integration
// server and HDFS from a dev-integration sender, Swift under the light and heavy fault profiles (host NVMe
// re-issues, NIC replays), the DCS-ctrl engine failure with its host
// fallbacks, and racks of 4 and 8 nodes.
func TestStagingConservation(t *testing.T) {
	designs := []core.Config{core.SWOpt, core.SWP2P, core.DCSCtrl}
	t.Run("fig11", func(t *testing.T) {
		for _, kind := range []core.Config{core.Vanilla, core.SWOpt, core.SWP2P, core.DevIntegration, core.DCSCtrl} {
			const n = 4096
			env := sim.NewEnv()
			cl := core.NewCluster(env, kind, core.DefaultParams())
			f, err := cl.Server.StageFile("obj", make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			conn := cl.OpenConn(true)
			env.Spawn("server", func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					if _, err := cl.Server.SendFileOp(p, f, 0, n, conn.ID, core.ProcMD5); err != nil {
						t.Errorf("%v: %v", kind, err)
					}
				}
			})
			env.Spawn("client", func(p *sim.Proc) { cl.ClientRecv(p, conn, 2*n) })
			env.Run(-1)
			requireStagingFree(t, cl.Server, cl.Client)
		}
	})
	hdfs := func(t *testing.T, receiver, sender core.Config) {
		env := sim.NewEnv()
		cl := core.NewClusterWithClient(env, receiver, sender, core.DefaultParams())
		cfg := DefaultHDFSConfig()
		cfg.Streams = 2
		cfg.BlockSize = 512 << 10
		cfg.Warmup = sim.Millisecond
		cfg.Duration = 10 * sim.Millisecond
		res, err := RunHDFS(env, cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks == 0 || res.Errors != 0 {
			t.Fatalf("%d blocks moved, %d errors", res.Blocks, res.Errors)
		}
		requireStagingFree(t, cl.Server, cl.Client)
	}
	for _, kind := range append([]core.Config{core.Vanilla}, designs...) {
		t.Run("swift/"+kind.String(), func(t *testing.T) {
			env := sim.NewEnv()
			cl := core.NewCluster(env, kind, core.DefaultParams())
			if _, err := RunSwift(env, cl, smallSwift()); err != nil {
				t.Fatal(err)
			}
			requireStagingFree(t, cl.Server, cl.Client)
		})
		t.Run("hdfs/"+kind.String(), func(t *testing.T) { hdfs(t, kind, kind) })
	}
	// The integrated device models no receive path, so it serves Swift
	// GETs only, and sends HDFS blocks to an SW-opt receiver.
	t.Run("swift/"+core.DevIntegration.String(), func(t *testing.T) {
		env := sim.NewEnv()
		cl := core.NewCluster(env, core.DevIntegration, core.DefaultParams())
		cfg := smallSwift()
		cfg.GETRatio = 1
		res, err := RunSwift(env, cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.GETs == 0 || res.Errors != 0 {
			t.Fatalf("%d GETs, %d errors", res.GETs, res.Errors)
		}
		requireStagingFree(t, cl.Server, cl.Client)
	})
	t.Run("hdfs/"+core.DevIntegration.String(), func(t *testing.T) { hdfs(t, core.SWOpt, core.DevIntegration) })
	t.Run("faults", func(t *testing.T) {
		var nvmeRetries, replays int64
		for _, profile := range []fault.Profile{fault.Light(), fault.Heavy()} {
			for _, kind := range designs {
				params := core.DefaultParams()
				params.Faults = fault.NewInjector(42, profile)
				env := sim.NewEnv()
				cl := core.NewCluster(env, kind, params)
				cfg := DefaultSwiftConfig()
				cfg.Conns = 4
				cfg.Warmup = sim.Millisecond
				cfg.Duration = 8 * sim.Millisecond
				if _, err := RunSwift(env, cl, cfg); err != nil {
					t.Fatalf("%s/%v: %v", profile.Name, kind, err)
				}
				requireStagingFree(t, cl.Server, cl.Client)
				nvmeRetries += cl.Server.HostNVMeRetries()
				r, _ := cl.Server.NIC.RecoveryStats()
				replays += r
			}
		}
		if nvmeRetries == 0 || replays == 0 {
			t.Fatalf("recovery paths not exercised: %d host NVMe re-issues, %d NIC replays", nvmeRetries, replays)
		}
	})
	t.Run("engine-fail", func(t *testing.T) {
		profile, _ := fault.ProfileByName("engine-fail")
		params := core.DefaultParams()
		params.Faults = fault.NewInjector(42, profile)
		env := sim.NewEnv()
		cl := core.NewCluster(env, core.DCSCtrl, params)
		cfg := DefaultSwiftConfig()
		cfg.Conns = 4
		cfg.Warmup = sim.Millisecond
		// The window outlasts the 20 ms driver watchdog, so the host
		// fallback serves GETs and PUTs.
		cfg.Duration = 30 * sim.Millisecond
		s, err := PrepareSwift(env, cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunPhase(cfg.Warmup, cfg.Duration); err != nil {
			t.Fatal(err)
		}
		if cl.Server.Fallbacks() == 0 {
			t.Fatal("the host fallback never ran")
		}
		requireStagingFree(t, cl.Server, cl.Client)

		// A copy on the failed engine degrades to a host-staged one.
		const n = 256 << 10
		content := bytes.Repeat([]byte("staging"), n/7+1)[:n]
		src, err := cl.Server.StageFile("copy-src", content)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := cl.Server.CreateFile("copy-dst", n)
		if err != nil {
			t.Fatal(err)
		}
		fallbacks := cl.Server.Fallbacks()
		env.Spawn("copy", func(p *sim.Proc) {
			if _, err := cl.Server.CopyFileOp(p, src, 0, dst, 0, n, core.ProcMD5); err != nil {
				t.Error(err)
			}
		})
		env.Run(-1)
		if cl.Server.Fallbacks() == fallbacks || !bytes.Equal(cl.Server.ReadBack(dst), content) {
			t.Fatal("the copy did not complete on the host fallback")
		}
		requireStagingFree(t, cl.Server, cl.Client)
	})
	rack := func(t *testing.T, nodes int) {
		r := core.NewRack(core.RackParams{Nodes: nodes, Domains: 2, Spec: ether.RackSpec{NodesPerToR: 2}})
		payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, 16<<10)
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				src, dst, conn := src, dst, r.OpenConn(src, dst, false)
				r.Nodes[src].Env.Spawn(fmt.Sprintf("send-%d-%d", src, dst), func(p *sim.Proc) {
					r.NodeSend(p, src, conn, payload)
				})
				r.Nodes[dst].Env.Spawn(fmt.Sprintf("recv-%d-%d", src, dst), func(p *sim.Proc) {
					if got := r.NodeRecv(p, dst, conn, len(payload)); !bytes.Equal(got, payload) {
						t.Errorf("flow %d->%d corrupted", src, dst)
					}
				})
			}
		}
		r.Run(-1)
		requireStagingFree(t, r.Nodes...)
	}
	t.Run("rack", func(t *testing.T) { rack(t, 4) })
	t.Run("rack-8", func(t *testing.T) { rack(t, 8) })
}
