package core

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"dcsctrl/internal/hostos"
	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*13 + i>>9)
	}
	return out
}

// runSend executes one SendFileOp on a fresh cluster of the given
// kind and returns the result plus the bytes the client received.
func runSend(t *testing.T, kind Config, nbytes int, proc Processing) (OpResult, []byte) {
	t.Helper()
	env := sim.NewEnv()
	cl := NewCluster(env, kind, DefaultParams())
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	content := pattern(nbytes)
	f, err := cl.Server.StageFile("obj", content)
	if err != nil {
		t.Fatal(err)
	}
	conn := cl.OpenConn(true)
	var res OpResult
	var got []byte
	env.Spawn("server-app", func(p *sim.Proc) {
		res, err = cl.Server.SendFileOp(p, f, 0, nbytes, conn.ID, proc)
	})
	env.Spawn("client-app", func(p *sim.Proc) {
		got = cl.ClientRecv(p, conn, nbytes)
	})
	env.Run(-1)
	if err != nil {
		t.Fatalf("%v SendFileOp: %v", kind, err)
	}
	return res, got
}

func TestSendFileAllConfigsDeliverSameBytes(t *testing.T) {
	content := pattern(96 << 10)
	for _, kind := range []Config{Vanilla, SWOpt, SWP2P, DevIntegration, DCSCtrl} {
		_, got := runSend(t, kind, len(content), ProcNone)
		if !bytes.Equal(got, content) {
			t.Fatalf("%v: client bytes differ", kind)
		}
	}
}

func TestSendFileMD5DigestAgreesEverywhere(t *testing.T) {
	content := pattern(128 << 10)
	want := md5.Sum(content)
	for _, kind := range []Config{SWOpt, SWP2P, DevIntegration, DCSCtrl} {
		res, got := runSend(t, kind, len(content), ProcMD5)
		if !bytes.Equal(res.Digest, want[:]) {
			t.Fatalf("%v digest = %x, want %x", kind, res.Digest, want)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("%v payload corrupted", kind)
		}
	}
}

func TestLatencyOrderingSSDToNIC(t *testing.T) {
	// Figure 11a shape: DCS-ctrl < SW-ctrl P2P ≈ SW-opt (no P2P target
	// exists for SSD->NIC, so SW-P2P degenerates), and the hardware
	// control path saves a sizable fraction.
	const n = 4096
	swOpt, _ := runSend(t, SWOpt, n, ProcNone)
	swP2P, _ := runSend(t, SWP2P, n, ProcNone)
	dcs, _ := runSend(t, DCSCtrl, n, ProcNone)
	integ, _ := runSend(t, DevIntegration, n, ProcNone)

	if swP2P.Latency != swOpt.Latency {
		t.Fatalf("SW-P2P (%v) should equal SW-opt (%v) without a P2P target", swP2P.Latency, swOpt.Latency)
	}
	if dcs.Latency >= swP2P.Latency {
		t.Fatalf("DCS (%v) not faster than SW-P2P (%v)", dcs.Latency, swP2P.Latency)
	}
	red := 1 - dcs.Latency.Seconds()/swP2P.Latency.Seconds()
	if red < 0.20 || red > 0.65 {
		t.Fatalf("latency reduction %.0f%% outside the paper's ballpark (~42%%)", red*100)
	}
	if integ.Latency > dcs.Latency+10*sim.Microsecond {
		t.Fatalf("integration (%v) much slower than DCS (%v)", integ.Latency, dcs.Latency)
	}
}

func TestLatencyOrderingWithProcessing(t *testing.T) {
	// Figure 11b shape: baselines pay GPU control + copies; SW-P2P
	// saves the copies but not the control; DCS with NDP wins big.
	// The paper's microbenchmark is per-4KB-command (§IV-C).
	const n = 4096
	swOpt, _ := runSend(t, SWOpt, n, ProcMD5)
	swP2P, _ := runSend(t, SWP2P, n, ProcMD5)
	dcs, _ := runSend(t, DCSCtrl, n, ProcMD5)

	if swP2P.Latency >= swOpt.Latency {
		t.Fatalf("SW-P2P (%v) not faster than SW-opt (%v) with GPU processing", swP2P.Latency, swOpt.Latency)
	}
	if dcs.Latency >= swP2P.Latency {
		t.Fatalf("DCS (%v) not faster than SW-P2P (%v)", dcs.Latency, swP2P.Latency)
	}
	// GPU-control overheads the baselines pay must be visible.
	if swOpt.Breakdown.Get(trace.CatGPUCtrl) == 0 || swOpt.Breakdown.Get(trace.CatGPUCopy) == 0 {
		t.Fatal("SW-opt breakdown missing GPU phases")
	}
	if dcs.Breakdown.Get(trace.CatGPUCtrl) != 0 {
		t.Fatal("DCS breakdown contains GPU control")
	}
}

func TestRecvFileWritesThroughToFlash(t *testing.T) {
	for _, kind := range []Config{SWOpt, DCSCtrl} {
		env := sim.NewEnv()
		cl := NewCluster(env, kind, DefaultParams())
		content := pattern(100 << 10)
		f, err := cl.Server.FSs[0].Create("upload", len(content))
		if err != nil {
			t.Fatal(err)
		}
		conn := cl.OpenConn(true)
		var res OpResult
		env.Spawn("client-app", func(p *sim.Proc) {
			cl.ClientSend(p, conn, content)
		})
		env.Spawn("server-app", func(p *sim.Proc) {
			res, err = cl.Server.RecvFileOp(p, conn.ID, f, 0, len(content), ProcCRC32)
		})
		env.Run(-1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		c := crc32.ChecksumIEEE(content)
		want := []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)}
		if !bytes.Equal(res.Digest, want) {
			t.Fatalf("%v digest = %x, want %x", kind, res.Digest, want)
		}
		if got := cl.Server.ReadBack(f); !bytes.Equal(got, content) {
			t.Fatalf("%v: flash contents differ", kind)
		}
	}
}

func TestVanillaCostsExceedOptimized(t *testing.T) {
	// Figure 8 shape: the stock kernel burns more kernel-side CPU than
	// the optimized stack on the same SSD->NIC task.
	busy := func(kind Config) sim.Time {
		env := sim.NewEnv()
		cl := NewCluster(env, kind, DefaultParams())
		content := pattern(64 << 10)
		f, _ := cl.Server.StageFile("obj", content)
		conn := cl.OpenConn(true)
		env.Spawn("server-app", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcNone)
			}
		})
		env.Spawn("client-app", func(p *sim.Proc) {
			cl.ClientRecv(p, conn, 10*len(content))
		})
		env.Run(-1)
		return cl.Server.Host.Acct.TotalBusy() - cl.Server.Host.Acct.Busy(trace.CatUser)
	}
	v, o, d := busy(Vanilla), busy(SWOpt), busy(DCSCtrl)
	if v <= o {
		t.Fatalf("vanilla kernel CPU (%v) not above optimized (%v)", v, o)
	}
	if d >= o {
		t.Fatalf("DCS kernel CPU (%v) not below optimized (%v)", d, o)
	}
}

func TestCPUUtilizationReduction(t *testing.T) {
	// Figure 12 shape: at identical offered work, DCS-ctrl uses far
	// less host CPU than software-controlled P2P.
	busy := func(kind Config) sim.Time {
		env := sim.NewEnv()
		cl := NewCluster(env, kind, DefaultParams())
		content := pattern(256 << 10)
		f, _ := cl.Server.StageFile("obj", content)
		conn := cl.OpenConn(true)
		env.Spawn("server-app", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				if _, err := cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcMD5); err != nil {
					t.Error(err)
					return
				}
			}
		})
		env.Spawn("client-app", func(p *sim.Proc) {
			cl.ClientRecv(p, conn, 8*len(content))
		})
		env.Run(-1)
		return cl.Server.Host.Acct.TotalBusy()
	}
	p2p := busy(SWP2P)
	dcs := busy(DCSCtrl)
	ratio := dcs.Seconds() / p2p.Seconds()
	if ratio > 0.6 {
		t.Fatalf("DCS CPU %.2fx of SW-P2P; paper reports ~0.48x", ratio)
	}
}

func TestNoHostDRAMDataPathUnderDCS(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, DCSCtrl, DefaultParams())
	content := pattern(256 << 10)
	f, _ := cl.Server.StageFile("obj", content)
	conn := cl.OpenConn(true)
	env.Spawn("server-app", func(p *sim.Proc) {
		cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcMD5)
	})
	env.Spawn("client-app", func(p *sim.Proc) {
		cl.ClientRecv(p, conn, len(content))
	})
	env.Run(-1)
	// Control-plane traffic (commands, completions, extent tables) is
	// tiny; the 256 KB payload must not cross host DRAM.
	if hb := cl.Server.Fab.HostBytes(); hb > 16<<10 {
		t.Fatalf("host DRAM saw %d bytes under DCS", hb)
	}
	if p2p := cl.Server.Fab.P2PBytes(); p2p < int64(len(content)) {
		t.Fatalf("P2P moved only %d bytes", p2p)
	}
}

func TestTimelineTrace(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())
	content := pattern(4096)
	f, _ := cl.Server.StageFile("obj", content)
	conn := cl.OpenConn(true)
	cl.Server.StartTrace()
	env.Spawn("server-app", func(p *sim.Proc) {
		cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcNone)
	})
	env.Spawn("client-app", func(p *sim.Proc) {
		cl.ClientRecv(p, conn, len(content))
	})
	env.Run(-1)
	events := cl.Server.StopTrace()
	if len(events) < 4 {
		t.Fatalf("timeline has %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("timeline not monotonic")
		}
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func(kind Config) string {
		env := sim.NewEnv()
		cl := NewCluster(env, kind, DefaultParams())
		content := pattern(64 << 10)
		f, _ := cl.Server.StageFile("obj", content)
		conn := cl.OpenConn(true)
		var lats []sim.Time
		env.Spawn("server-app", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				res, _ := cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcMD5)
				lats = append(lats, res.Latency)
			}
		})
		env.Spawn("client-app", func(p *sim.Proc) {
			cl.ClientRecv(p, conn, 3*len(content))
		})
		env.Run(-1)
		return fmt.Sprint(lats, env.Now())
	}
	for _, kind := range []Config{SWOpt, DCSCtrl} {
		if a, b := run(kind), run(kind); a != b {
			t.Fatalf("%v nondeterministic:\n%s\n%s", kind, a, b)
		}
	}
}

func TestMultiSSDDistributionAndTransfer(t *testing.T) {
	for _, kind := range []Config{SWOpt, DCSCtrl} {
		env := sim.NewEnv()
		params := DefaultParams()
		params.NumSSDs = 4
		cl := NewClusterWithClient(env, kind, SWOpt, params)
		if got := len(cl.Server.SSDs); got != 4 {
			t.Fatalf("%v: %d SSDs", kind, got)
		}
		// Files land round-robin on distinct devices.
		var files []*hostos.File
		contents := make([][]byte, 6)
		for i := 0; i < 6; i++ {
			contents[i] = pattern(48<<10 + i*4096)
			f, err := cl.Server.StageFile(fmt.Sprintf("f%d", i), contents[i])
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		devs := map[uint8]bool{}
		for _, f := range files {
			devs[cl.Server.DevOf(f)] = true
		}
		if len(devs) != 4 {
			t.Fatalf("%v: files on %d devices, want 4", kind, len(devs))
		}
		conn := cl.OpenConn(true)
		total := 0
		env.Spawn("server", func(p *sim.Proc) {
			for i, f := range files {
				if _, err := cl.Server.SendFileOp(p, f, 0, len(contents[i]), conn.ID, ProcNone); err != nil {
					t.Error(err)
					return
				}
			}
		})
		var got []byte
		for _, c := range contents {
			total += len(c)
		}
		env.Spawn("client", func(p *sim.Proc) {
			got = cl.ClientRecv(p, conn, total)
		})
		env.Run(-1)
		var want []byte
		for _, c := range contents {
			want = append(want, c...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: multi-SSD stream corrupted", kind)
		}
	}
}

// TestDirtyPageWrittenBackOnEverySSD dirties page 2 of a file in the
// page cache of the SSD holding it, then sends the file on the
// DCS-ctrl data path. Whichever SSD holds the file, the driver's
// consistency check (§IV-B) must write the page back before the D2D
// command reads the flash: the client receives the written page and
// the page is clean afterwards.
func TestDirtyPageWrittenBackOnEverySSD(t *testing.T) {
	for _, dev := range []uint8{0, 1} {
		t.Run(fmt.Sprintf("ssd%d", dev), func(t *testing.T) {
			env := sim.NewEnv()
			params := DefaultParams()
			params.NumSSDs = 2
			cl := NewCluster(env, DCSCtrl, params)
			content := pattern(64 << 10)
			var f *hostos.File
			for i := 0; f == nil || cl.Server.DevOf(f) != dev; i++ {
				var err error
				if f, err = cl.Server.StageFile(fmt.Sprintf("obj%d", i), content); err != nil {
					t.Fatal(err)
				}
			}
			fs := cl.Server.FSs[dev]
			page := bytes.Repeat([]byte{0xAA}, hostos.BlockSize)
			fs.CacheWrite(f.Name, 2, page)
			conn := cl.OpenConn(true)
			var got []byte
			env.Spawn("server", func(p *sim.Proc) {
				if _, err := cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcNone); err != nil {
					t.Error(err)
				}
			})
			env.Spawn("client", func(p *sim.Proc) { got = cl.ClientRecv(p, conn, len(content)) })
			env.Run(-1)
			want := append([]byte(nil), content...)
			copy(want[2*hostos.BlockSize:], page)
			if !bytes.Equal(got, want) {
				t.Fatal("client received the stale page, not the dirty one written back")
			}
			if dirty := fs.Dirty(f.Name); len(dirty) != 0 {
				t.Fatalf("pages %v still dirty", dirty)
			}
			for _, n := range []*Node{cl.Server, cl.Client} {
				if k := n.MM.UserMappings(); k != 0 {
					t.Errorf("%s holds %d user mappings after the run", n.Name, k)
				}
				if k := n.Fab.StaleOwners(); k != 0 {
					t.Errorf("%s's fabric keeps %d owner entries for unmapped regions", n.Name, k)
				}
			}
		})
	}
}

// TestWritebackRejectsPartialPage: the SSD writes a whole block from
// the mapped page, so a cached page shorter than a block is refused
// before anything is mapped or submitted.
func TestWritebackRejectsPartialPage(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, DCSCtrl, DefaultParams())
	f, err := cl.Server.StageFile("obj", pattern(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 100-byte page was written back")
		}
		if k := cl.Server.MM.UserMappings(); k != 0 {
			t.Fatalf("the refused writeback left %d user mappings", k)
		}
	}()
	cl.Server.writebackPage(nil, f, 1, make([]byte, 100))
}

func TestMultiSSDUploadLandsOnRightDevice(t *testing.T) {
	env := sim.NewEnv()
	params := DefaultParams()
	params.NumSSDs = 3
	cl := NewClusterWithClient(env, DCSCtrl, SWOpt, params)
	// Burn two slots so the upload file lands on device 2.
	cl.Server.CreateFile("a", 4096)
	cl.Server.CreateFile("b", 4096)
	f, err := cl.Server.CreateFile("upload", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Server.DevOf(f) != 2 {
		t.Fatalf("upload on device %d", cl.Server.DevOf(f))
	}
	content := pattern(64 << 10)
	conn := cl.OpenConn(true)
	env.Spawn("client", func(p *sim.Proc) { cl.ClientSend(p, conn, content) })
	env.Spawn("server", func(p *sim.Proc) {
		if _, err := cl.Server.RecvFileOp(p, conn.ID, f, 0, len(content), ProcCRC32); err != nil {
			t.Error(err)
		}
	})
	env.Run(-1)
	if !bytes.Equal(cl.Server.ReadBack(f), content) {
		t.Fatal("upload contents wrong on device 2")
	}
	// The other devices' flash stayed untouched for these LBAs.
	if c0, _, w0 := cl.Server.SSDs[0].Stats(); c0 != 0 && w0 != 0 {
		t.Fatalf("device 0 wrote %d bytes", w0)
	}
}

func TestMultiSSDAggregateReadBandwidth(t *testing.T) {
	// Reads striped across 4 SSDs complete much faster than the same
	// bytes from one SSD — the hardware scaling Figure 13 banks on.
	// Measured through the host storage path so the NIC is not in the
	// way.
	elapsed := func(numSSD int) sim.Time {
		env := sim.NewEnv()
		params := DefaultParams()
		params.NumSSDs = numSSD
		cl := NewClusterWithClient(env, SWOpt, SWOpt, params)
		const per = 512 << 10
		for i := 0; i < 4; i++ {
			f, _ := cl.Server.StageFile(fmt.Sprintf("f%d", i), pattern(per))
			ff := f
			env.Spawn("reader", func(p *sim.Proc) {
				buf := cl.Server.allocHost(per)
				defer cl.Server.freeHost(buf, per)
				cl.Server.hostReadFile(p, trace.NewBreakdown(), ff, 0, per, buf)
			})
		}
		return env.Run(-1)
	}
	t1, t4 := elapsed(1), elapsed(4)
	// Speedup is real but far below 4x: per-command software costs
	// (submit, IRQ, completion) don't scale with added devices — the
	// host-centric bottleneck that motivates the paper (§II-B).
	if float64(t4) > 0.8*float64(t1) {
		t.Fatalf("4 SSDs (%v) not faster than 1 (%v)", t4, t1)
	}
	if float64(t4) < 0.3*float64(t1) {
		t.Fatalf("4 SSDs scaled too ideally (%v vs %v): software costs missing", t4, t1)
	}
}

func TestVanillaPageCacheHits(t *testing.T) {
	// The stock kernel's second read of the same range comes from the
	// page cache: faster, and no additional SSD commands.
	env := sim.NewEnv()
	cl := NewCluster(env, Vanilla, DefaultParams())
	content := pattern(64 << 10)
	f, _ := cl.Server.StageFile("obj", content)
	conn := cl.OpenConn(true)
	var lat1, lat2 sim.Time
	env.Spawn("server", func(p *sim.Proc) {
		r1, _ := cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcNone)
		r2, _ := cl.Server.SendFileOp(p, f, 0, len(content), conn.ID, ProcNone)
		lat1, lat2 = r1.Latency, r2.Latency
	})
	var got []byte
	env.Spawn("client", func(p *sim.Proc) { got = cl.ClientRecv(p, conn, 2*len(content)) })
	env.Run(-1)
	if lat2 >= lat1 {
		t.Fatalf("cached read (%v) not faster than cold (%v)", lat2, lat1)
	}
	cmds, _, _ := cl.Server.SSDs[0].Stats()
	if cmds != 1 { // one 16-block command for the cold read; none warm
		t.Fatalf("SSD commands = %d, want 1", cmds)
	}
	want := append(append([]byte(nil), content...), content...)
	if !bytes.Equal(got, want) {
		t.Fatal("cache-served bytes differ")
	}
	hits, _ := cl.Server.FSs[0].CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestConnPortAllocation pins the connection port scheme (ports.go):
// the first epoch starts at (8000, 40000), the client-port wrap moves
// to the next server port instead of silently reusing pairs, and true
// exhaustion panics with a clear message rather than colliding.
func TestConnPortAllocation(t *testing.T) {
	env := sim.NewEnv()
	cl := NewCluster(env, SWOpt, DefaultParams())

	src1, dst1 := cl.ports.AllocPair()
	if src1 != connSrvPortBase || dst1 != connPortBase {
		t.Fatalf("first conn ports = (%d,%d), want (%d,%d)", src1, dst1, connSrvPortBase, connPortBase)
	}

	// Fast-forward to the end of the client-port range: the next
	// allocation must move to the next server port, not wrap into
	// reserved space.
	cl.ports.nextCli = 65535
	if _, dst := cl.ports.AllocPair(); dst != 65535 {
		t.Fatalf("pre-wrap DstPort = %d, want 65535", dst)
	}
	src3, dst3 := cl.ports.AllocPair()
	if dst3 != connPortBase {
		t.Fatalf("post-wrap DstPort = %d, want %d", dst3, connPortBase)
	}
	if cl.ports.epoch != 1 {
		t.Fatalf("epoch = %d after wrap, want 1", cl.ports.epoch)
	}
	if src3 != connSrvPortBase+1 {
		t.Fatalf("post-wrap SrcPort = %d, want %d", src3, connSrvPortBase+1)
	}

	// No (SrcPort, DstPort) pair may repeat across a dense run that
	// includes a wrap.
	cl2 := NewCluster(sim.NewEnv(), SWOpt, DefaultParams())
	cl2.ports.nextCli = 65535 - 50
	seen := map[[2]uint16]bool{}
	for id := uint64(1); id <= 200; id++ {
		src, dst := cl2.ports.AllocPair()
		key := [2]uint16{src, dst}
		if seen[key] {
			t.Fatalf("port pair (%d,%d) reused at id %d", src, dst, id)
		}
		seen[key] = true
	}

	// OpenConn still works end to end with the new allocator.
	if conn := cl.OpenConn(true); conn.ID == 0 {
		t.Fatal("OpenConn returned zero conn ID")
	}

	// Exhaustion: an epoch past the server-port range must panic, not
	// wrap.
	cl3 := NewCluster(sim.NewEnv(), SWOpt, DefaultParams())
	cl3.ports.epoch = srvPortEpochs
	cl3.ports.nextCli = connPortBase
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on port-space exhaustion")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "port space exhausted") {
			t.Fatalf("panic message %q does not name the exhaustion", msg)
		}
	}()
	cl3.ports.AllocPair()
}
