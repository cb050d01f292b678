package dcsctrl_test

import (
	"fmt"
	"testing"

	dcsctrl "dcsctrl"
	"dcsctrl/internal/fault"
)

// Workload goldens on the per-frame wire (DESIGN.md §13): every frame
// of these runs crosses the transmit FIFO and the wire machine. Each
// fingerprint and event count was recorded on that path while an
// analytic wire-claim path still existed beside it; the claim path
// reproduced every fingerprint, so these constants are also what it
// computed. The NIC-level goldens in internal/nic/wire_golden_test.go
// pin frame-by-frame delivery instants; these pin the same timeline
// end to end through the full testbed.

// swiftWireFingerprint runs the object-storage workload on a DCS-ctrl
// testbed and flattens every result field that is a function of the
// simulated timeline, and the server's recovery counters, into a
// string.
func swiftWireFingerprint(t *testing.T, opts ...dcsctrl.Option) (string, uint64) {
	t.Helper()
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, opts...)
	sc := dcsctrl.DefaultSwiftConfig()
	sc.Conns = 4
	sc.Warmup = 1 * dcsctrl.Millisecond
	sc.Duration = 8 * dcsctrl.Millisecond
	res, err := tb.RunSwift(sc)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("req=%d get=%d put=%d bytes=%d errs=%d elapsed=%v cpu=%.12f gbps=%.12f getp50=%v getp99=%v putp50=%v putp99=%v recovery=%+v",
		res.Requests, res.GETs, res.PUTs, res.Bytes, res.Errors, res.Elapsed,
		res.ServerCPU, res.Gbps,
		res.GETLatency.Percentile(50), res.GETLatency.Percentile(99),
		res.PUTLatency.Percentile(50), res.PUTLatency.Percentile(99),
		tb.ServerRecoveryStats())
	return fp, tb.Env.Stats().Events
}

// TestWireGoldenSwift pins the fault-free Swift workload.
func TestWireGoldenSwift(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	const (
		wantFP = "req=19 get=14 put=5 bytes=6576830 errs=0 elapsed=8ms cpu=0.136871500000 gbps=6.576830000000 " +
			"getp50=1446.498 getp99=2107.108 putp50=1028.651 putp99=1820.693 " +
			"recovery={Injected:0 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:0 NICTxReplays:0 NICBDRefetches:0}"
		wantEvents = 101015
	)
	if fp, events := swiftWireFingerprint(t); fp != wantFP || events != wantEvents {
		t.Fatalf("Swift: %s with %d events, golden %s with %d", fp, events, wantFP, wantEvents)
	}
}

// TestWireGoldenSwiftFaults pins the Swift workload under the light
// fault profile, where recovery (frame replays, BD refetches, retries)
// runs on the same wire.
func TestWireGoldenSwiftFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run under faults")
	}
	const (
		wantFP = "req=19 get=14 put=5 bytes=6576830 errs=0 elapsed=8ms cpu=0.136790208333 gbps=6.576830000000 " +
			"getp50=1486.685 getp99=2200.245 putp50=1028.651 putp99=1974.993 " +
			"recovery={Injected:117 DriverRetries:0 DriverTimeouts:0 EngineFailed:false Fallbacks:0 HostNVMeRetries:0 NICTxReplays:21 NICBDRefetches:2}"
		wantEvents = 101131
	)
	fp, events := swiftWireFingerprint(t, dcsctrl.WithFaults(99, fault.Light()))
	if fp != wantFP || events != wantEvents {
		t.Fatalf("faulty Swift: %s with %d events, golden %s with %d", fp, events, wantFP, wantEvents)
	}
}

// TestWireGoldenHDFS pins the balancer workload (DCS-ctrl on both
// nodes — the heaviest bulk-stream user in the repo).
func TestWireGoldenHDFS(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	const (
		wantFP     = "blocks=4 bytes=4194304 errs=0 elapsed=8ms send=0.072683333333 recv=0.036341666667 gbps=4.194304000000"
		wantEvents = 152650
	)
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithClientConfig(dcsctrl.DCSCtrl))
	hc := dcsctrl.DefaultHDFSConfig()
	hc.Warmup = 1 * dcsctrl.Millisecond
	hc.Duration = 8 * dcsctrl.Millisecond
	res, err := tb.RunHDFS(hc)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("blocks=%d bytes=%d errs=%d elapsed=%v send=%.12f recv=%.12f gbps=%.12f",
		res.Blocks, res.Bytes, res.Errors, res.Elapsed,
		res.SenderCPU, res.ReceiverCPU, res.Gbps)
	if events := tb.Env.Stats().Events; fp != wantFP || events != wantEvents {
		t.Fatalf("HDFS: %s with %d events, golden %s with %d", fp, events, wantFP, wantEvents)
	}
}
