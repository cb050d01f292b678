package dcsctrl_test

import (
	"bytes"
	"fmt"
	"testing"

	dcsctrl "dcsctrl"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// The flow-level wire fast path (DESIGN.md §13) must be timeline
// invisible: every figure render, workload fingerprint, and
// fault-recovery counter has to come out byte-identical with the
// knob on (WireFlow, the default) and off (WireFrame). The NIC-level
// suite in internal/nic/fidelity_test.go checks frame-by-frame
// delivery instants; these tests check the same property end to end
// through the full testbed, where any divergence would silently skew
// the paper's reproduced results.

// swiftFidelityFingerprint runs the object-storage workload on a DCS-ctrl
// testbed at the given fidelity and flattens every result field that
// is a function of the simulated timeline into a string.
func swiftFidelityFingerprint(t *testing.T, fid sim.WireFidelity, opts ...dcsctrl.Option) (string, sim.Stats, dcsctrl.RecoveryStats) {
	t.Helper()
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, opts...)
	tb.Env.SetWireFidelity(fid)
	sc := dcsctrl.DefaultSwiftConfig()
	sc.Conns = 4
	sc.Warmup = 1 * dcsctrl.Millisecond
	sc.Duration = 8 * dcsctrl.Millisecond
	res, err := tb.RunSwift(sc)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("req=%d get=%d put=%d bytes=%d errs=%d elapsed=%v cpu=%.12f gbps=%.12f getp50=%v getp99=%v putp50=%v putp99=%v",
		res.Requests, res.GETs, res.PUTs, res.Bytes, res.Errors, res.Elapsed,
		res.ServerCPU, res.Gbps,
		res.GETLatency.Percentile(50), res.GETLatency.Percentile(99),
		res.PUTLatency.Percentile(50), res.PUTLatency.Percentile(99))
	return fp, tb.Env.Stats(), tb.ServerRecoveryStats()
}

// TestFidelitySwiftFingerprint pins the Swift workload byte-identical
// across fidelities and proves the knob is not dead: the flow run
// must actually collapse frames into segments, and spend fewer
// kernel events doing it.
func TestFidelitySwiftFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	frameFP, frameStats, _ := swiftFidelityFingerprint(t, sim.WireFrame)
	flowFP, flowStats, _ := swiftFidelityFingerprint(t, sim.WireFlow)
	if frameFP != flowFP {
		t.Fatalf("Swift fingerprint diverged across fidelities:\nframe: %s\nflow:  %s", frameFP, flowFP)
	}
	if frameStats.Segments != 0 {
		t.Fatalf("WireFrame run produced %d flow segments", frameStats.Segments)
	}
	if flowStats.Segments == 0 || flowStats.SegFrames == 0 {
		t.Fatal("flow fast path never fired on the Swift workload (knob dead)")
	}
	if flowStats.Events >= frameStats.Events {
		t.Fatalf("flow run spent %d events, frame run %d: fast path saved nothing",
			flowStats.Events, frameStats.Events)
	}
}

// TestFidelitySwiftFaultFingerprint repeats the comparison under the
// light fault profile: recovery (replays, BD refetches, retries) must
// take the per-frame path and land on the identical timeline.
func TestFidelitySwiftFaultFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run under faults")
	}
	faults := dcsctrl.WithFaults(99, fault.Light())
	frameFP, _, frameRec := swiftFidelityFingerprint(t, sim.WireFrame, faults)
	flowFP, flowStats, flowRec := swiftFidelityFingerprint(t, sim.WireFlow, faults)
	if frameFP != flowFP {
		t.Fatalf("faulty Swift fingerprint diverged:\nframe: %s\nflow:  %s", frameFP, flowFP)
	}
	if frameRec != flowRec {
		t.Fatalf("recovery stats diverged:\nframe: %+v\nflow:  %+v", frameRec, flowRec)
	}
	// No Segments assertion here: with fault sites armed the flow
	// machinery demotes to per-frame fidelity and only re-promotes once
	// the wire fully drains, which a busy workload under the light
	// profile may never allow. That conservatism is the point — the
	// fault-free test above proves the knob is alive.
	_ = flowStats
}

// TestFidelityHDFSFingerprint pins the balancer workload (DCS-ctrl on
// both nodes — the heaviest bulk-stream user in the repo).
func TestFidelityHDFSFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	run := func(fid sim.WireFidelity) (string, sim.Stats) {
		tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithClientConfig(dcsctrl.DCSCtrl))
		tb.Env.SetWireFidelity(fid)
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
		return fp, tb.Env.Stats()
	}
	frameFP, frameStats := run(sim.WireFrame)
	flowFP, flowStats := run(sim.WireFlow)
	if frameFP != flowFP {
		t.Fatalf("HDFS fingerprint diverged across fidelities:\nframe: %s\nflow:  %s", frameFP, flowFP)
	}
	if flowStats.Segments == 0 || flowStats.SegFrames == 0 {
		t.Fatal("flow fast path never fired on the HDFS workload (knob dead)")
	}
	if flowStats.Events >= frameStats.Events {
		t.Fatalf("flow run spent %d events, frame run %d", flowStats.Events, frameStats.Events)
	}
}

// TestFidelityFigureRenders renders the latency-breakdown and
// throughput figures at both fidelities via the package-wide default
// (figures build their own environments internally) and compares the
// full rendered output byte for byte.
func TestFidelityFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs")
	}
	render := func(fid sim.WireFidelity) string {
		sim.SetDefaultWireFidelity(fid)
		defer sim.SetDefaultWireFidelity(sim.WireFlow)
		var buf bytes.Buffer
		bench.RunFigure3Parallel(1).Render(&buf)
		bench.RunFigure8Parallel(1).Render(&buf)
		bench.Figure11aParallel(1).Render(&buf)
		bench.Figure11bParallel(1).Render(&buf)
		return buf.String()
	}
	frame := render(sim.WireFrame)
	flow := render(sim.WireFlow)
	if frame != flow {
		t.Fatalf("figure renders diverged across fidelities:\n--- frame ---\n%s\n--- flow ---\n%s", frame, flow)
	}
}
