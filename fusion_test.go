// Continuation-fusion goldens: the kernel runs a Chain continuation or
// a Yield inline whenever nothing else is due at the current instant,
// a fast path that must leave every observable of a run exactly where
// enqueueing would have put it. Fusion is no longer switchable, so the
// unfused schedule survives as frozen values: each constant below was
// recorded with fusion off, when it was still a knob, and matched the
// fused run byte-for-byte (the protocol cell's event counts excepted,
// which is the point of fusing). CI runs this file under -race.
package dcsctrl_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dcsctrl"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
)

// renderDigest hashes one figure render.
func renderDigest(render func(*bytes.Buffer)) string {
	var b bytes.Buffer
	render(&b)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFusionEquivalenceFigures renders the deterministic microbenchmark
// figures and requires the unfused renders' digests.
func TestFusionEquivalenceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set")
	}
	figures := []struct {
		name, want string
		render     func(*bytes.Buffer)
	}{
		{"fig3", "e6bc1a35fd40f73d07153a1db16c30fc7e1a34b1c682cc1087783b8d9be1fbaa",
			func(b *bytes.Buffer) { bench.RunFigure3Parallel(1).Render(b) }},
		{"fig8", "e34b20302744e4a7955170c93be7e7e835535d09b364f93ef5d7f53386e8b174",
			func(b *bytes.Buffer) { bench.RunFigure8Parallel(1).Render(b) }},
		{"fig11a", "d5d8fc5b8751beb1628250d8d3b3327f998e52d4671a2288dfc889953961f4b7",
			func(b *bytes.Buffer) { bench.Figure11aParallel(1).Render(b) }},
		{"fig11b", "ca885e37e6ad9f7f75a6cf0585ab15109be17657b827d1b4c63a55041c8216d0",
			func(b *bytes.Buffer) { bench.Figure11bParallel(1).Render(b) }},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			if got := renderDigest(fig.render); got != fig.want {
				t.Errorf("render digest %s, unfused golden %s", got, fig.want)
			}
		})
	}
}

// TestFusionEquivalenceSwift fingerprints a fault-injected Swift run
// (request counts, CPU accounting, latencies, final clock, per-site
// fault fire counts) against the unfused golden.
func TestFusionEquivalenceSwift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run workload sweep")
	}
	for _, c := range []struct {
		cfg  dcsctrl.Config
		want string
	}{
		{dcsctrl.SWP2P, "f8e182e0c46c9b2cfa1925c1d35eaacd34c51f6fe76d680c41a727622a152f17"},
		{dcsctrl.DCSCtrl, "bad515a8f05c07dde9b4d5e3cf48ad65c611181d9c2cb5b4bac4022243f3274c"},
	} {
		t.Run(c.cfg.String(), func(t *testing.T) {
			if got := swiftFingerprint(t, c.cfg, 11, 7); got != c.want {
				t.Fatalf("fingerprint %s, unfused golden %s", got, c.want)
			}
		})
	}
}

// TestFusionEquivalenceRecovery drives the engine-failure fallback
// path: recovery statistics, the final simulated clock, and the
// injector's fire counts must match the unfused golden exactly.
func TestFusionEquivalenceRecovery(t *testing.T) {
	const want = "{Injected:1 DriverRetries:0 DriverTimeouts:1 EngineFailed:true Fallbacks:2 " +
		"HostNVMeRetries:0 NICTxReplays:0 NICBDRefetches:0} now=22341787 " +
		"faults=hdc.engine-fail             1 draws      1 injected\n"
	tb := dcsctrl.NewTestbed(dcsctrl.DCSCtrl, dcsctrl.WithFaults(1, fault.EngineFail()))
	runTransferPair(t, tb, 256<<10)
	got := fmt.Sprintf("%+v now=%d faults=%s",
		tb.ServerRecoveryStats(), tb.Env.Now(), tb.Faults().StatsString())
	if got != want {
		t.Fatalf("recovery diverged:\n got=%q\n want=%q", got, want)
	}
}

// TestFusionActuallyFuses pins the fast path's reach on a DCS-ctrl
// protocol cell: it must inline exactly the recorded continuations
// and dispatch the recorded events, 224 fewer than the 6938 the
// unfused run dispatched for the same 376 I/Os.
func TestFusionActuallyFuses(t *testing.T) {
	st := bench.MeasureProtocol("dcs", core.DCSCtrl, 8, 64<<10)
	if st.Events != 6714 || st.Fused != 224 || st.IOs != 376 {
		t.Fatalf("events=%d fused=%d ios=%d, golden events=6714 fused=224 ios=376",
			st.Events, st.Fused, st.IOs)
	}
}
