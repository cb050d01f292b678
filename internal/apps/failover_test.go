package apps

import (
	"testing"

	"dcsctrl/internal/core"
	"dcsctrl/internal/fault"
	"dcsctrl/internal/sim"
)

// TestSwiftEngineFailoverAdoptsEveryConn kills the DCS engine under a
// four-connection Swift load. Several in-flight operations see the
// engine failure at nearly the same instant; the first adopts every
// engine connection into the host stack, and the others must find
// those connections installed rather than read one still being set up
// ("core: recv on unknown conn"). The cell — fault seed 42, Swift
// seed 2^32+10 — is one where a second op used to land in that window.
func TestSwiftEngineFailoverAdoptsEveryConn(t *testing.T) {
	profile, ok := fault.ProfileByName("engine-fail")
	if !ok {
		t.Fatal("engine-fail profile missing")
	}
	params := core.DefaultParams()
	params.Faults = fault.NewInjector(42, profile)
	env := sim.NewEnv()
	cl := core.NewCluster(env, core.DCSCtrl, params)
	cfg := DefaultSwiftConfig()
	cfg.Conns = 4
	cfg.Warmup = 1 * sim.Millisecond
	// The driver watchdog declares the engine dead after 20 ms; the
	// window must outlast it for the host fallback to serve requests.
	cfg.Duration = 30 * sim.Millisecond
	cfg.Seed = 1<<32 + 10
	res, err := RunSwift(env, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Server.Driver.Failed() || cl.Server.Fallbacks() == 0 {
		t.Fatalf("engine failed=%v fallbacks=%d: the host fallback never ran",
			cl.Server.Driver.Failed(), cl.Server.Fallbacks())
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors after fail-over", res.Errors)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
}
