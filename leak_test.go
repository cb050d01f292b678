// Leak check: a finished simulation must leave nothing behind. Device
// loops are handler procs (DESIGN.md §16), which are plain heap
// objects, and region bytes live outside the Go heap (§11), so once a
// run returns and its goroutine procs have exited, the whole cluster
// is garbage. A goroutine proc still parked when Run returns would pin
// its Env and every node reachable from it.
package dcsctrl_test

import (
	"runtime"
	"testing"
	"time"

	"dcsctrl/internal/apps"
	"dcsctrl/internal/bench"
	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

func TestFinishedRunsLeaveNothingBehind(t *testing.T) {
	swift := func(kind core.Config) func(t *testing.T) {
		return func(t *testing.T) {
			cfg := apps.DefaultSwiftConfig()
			cfg.Conns = 4
			cfg.Warmup = sim.Millisecond
			cfg.Duration = 4 * sim.Millisecond
			env := sim.NewEnv()
			cl := core.NewCluster(env, kind, core.DefaultParams())
			res, err := apps.RunSwift(env, cl, cfg)
			if err != nil || res.Errors != 0 || res.Requests == 0 {
				t.Fatalf("swift: %d requests, %d errors, err %v", res.Requests, res.Errors, err)
			}
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"vanilla", swift(core.Vanilla)},
		{"sw-opt", swift(core.SWOpt)},
		{"sw-p2p", swift(core.SWP2P)},
		{"dcs-ctrl", swift(core.DCSCtrl)},
		{"rack-8", func(t *testing.T) {
			res := bench.RunRack(bench.RackConfig{Nodes: 8, Domains: 2, Bytes: 4 << 10})
			if res.Fingerprint() == "" {
				t.Fatal("rack produced no fingerprint")
			}
		}},
	}
	const heapSlack = 8 << 20
	for _, row := range rows {
		goroutines, heap := settled()
		row.run(t)
		afterG, afterHeap := settled()
		t.Logf("%s: %d → %d goroutines, %.1f → %.1f MB live heap", row.name, goroutines, afterG, mb(heap), mb(afterHeap))
		if afterG != goroutines {
			t.Errorf("%s: %d goroutines after the run, %d before", row.name, afterG, goroutines)
		}
		if afterHeap > heap+heapSlack {
			t.Errorf("%s: live heap %.1f MB after the run, %.1f MB before (slack %d MB)",
				row.name, mb(afterHeap), mb(heap), heapSlack>>20)
		}
	}
}

// settled forces two collections and returns the goroutine count and
// the live heap. A goroutine proc that finishes hands control back
// before its goroutine returns, so the count is read until two reads
// a millisecond apart agree.
func settled() (int, uint64) {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return n, ms.HeapAlloc
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
