package bench

import (
	"fmt"
	"testing"

	"dcsctrl/internal/core"
	"dcsctrl/internal/sim"
)

// TestWarmForkEquivalenceMatrix is the fork-vs-straight determinism
// matrix: every (server design, fault profile, seed) cell must
// produce a byte-identical fingerprint whether the measured phase
// continues from an in-process warm phase or from a restored
// checkpoint of that warm phase. Engine-fail profiles are excluded by
// design: a dead command parser cannot be checkpointed (Engine.Snap
// rejects it), so such runs always go straight through.
func TestWarmForkEquivalenceMatrix(t *testing.T) {
	kinds := []core.Config{core.DCSCtrl, core.SWOpt}
	profiles := []string{"none", "light", "heavy"}
	if testing.Short() {
		kinds = kinds[:1]
		profiles = profiles[:2]
	}
	for _, kind := range kinds {
		for _, profile := range profiles {
			kind, profile := kind, profile
			t.Run(fmt.Sprintf("%s/%s", kind, profile), func(t *testing.T) {
				t.Parallel()
				cfg := WarmForkConfig{
					Kind:         kind,
					Seeds:        []uint64{1, 99},
					Profile:      profile,
					WarmDuration: 3 * sim.Millisecond,
					Duration:     2 * sim.Millisecond,
					Conns:        4,
					Workers:      2,
				}
				res, err := RunWarmForkGrid(cfg)
				if err != nil {
					t.Fatalf("grid: %v", err)
				}
				if res.SnapshotBytes == 0 {
					t.Fatalf("empty snapshot")
				}
				total := 0
				for _, c := range res.Cells {
					total += c.Requests
					if !c.Match {
						t.Errorf("seed %d: fingerprint diverged: straight %s forked %s",
							c.Seed, c.StraightFP, c.ForkedFP)
					}
				}
				// Individual cells may legitimately complete zero
				// requests inside the short measured window; the grid
				// as a whole must not be trivially idle.
				if total == 0 {
					t.Errorf("no requests measured across any cell")
				}
			})
		}
	}
}

// TestWarmForkSnapshotDeterminism re-warms the same configuration
// twice and demands byte-identical checkpoints — the property CI's
// golden-artifact gate rests on.
func TestWarmForkSnapshotDeterminism(t *testing.T) {
	cfg := DefaultWarmForkConfig()
	cfg.WarmDuration = 3 * sim.Millisecond
	cfg.Conns = 4
	var snaps [][]byte
	for i := 0; i < 2; i++ {
		_, cl, sess, err := cfg.buildCell()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunPhaseSeed(0, cfg.WarmDuration, warmSeed); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ckpt)
	}
	if len(snaps[0]) != len(snaps[1]) {
		t.Fatalf("re-warmed snapshot sizes differ: %d vs %d", len(snaps[0]), len(snaps[1]))
	}
	for i := range snaps[0] {
		if snaps[0][i] != snaps[1][i] {
			t.Fatalf("re-warmed snapshots differ at byte %d", i)
		}
	}
}
