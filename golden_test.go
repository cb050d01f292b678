package dcsctrl_test

import (
	"testing"

	"dcsctrl/internal/bench"
)

// Golden values measured from the calibrated simulator, compatible
// with the paper's headlines: Figure 11a ≈42% latency reduction,
// Figure 11b ≈72%, Figure 12 ≈52% CPU reduction. A drift beyond the
// tolerance means a change altered the modelled physics — either fix
// the regression or re-justify the calibration in EXPERIMENTS.md and
// update these constants deliberately.
const (
	goldenFig11aReduction = 0.3863
	goldenFig11bReduction = 0.6704
	goldenFig12CPUSaving  = 0.5573
	goldenTolerance       = 0.05
)

func assertGolden(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := got - want; diff > goldenTolerance || diff < -goldenTolerance {
		t.Errorf("%s = %.4f, want %.4f ± %.2f", name, got, want, goldenTolerance)
	}
}

// TestGoldenFigure11a pins the SSD→NIC microbenchmark latency
// reduction of DCS-ctrl vs software-controlled P2P.
func TestGoldenFigure11a(t *testing.T) {
	if testing.Short() {
		t.Skip("golden benchmark run")
	}
	assertGolden(t, "Figure 11a reduction", bench.Figure11aParallel(1).Reduction, goldenFig11aReduction)
}

// TestGoldenFigure11b pins the SSD→MD5→NIC microbenchmark reduction.
func TestGoldenFigure11b(t *testing.T) {
	if testing.Short() {
		t.Skip("golden benchmark run")
	}
	assertGolden(t, "Figure 11b reduction", bench.Figure11bParallel(1).Reduction, goldenFig11bReduction)
}

// TestGoldenFigure12 pins the Swift CPU-utilization saving of
// DCS-ctrl vs software-controlled P2P at matched throughput.
func TestGoldenFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("golden benchmark run")
	}
	f12 := bench.RunFigure12Parallel(bench.DefaultFig12Swift(), bench.DefaultFig12HDFS(), 1)
	assertGolden(t, "Figure 12 CPU reduction", f12.CPUReduction, goldenFig12CPUSaving)
	for _, k := range bench.Fig12Configs {
		if f12.Swift[k].Errors != 0 {
			t.Errorf("%s: %d Swift request errors", k, f12.Swift[k].Errors)
		}
		if f12.Swift[k].Requests == 0 {
			t.Errorf("%s: no Swift requests completed", k)
		}
		if f12.HDFS[k].Blocks == 0 {
			t.Errorf("%s: no HDFS blocks moved", k)
		}
	}
}
