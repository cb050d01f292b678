package trace

import (
	"math"
	"testing"
	"testing/quick"

	"dcsctrl/internal/sim"
)

func TestCPUAccountChargeAndUtilization(t *testing.T) {
	e := sim.NewEnv()
	a := NewCPUAccount(e)
	e.Spawn("work", func(p *sim.Proc) {
		a.Charge(CatUser, 10*sim.Microsecond)
		p.Sleep(100 * sim.Microsecond)
		a.Charge(CatNetStack, 30*sim.Microsecond)
	})
	e.Run(-1)
	if a.Busy(CatUser) != 10*sim.Microsecond {
		t.Fatalf("user busy = %v", a.Busy(CatUser))
	}
	if a.TotalBusy() != 40*sim.Microsecond {
		t.Fatalf("total busy = %v", a.TotalBusy())
	}
	if got := a.TotalUtilization(1); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("util = %v, want 0.4", got)
	}
}

func TestCPUAccountReset(t *testing.T) {
	e := sim.NewEnv()
	a := NewCPUAccount(e)
	a.Charge(CatUser, sim.Microsecond)
	e.Spawn("tick", func(p *sim.Proc) { p.Sleep(50 * sim.Microsecond) })
	e.Run(-1)
	a.Reset()
	if a.TotalBusy() != 0 || a.Window() != 0 {
		t.Fatal("reset did not clear account")
	}
}

func TestCPUAccountCategoriesSorted(t *testing.T) {
	e := sim.NewEnv()
	a := NewCPUAccount(e)
	a.Charge(CatUser, 1)
	a.Charge(CatDataCopy, 1)
	a.Charge(CatBlockLayer, 1)
	cs := a.Categories()
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatalf("categories not sorted: %v", cs)
		}
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e := sim.NewEnv()
	NewCPUAccount(e).Charge(CatUser, -1)
}

func TestBreakdownOrderAndTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatFileSystem, 3*sim.Microsecond)
	b.Add(CatRead, 20*sim.Microsecond)
	b.Add(CatFileSystem, 1*sim.Microsecond)
	b.Add(CatNetStack, 5*sim.Microsecond)
	if b.Total() != 29*sim.Microsecond {
		t.Fatalf("total = %v", b.Total())
	}
	phases := b.Phases()
	want := []Category{CatFileSystem, CatRead, CatNetStack}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase order = %v", phases)
		}
	}
	if b.Get(CatFileSystem) != 4*sim.Microsecond {
		t.Fatalf("fs = %v", b.Get(CatFileSystem))
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		s.Add(v)
	}
	if s.N() != 10 || s.Sum() != 55 {
		t.Fatalf("n=%d sum=%v", s.N(), s.Sum())
	}
	if s.Mean() != 5.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Percentile(50) != 5 {
		t.Fatalf("p50 = %v", s.Percentile(50))
	}
	if s.Percentile(90) != 9 {
		t.Fatalf("p90 = %v", s.Percentile(90))
	}
	if s.Min() != 1 || s.Max() != 10 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample stats not zero")
	}
}

func TestSampleAddTime(t *testing.T) {
	var s Sample
	s.AddTime(42 * sim.Microsecond)
	if s.Mean() != 42 {
		t.Fatalf("mean = %v µs", s.Mean())
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := s.Percentile(a), s.Percentile(b)
		return pa <= pb && pa >= s.Min() && pb <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is bounded by min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
