package report

import (
	"strings"
	"testing"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"T", "a", "bbbb", "longer", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, rule, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestStackedChartRender(t *testing.T) {
	c := StackedChart{
		Title: "Figure X",
		Unit:  "µs",
		Bars: []Bar{
			{Label: "sw", Segments: []Segment{{"fs", 10}, {"read", 30}}},
			{Label: "dcs", Segments: []Segment{{"read", 25}}},
		},
	}
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "legend:") {
		t.Fatal("no legend")
	}
	if !strings.Contains(out, "40.00 µs") || !strings.Contains(out, "25.00 µs") {
		t.Fatalf("totals missing:\n%s", out)
	}
	// The taller bar must use more fill characters.
	swLine, dcsLine := "", ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "sw ") || strings.HasPrefix(strings.TrimSpace(l), "sw") {
			if swLine == "" {
				swLine = l
			}
		}
		if strings.Contains(l, "dcs") {
			dcsLine = l
		}
	}
	fills := func(s string) int {
		return strings.Count(s, "#") + strings.Count(s, "=")
	}
	if fills(swLine) <= fills(dcsLine) {
		t.Fatalf("bar proportions wrong:\n%s", out)
	}
}

func TestChartZeroBars(t *testing.T) {
	c := StackedChart{Title: "empty", Bars: []Bar{{Label: "z"}}}
	var sb strings.Builder
	c.Render(&sb) // must not divide by zero
	if !strings.Contains(sb.String(), "z") {
		t.Fatal("label missing")
	}
}

func TestBreakdownBar(t *testing.T) {
	bd := trace.NewBreakdown()
	bd.Add(trace.CatFileSystem, 3*sim.Microsecond)
	bd.Add(trace.CatIdleWait, 100*sim.Microsecond)
	bd.Add(trace.CatRead, 20*sim.Microsecond)
	b := BreakdownBar("x", bd, trace.CatIdleWait)
	if len(b.Segments) != 2 {
		t.Fatalf("segments = %v", b.Segments)
	}
	if b.Total() != 23 {
		t.Fatalf("total = %v", b.Total())
	}
	// Order preserved from the breakdown.
	if b.Segments[0].Name != string(trace.CatFileSystem) {
		t.Fatalf("first = %s", b.Segments[0].Name)
	}
}

func TestBusyBar(t *testing.T) {
	busy := map[trace.Category]sim.Time{
		trace.CatNetStack: 30 * sim.Microsecond,
		trace.CatUser:     10 * sim.Microsecond,
	}
	b := BusyBar("cfg", busy, 100*sim.Microsecond, 2)
	if len(b.Segments) != 2 {
		t.Fatalf("segments = %v", b.Segments)
	}
	if got := b.Total(); got != 20 { // 40µs / 200µs = 20%
		t.Fatalf("total = %v%%", got)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.423) != "42.3%" {
		t.Fatalf("Pct = %s", Pct(0.423))
	}
}
