// Package report renders the harness output: aligned tables and
// ASCII stacked-bar charts, one per reproduced figure/table.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dcsctrl/internal/sim"
	"dcsctrl/internal/trace"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Bar is one stacked bar: a label plus (segment, value) pairs.
type Bar struct {
	Label    string
	Segments []Segment
}

// Segment is one stacked component.
type Segment struct {
	Name  string
	Value float64
}

// Total returns the bar's height.
func (b Bar) Total() float64 {
	var t float64
	for _, s := range b.Segments {
		t += s.Value
	}
	return t
}

// StackedChart renders horizontal stacked bars with a shared scale
// and a per-segment legend — the textual analogue of the paper's
// stacked-bar figures.
type StackedChart struct {
	Title string
	Unit  string
	Bars  []Bar
	Width int // bar width in characters (default 50)
}

// glyphs assigns a distinct fill character per segment name.
var glyphs = []byte{'#', '=', '+', 'o', '*', '~', '%', '@', 'x', ':', '.', '&'}

// Render writes the chart to w.
func (c *StackedChart) Render(w io.Writer) {
	if c.Width <= 0 {
		c.Width = 50
	}
	fmt.Fprintf(w, "%s\n%s\n", c.Title, strings.Repeat("=", len(c.Title)))
	var max float64
	labelW := 0
	segNames := []string{}
	seen := map[string]byte{}
	for _, b := range c.Bars {
		if b.Total() > max {
			max = b.Total()
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
		for _, s := range b.Segments {
			if _, ok := seen[s.Name]; !ok {
				seen[s.Name] = glyphs[len(seen)%len(glyphs)]
				segNames = append(segNames, s.Name)
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	for _, b := range c.Bars {
		var sb strings.Builder
		drawn := 0
		wanted := 0.0
		for _, s := range b.Segments {
			wanted += s.Value / max * float64(c.Width)
			n := int(wanted+0.5) - drawn
			if n < 0 {
				n = 0
			}
			sb.WriteString(strings.Repeat(string(seen[s.Name]), n))
			drawn += n
		}
		fmt.Fprintf(w, "  %-*s |%-*s| %.2f %s\n", labelW, b.Label, c.Width, sb.String(), b.Total(), c.Unit)
	}
	fmt.Fprintf(w, "  legend:")
	for _, n := range segNames {
		fmt.Fprintf(w, " %c=%s", seen[n], n)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// BreakdownBar converts a latency breakdown into a Bar in µs,
// dropping pure-wait phases already covered by device segments.
func BreakdownBar(label string, bd *trace.Breakdown, drop ...trace.Category) Bar {
	skip := map[trace.Category]bool{}
	for _, d := range drop {
		skip[d] = true
	}
	b := Bar{Label: label}
	for _, ph := range bd.Phases() {
		if skip[ph] {
			continue
		}
		b.Segments = append(b.Segments, Segment{Name: string(ph), Value: bd.Get(ph).Microseconds()})
	}
	return b
}

// BusyBar converts per-category CPU busy time into a utilization Bar
// (fraction of total core capacity over the window).
func BusyBar(label string, busy map[trace.Category]sim.Time, window sim.Time, cores int) Bar {
	b := Bar{Label: label}
	names := make([]string, 0, len(busy))
	for cat := range busy {
		names = append(names, string(cat))
	}
	sort.Strings(names)
	denom := float64(window) * float64(cores)
	for _, name := range names {
		v := busy[trace.Category(name)]
		if v <= 0 {
			continue
		}
		b.Segments = append(b.Segments, Segment{Name: name, Value: float64(v) / denom * 100})
	}
	return b
}

// Pct formats a ratio as a percentage string.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
