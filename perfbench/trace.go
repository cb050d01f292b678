package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Span categories. A call's category decides which host-time total it
// feeds; build, prepare and setup calls together make up setup_s.
const (
	catOther   = ""
	catBuild   = "build"   // core constructors and connection set-up: core.build_s
	catPrepare = "prepare" // workload input staging: apps.prepare_s
	catSetup   = "setup"   // a grouping span whose whole body is set-up
	catRun     = "run"     // drives the event loop: sim.run_s
)

func isSetup(cat string) bool { return cat == catBuild || cat == catPrepare || cat == catSetup }

// span is one timed call the benchmark makes into a simulator package.
// Repeated calls made in one loop share one span and record the count.
type span struct {
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at top level
	Cat     string `json:"cat,omitempty"`
	Calls   int    `json:"calls"`
	StartNs int64  `json:"start_ns"` // since the pass started
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"` // duration minus the children's durations

	AllocBytes  uint64 `json:"alloc_bytes"`
	Mallocs     uint64 `json:"mallocs"`
	GCCycles    uint32 `json:"gc_cycles"`
	GCPauseNs   uint64 `json:"gc_pause_ns"`
	MinorFaults int64  `json:"minor_faults"`
	UserNs      int64  `json:"user_ns"`
	SysNs       int64  `json:"sys_ns"`
}

// rtSample is the runtime and OS state at one span boundary.
type rtSample struct {
	alloc, mallocs, pauseNs, heapSys uint64
	gc                               uint32
	minflt, userNs, sysNs            int64
}

func readRT(ms *runtime.MemStats) rtSample {
	runtime.ReadMemStats(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs,
		heapSys: ms.HeapSys, gc: ms.NumGC,
		minflt: ru.Minflt, userNs: ru.Utime.Nano(), sysNs: ru.Stime.Nano(),
	}
}

// tracer times the benchmark's calls into the simulator. Untraced, it
// only sums host time per category (two clock reads per call). Traced,
// it also records a span per call with runtime.MemStats and getrusage
// deltas, kept in memory until the pass ends.
type tracer struct {
	on    bool
	start time.Time
	cell  string

	totals     map[string]time.Duration // per category, outermost calls only
	depth      map[string]int
	setupDepth int
	setupStart time.Time
	setup      time.Duration

	spans []span
	open  []int
	bound []rtSample // rt state at each open span's start
	ms    runtime.MemStats
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, start: time.Now(), totals: map[string]time.Duration{}, depth: map[string]int{}}
}

// call runs fn as one span: calls is how many calls into the package fn
// makes (1 for a single call, the loop count for a batched loop).
func (t *tracer) call(name, cat string, calls int, fn func()) {
	if isSetup(cat) {
		if t.setupDepth == 0 {
			t.setupStart = time.Now()
		}
		t.setupDepth++
	}
	t.depth[cat]++
	if t.on {
		t.begin(name, cat, calls)
	}
	begin := time.Now()
	fn()
	end := time.Now()
	if t.on {
		t.end()
	}
	if t.depth[cat]--; t.depth[cat] == 0 {
		t.totals[cat] += end.Sub(begin)
	}
	if isSetup(cat) {
		if t.setupDepth--; t.setupDepth == 0 {
			t.setup += time.Since(t.setupStart)
		}
	}
}

// traced is tracer.call for a function with one result.
func traced[T any](t *tracer, name, cat string, fn func() T) T {
	var v T
	t.call(name, cat, 1, func() { v = fn() })
	return v
}

// traced2 is tracer.call for a function with a result and an error.
func traced2[T any](t *tracer, name, cat string, fn func() (T, error)) (T, error) {
	var v T
	var err error
	t.call(name, cat, 1, func() { v, err = fn() })
	return v, err
}

func (t *tracer) begin(name, cat string, calls int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.bound = append(t.bound, readRT(&t.ms))
	t.spans = append(t.spans, span{
		Name: name, Cell: t.cell, Parent: parent, Cat: cat, Calls: calls,
		StartNs: time.Since(t.start).Nanoseconds(),
	})
}

func (t *tracer) end() {
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.EndNs = time.Since(t.start).Nanoseconds()
	b, a := t.bound[n], readRT(&t.ms)
	s.AllocBytes = a.alloc - b.alloc
	s.Mallocs = a.mallocs - b.mallocs
	s.GCCycles = a.gc - b.gc
	s.GCPauseNs = a.pauseNs - b.pauseNs
	s.MinorFaults = a.minflt - b.minflt
	s.UserNs = a.userNs - b.userNs
	s.SysNs = a.sysNs - b.sysNs
	t.open, t.bound = t.open[:n], t.bound[:n]
}

// finish computes every span's self time.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

// layerSelf sums self time per layer: the package prefix of the span
// name (core, apps, sim, snap, bench, or perfbench for the benchmark's
// own input generation).
func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.SelfNs) / 1e9
	}
	return out
}

// writeSpans writes the pass's spans as JSON to dir.
func (t *tracer) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, data, 0o644)
}
