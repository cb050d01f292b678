package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better = %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range perLayer {
		if s.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", s.Name)
		}
		switch s.Src {
		case srcDet, srcHost, srcMicro, srcDerived:
		default:
			t.Errorf("per-layer metric %s: unknown source %q", s.Name, s.Src)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json's metric and
// workload lists in step with the ones this program prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	want := func(specs []metricSpec) []entry {
		var out []entry
		for _, s := range specs {
			out = append(out, entry{s.Name, s.Unit, s.Better})
		}
		return out
	}
	if !reflect.DeepEqual(bj.EndToEnd, want(endToEnd)) {
		t.Errorf("end_to_end = %v, want %v", bj.EndToEnd, want(endToEnd))
	}
	if !reflect.DeepEqual(bj.PerLayer, want(perLayer)) {
		t.Errorf("per_layer = %v, want %v", bj.PerLayer, want(perLayer))
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, want %v", names, workloadNames())
	}
}

// fakeRuns is two untraced and two traced passes with every value set.
func fakeRuns() []passRun {
	var runs []passRun
	for i := 0; i < 4; i++ {
		o := passOut{Workload: "rack_alltoall", Seed: 3, Traced: i%2 == 1,
			SetupS: 0.5, WallS: 2 + float64(i), Ops: 10,
			Digests: map[string]string{"rack": "x"},
			Det:     map[string]float64{}, Host: map[string]float64{}}
		for _, s := range perLayer {
			switch s.Src {
			case srcDet:
				o.Det[s.Name] = 7
			case srcHost:
				o.Host[s.Name] = 0.25
			}
		}
		o.Det["sim.ios"] = 2
		runs = append(runs, passRun{out: o, cpuS: 3, rssMB: 100, ref: refTime{refSeconds, refCPUSeconds}})
	}
	return runs
}

// printed decodes a result as the driver reads it.
func printed(t *testing.T, r result) map[string]map[string]any {
	t.Helper()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	return out.Metrics
}

func TestEveryMetricPrintsWithUnit(t *testing.T) {
	runs := fakeRuns()
	res, problems := aggregate(runs)
	if len(problems) > 0 || !res.Correct || res.Attempted != 40 {
		t.Fatalf("aggregate: correct %v attempted %d problems %v", res.Correct, res.Attempted, problems)
	}
	check := func(specs []metricSpec, got map[string]map[string]any) {
		if len(got) != len(specs) {
			t.Errorf("printed %d metrics, want %d", len(got), len(specs))
		}
		for _, s := range specs {
			m, ok := got[s.Name]
			if !ok {
				t.Errorf("metric %s not printed", s.Name)
				continue
			}
			if _, ok := m["value"].(float64); !ok {
				t.Errorf("metric %s: value %v is not a number", s.Name, m["value"])
			}
			if m["unit"] != s.Unit {
				t.Errorf("metric %s: unit %v, want %s", s.Name, m["unit"], s.Unit)
			}
		}
	}
	check(endToEnd, printed(t, res))
	if v := res.Metrics["wall_s"].Value; v != 3 { // untraced passes: 2 and 4
		t.Errorf("wall_s = %v, want the untraced median 3", v)
	}

	micro := map[string]float64{}
	for _, s := range perLayer {
		if s.Src == srcMicro {
			micro[s.Name] = 1
		}
	}
	var traced result
	traced.fill(perLayer, perLayerValues(runs, micro))
	check(perLayer, printed(t, traced))
	if v := traced.Metrics["trace.overhead_s"].Value; v != 1 { // traced 3,5 vs untraced 2,4
		t.Errorf("trace.overhead_s = %v, want 1", v)
	}
}

// TestTimesScaleWithReferenceKernel: a reference kernel running at
// half its nominal speed halves the reported times, and the info line
// keeps them unscaled.
func TestTimesScaleWithReferenceKernel(t *testing.T) {
	runs := fakeRuns()
	for i := range runs {
		runs[i].ref = refTime{2 * refSeconds, 2 * refCPUSeconds}
	}
	res, _ := aggregate(runs)
	for name, want := range map[string]float64{"wall_s": 1.5, "setup_s": 0.25, "cpu_s": 1.5, "peak_rss_mb": 100} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Raw["wall_s"] != 3 || res.Raw["ref_s"] != 2*refSeconds {
		t.Errorf("raw = %v", res.Raw)
	}
}

func TestNondeterministicPassesFail(t *testing.T) {
	runs := fakeRuns()
	runs[2].out.Det = map[string]float64{"sim.events": 8}
	if res, _ := aggregate(runs); res.Correct || res.Failed == 0 {
		t.Errorf("passes with different counts: correct %v failed %d", res.Correct, res.Failed)
	}
}

func recordedFor(t *testing.T, workload string) map[string]string {
	t.Helper()
	all, err := parseDigests(digestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(all[workload]) == 0 {
		t.Fatalf("no recorded digests for %s", workload)
	}
	return all[workload]
}

// TestCorruptedDigestFails runs Fig 11a's cells, checks they reproduce
// their recorded digests, and then that one corrupted recorded digest
// counts as a failed operation.
func TestCorruptedDigestFails(t *testing.T) {
	p := newPass(defaultSeed, newTracer(false))
	for _, shard := range paperShards()[:3] { // Fig 11a
		shard(p)
	}
	if p.failed != 0 {
		t.Fatalf("fig11a failed: %v", p.problems)
	}
	want := map[string]string{}
	for cell, d := range recordedFor(t, "paper_cells") {
		if _, ok := p.digests[cell]; ok {
			want[cell] = d
		}
	}
	if len(want) != 3 {
		t.Fatalf("recorded fig11a digests: %v", want)
	}
	out := passOut{Workload: "paper_cells", Seed: defaultSeed, Digests: p.digests}
	out.check(want)
	if out.Failed != 0 {
		t.Fatalf("recorded digests do not match: %v", out.Problems)
	}

	want["fig11a/dcs-ctrl"] = "00000000000000000000000000000000"
	out.check(want)
	if out.Failed != 1 {
		t.Errorf("corrupted digest: failed = %d, want 1 (%v)", out.Failed, out.Problems)
	}

	other := passOut{Workload: "paper_cells", Seed: defaultSeed + 1, Digests: p.digests}
	other.check(want)
	if other.Failed != 0 {
		t.Errorf("digests were compared at a non-default seed: %v", other.Problems)
	}
}

// TestTracingKeepsCounts runs cells traced and untraced and requires
// identical digests and deterministic counts.
func TestTracingKeepsCounts(t *testing.T) {
	run := func(on bool) *pass {
		tr := newTracer(on)
		p := newPass(defaultSeed+2, tr)
		for _, shard := range paperShards()[3:6] { // Fig 11b
			shard(p)
		}
		rackCell(p, 8)
		tr.finish()
		if p.failed != 0 {
			t.Fatalf("traced=%v failed: %v", on, p.problems)
		}
		if got := len(tr.spans) > 0; got != on {
			t.Errorf("traced=%v recorded %d spans", on, len(tr.spans))
		}
		return p
	}
	plain, traced := run(false), run(true)
	if d := diffMaps(plain.det, traced.det); d != "" {
		t.Errorf("counts differ with tracing: %s", d)
	}
	if d := diffMaps(plain.digests, traced.digests); d != "" {
		t.Errorf("digests differ with tracing: %s", d)
	}
	if plain.det["shard.windows"] == 0 || plain.det["sim.events"] == 0 {
		t.Errorf("counts not collected: %v", plain.det)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(true)
	tr.call("core.outer", catSetup, 1, func() {
		tr.call("sim.inner", catRun, 1, func() {})
	})
	tr.finish()
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Parent != 0 || outer.Parent != -1 {
		t.Fatalf("parents: outer %d inner %d", outer.Parent, inner.Parent)
	}
	if want := (outer.EndNs - outer.StartNs) - (inner.EndNs - inner.StartNs); outer.SelfNs != want {
		t.Errorf("outer self %d, want %d", outer.SelfNs, want)
	}
	if tr.setup <= 0 || tr.totals[catRun] <= 0 {
		t.Errorf("setup %v run %v not accumulated", tr.setup, tr.totals[catRun])
	}
}
