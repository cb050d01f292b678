package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// gateCase diffs a checked-in baseline against an in-memory mutation
// of itself (and, for HOTPATH, a root list) and pins benchdiff's exit
// code and the set of gate codes it prints.
type gateCase struct {
	name      string
	baseline  string                 // checked-in report, relative to the repo root
	mutate    func(r map[string]any) // edits the fresh copy; nil = self-diff
	roots     []string               // one -hotpaths root per bench; nil = no -hotpaths
	wantExit  int
	wantCodes []string
}

const (
	dataplane = "BENCH_dataplane.json"
	kernel    = "BENCH_kernel.json"
)

// zeroAllocBenches are the data-plane benches the baseline records at
// zero allocs/op, i.e. the ones a clean -hotpaths list must name.
var zeroAllocBenches = []string{"mem_copy_same_map_4k", "mem_read_into_4k", "pcie_dma_4k",
	"hdc_gather_8x512", "nvme_read_4k", "nic_frame_echo", "nic_bulk_stream_64k"}

// allocatingBulk gives nic_bulk_stream_64k the 51 allocs/op it made
// before back-to-back NICs shared a frame pool. Every checked-in bench
// is zero-alloc now, so the cases about an allocating path build one.
var allocatingBulk = set("benches", "nic_bulk_stream_64k", "allocs_per_op", 51.001)

// baseEdits edit the baseline itself (and so the fresh copy made from
// it) for the cases whose premise the checked-in report lacks.
var baseEdits = map[string]func(map[string]any){
	"dataplane/allocs-grow-on-allocating-path": allocatingBulk,
	"hotpaths/root-names-allocating-bench":     allocatingBulk,
}

var gateCases = []gateCase{
	{"dataplane/self-diff", dataplane, nil, nil, 0, nil},
	{"dataplane/ns+30%", dataplane, scale("benches", "nvme_read_4k", "ns_per_op", 1.30), nil, 1, []string{"SLOWER"}},
	{"dataplane/ns+20%", dataplane, scale("benches", "nvme_read_4k", "ns_per_op", 1.20), nil, 0, nil},
	{"dataplane/allocs-on-zero-alloc-path", dataplane, set("benches", "pcie_dma_4k", "allocs_per_op", 1), nil, 1, []string{"ALLOCS"}},
	{"dataplane/allocs-grow-on-allocating-path", dataplane, set("benches", "nic_bulk_stream_64k", "allocs_per_op", 60), nil, 0, nil},
	{"dataplane/events+15%", dataplane, scale("benches", "hdc_gather_8x512", "events_per_op", 1.15), nil, 1, []string{"EVENTS"}},
	{"dataplane/events+5%", dataplane, scale("benches", "hdc_gather_8x512", "events_per_op", 1.05), nil, 0, nil},
	{"dataplane/seg-frames-zero", dataplane, set("benches", "nic_frame_echo", "seg_frames_per_op", 0), nil, 1, []string{"NOSEG"}},
	// seg_frames_per_op is omitempty in bench.DataplaneStat: a dead
	// wire fast path shows up as a missing key, which must read as 0.
	{"dataplane/seg-frames-key-omitted", dataplane, del("benches", "nic_frame_echo", "seg_frames_per_op"), nil, 1, []string{"NOSEG"}},
	{"dataplane/seg-frames-fewer", dataplane, set("benches", "nic_bulk_stream_64k", "seg_frames_per_op", 1), nil, 0, nil},

	{"kernel/self-diff", kernel, nil, nil, 0, nil},
	{"kernel/ns-per-event+30%", kernel, scale("", "kernel_schedule", "ns_per_event", 1.30), nil, 1, []string{"SLOWER"}},
	{"kernel/ns-per-flow+20%", kernel, scale("racks", "rack_alltoall_64x4", "ns_per_flow", 1.20), nil, 0, nil},
	{"kernel/figure-wall-x3-informational", kernel, scale("figures", "rack", "wall_ms", 3), nil, 0, nil},
	{"kernel/events-per-io+15%", kernel, scale("protocol", "dcs-ctrl", "events_per_io", 1.15), nil, 1, []string{"EVENTS"}},
	{"kernel/events-per-flow+5%", kernel, scale("racks", "rack_alltoall_64x1", "events_per_flow", 1.05), nil, 0, nil},
	{"kernel/handoffs-per-event+20%", kernel, scale("", "kernel_park_resume", "handoffs_per_event", 1.20), nil, 1, []string{"HANDOFF"}},
	{"kernel/handoffs-per-event+5%", kernel, scale("racks", "rack_alltoall_64x4", "handoffs_per_event", 1.05), nil, 0, nil},
	{"kernel/par-windows-zero-at-2-workers", kernel, set("racks", "rack_alltoall_64x4", "par_windows", 0), nil, 1, []string{"NOPAR"}},
	{"kernel/par-windows-zero-at-1-worker", kernel, func(r map[string]any) {
		set("racks", "rack_alltoall_64x4", "par_windows", 0)(r)
		set("racks", "rack_alltoall_64x4", "workers", 1)(r)
	}, nil, 0, nil},
	{"kernel/new-multi-domain-rack-ran-serial", kernel, func(r map[string]any) {
		rack := map[string]any{}
		for k, v := range find(r, "racks", "rack_alltoall_64x4") {
			rack[k] = v
		}
		rack["name"], rack["domains"], rack["par_windows"] = "rack_alltoall_64x2", 2, 0
		r["racks"] = append(r["racks"].([]any), rack)
	}, nil, 1, []string{"NOPAR"}},
	{"kernel/fingerprint-diverges-across-decompositions", kernel, set("racks", "rack_alltoall_64x4", "fingerprint", "00000000000000000000000000000000"), nil, 1, []string{"FPDIV"}},
	{"kernel/fingerprint-drift-on-every-rack", kernel, func(r map[string]any) {
		for _, el := range r["racks"].([]any) {
			el.(map[string]any)["fingerprint"] = "00000000000000000000000000000000"
		}
	}, nil, 0, nil},
	{"kernel/handler-dispatches-zero", kernel, set("", "kernel_park_resume_handler", "handler_dispatches", 0), nil, 1, []string{"NOHANDLER"}},
	{"kernel/handler-mode-handoffs", kernel, set("", "kernel_park_resume_handler", "handoffs", 5), nil, 1, []string{"NOHANDLER"}},
	// The goroutine flavor speeds up until the handler's 23.67
	// ns/event is no longer 25% under it: 0.75 × 30 < 23.67 < 0.75 × 32.
	{"kernel/handler-not-25%-faster", kernel, set("", "kernel_park_resume", "ns_per_event", 30), nil, 1, []string{"NOHANDLER"}},
	{"kernel/handler-26%-faster", kernel, set("", "kernel_park_resume", "ns_per_event", 32), nil, 0, nil},
	{"kernel/checkpoint-section-removed", kernel, func(r map[string]any) { delete(r, "checkpoint") }, nil, 1, []string{"NOCKPT"}},
	{"kernel/checkpoint-fingerprints-diverged", kernel, set("", "checkpoint", "all_match", false), nil, 1, []string{"NOCKPT"}},
	{"kernel/checkpoint-speedup-1.05", kernel, set("", "checkpoint", "speedup", 1.05), nil, 1, []string{"NOCKPT"}},
	{"kernel/checkpoint-speedup-1.15", kernel, set("", "checkpoint", "speedup", 1.15), nil, 0, nil},
	{"kernel/partial-regeneration-skips-entry", kernel, func(r map[string]any) {
		r["racks"] = []any{find(r, "racks", "rack_alltoall_64x4")}
	}, nil, 0, nil},

	{"hotpaths/clean", dataplane, nil, zeroAllocBenches, 0, nil},
	{"hotpaths/root-names-missing-bench", dataplane, nil, append(slices.Clip(zeroAllocBenches), "no_such_bench"), 1, []string{"HOTPATH"}},
	{"hotpaths/root-names-allocating-bench", dataplane, nil, zeroAllocBenches, 1, []string{"HOTPATH"}},
	{"hotpaths/zero-alloc-bench-untagged", dataplane, nil, zeroAllocBenches[:5], 1, []string{"HOTPATH"}},
}

func TestGateVerdicts(t *testing.T) {
	for _, c := range gateCases {
		t.Run(c.name, func(t *testing.T) {
			baseline := filepath.Join("..", "..", c.baseline)
			data, err := os.ReadFile(baseline)
			if err != nil {
				t.Fatal(err)
			}
			var fresh map[string]any
			if err := json.Unmarshal(data, &fresh); err != nil {
				t.Fatal(err)
			}
			if edit := baseEdits[c.name]; edit != nil {
				edit(fresh)
				baseline = writeJSON(t, "baseline.json", fresh)
			}
			if c.mutate != nil {
				c.mutate(fresh)
			}
			args := []string{"-baseline", baseline, "-fresh", writeJSON(t, "fresh.json", fresh)}
			if c.roots != nil {
				var roots []map[string]any
				for _, b := range c.roots {
					roots = append(roots, map[string]any{"func": "root_" + b, "benches": []string{b}})
				}
				args = append(args, "-hotpaths", writeJSON(t, "hotpaths.json", roots))
			}
			var out bytes.Buffer
			exit := run(args, &out)
			if got := printedCodes(out.String()); exit != c.wantExit || !reflect.DeepEqual(got, c.wantCodes) {
				t.Errorf("exit %d codes %v, want exit %d codes %v\n%s", exit, got, c.wantExit, c.wantCodes, out.String())
			}
		})
	}
}

// TestEveryGateFires keeps the case table honest: each gate code has
// at least one case that trips it.
func TestEveryGateFires(t *testing.T) {
	fired := map[string]bool{}
	for _, c := range gateCases {
		for _, code := range c.wantCodes {
			fired[code] = true
		}
	}
	for _, code := range gateCodes {
		if !fired[code] {
			t.Errorf("no case fires %s", code)
		}
	}
}

// gateCodes are the verdicts that fail a diff; benchdiff prints each
// as the first word of a line.
var gateCodes = []string{"SLOWER", "ALLOCS", "EVENTS", "HANDOFF", "NOSEG",
	"NOPAR", "FPDIV", "NOHANDLER", "NOCKPT", "HOTPATH"}

// printedCodes returns the sorted set of gate codes benchdiff printed.
func printedCodes(out string) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			for _, code := range gateCodes {
				if f[0] == code {
					seen[code] = true
				}
			}
		}
	}
	var codes []string
	for code := range seen {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	return codes
}

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// find returns a report object: the top-level object called name when
// section is "", else the element of array section with that name.
func find(r map[string]any, section, name string) map[string]any {
	if section == "" {
		return r[name].(map[string]any)
	}
	for _, el := range r[section].([]any) {
		if m := el.(map[string]any); m["name"] == name {
			return m
		}
	}
	panic("no " + section + "/" + name)
}

func set(section, name, field string, v any) func(map[string]any) {
	return func(r map[string]any) { find(r, section, name)[field] = v }
}

func scale(section, name, field string, f float64) func(map[string]any) {
	return func(r map[string]any) {
		m := find(r, section, name)
		m[field] = m[field].(float64) * f
	}
}

func del(section, name, field string) func(map[string]any) {
	return func(r map[string]any) { delete(find(r, section, name), field) }
}
