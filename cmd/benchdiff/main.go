// Command benchdiff compares a freshly generated benchmark report
// against a checked-in baseline and exits non-zero on a regression.
//
// It reads both report shapes cmd/dcsbench emits (BENCH_kernel.json
// and BENCH_dataplane.json) the same way: one JSON walk flattens a
// report into named entries, each top-level object under its key
// ("kernel_schedule", "checkpoint") and each array element under
// key/name ("benches/nic_frame_echo", "racks/rack_alltoall_64x4").
// The gates are two tables, rules (per-metric baseline-vs-fresh
// gates: SLOWER, ALLOCS, EVENTS, HANDOFF, NOSEG) and checks
// (single-entry verdicts on the fresh report: NOHANDLER, NOCKPT),
// plus four cross-entry gates in code: nopar, fpdiv, hotpaths and
// NOHANDLER's ≥25% ratio in run. Gating a new metric takes one row.
//
// A field a report omits reads as 0, so an omitempty counter that
// went dead fails its gate instead of skipping it. Fields no rule
// names (figure and rack wall_ms, sweep and checkpoint timings) are
// informational, and entries in only one report fail no rule, so CI
// can regenerate a subset of the baseline's figures.
//
// Usage:
//
//	benchdiff -baseline BENCH_kernel.json -fresh fresh_kernel.json
//	benchdiff -baseline BENCH_dataplane.json -fresh fresh_dataplane.json -hotpaths hotpaths.json
//
// The output is one block per entry, every field as baseline ->
// fresh with failing fields marked, then the other findings; each
// failure line starts with its gate code. -hotpaths names the JSON
// `dcslint -hotpaths` prints, to check that the prover's
// //dcslint:hotpath roots and the zero-alloc benches agree.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one flattened report object.
type entry map[string]any

// num reads a numeric or boolean (1/0) field; an absent field reads
// as 0.
func (e entry) num(field string) float64 {
	switch v := e[field].(type) {
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
	}
	return 0
}

// rule gates one metric of an entry both reports carry.
type rule struct {
	field, code string
	fails       func(base, fresh float64) bool
}

// grew fails a metric that rose more than tol over a non-zero
// baseline.
func grew(tol float64) func(base, fresh float64) bool {
	return func(b, c float64) bool { return b > 0 && c > b*(1+tol) }
}

// rules are the per-metric gates, applied in order; when several fail
// on one entry the last names it. Wall-clock ns get 25% for runner
// noise. Event and handoff counts come from the simulated schedule,
// not the wall clock, so they get a hard 10%: growth is a protocol
// regression, or converted loops falling back to goroutine
// park/resume. A zero-alloc baseline is an invariant, not a budget.
// A baseline that collapses frames into flow segments must keep
// collapsing some, or the wire fast path went dead.
var rules = []rule{
	{"ns_per_op", "SLOWER", grew(0.25)},
	{"ns_per_event", "SLOWER", grew(0.25)},
	{"ns_per_flow", "SLOWER", grew(0.25)},
	{"allocs_per_op", "ALLOCS", func(b, c float64) bool { return b == 0 && c > 0 }},
	{"events_per_op", "EVENTS", grew(0.10)},
	{"events_per_io", "EVENTS", grew(0.10)},
	{"events_per_flow", "EVENTS", grew(0.10)},
	{"handoffs_per_event", "HANDOFF", grew(0.10)},
	{"seg_frames_per_op", "NOSEG", func(b, c float64) bool { return b > 0 && c == 0 }},
}

// check is a verdict on one entry of the fresh report; reports without
// the entry pass. A check with no test instead requires the entry: the
// fresh report must keep it whenever the baseline has it.
type check struct {
	entry, field, code string
	fails              func(v float64) bool
	why                string
}

func isZero(v float64) bool { return v == 0 }

var checks = []check{
	// The run-to-completion dispatch path is live: the handler flavor
	// of the park/resume microbench dispatches handlers and never
	// falls back to a goroutine handoff.
	{"kernel_park_resume_handler", "handler_dispatches", "NOHANDLER", isZero, "no handler dispatched"},
	{"kernel_park_resume_handler", "handoffs", "NOHANDLER", func(v float64) bool { return v > 0 },
		"goroutine handoffs in handler mode (run-to-completion broken)"},
	// The warm-fork grid runs, every forked fingerprint matches its
	// straight-through reference, the snapshot is non-empty, and the
	// fork pays. The grid measures 1.3-1.4x on a quiet machine; the
	// floor is 1.1x so runner noise cannot flake the build while a
	// dead fork (restore as slow as re-warming, ~1.0x) still trips it.
	{"checkpoint", "", "NOCKPT", nil, "baseline has a warm-fork section but the fresh report has none (grid not running)"},
	{"checkpoint", "cells", "NOCKPT", isZero, "no warm-fork cell ran"},
	{"checkpoint", "all_match", "NOCKPT", isZero, "forked fingerprints diverged from straight-through (restore broken)"},
	{"checkpoint", "snapshot_bytes", "NOCKPT", isZero, "empty snapshot (codec dead)"},
	{"checkpoint", "speedup", "NOCKPT", func(v float64) bool { return v < 1.1 },
		"warm-fork speedup below the 1.1x floor (forking no longer pays)"},
}

// load reads a report and flattens it into entries.
func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]entry{}
	for key, v := range top {
		switch v := v.(type) {
		case map[string]any:
			out[key] = v
		case []any:
			for _, el := range v {
				if e, ok := el.(map[string]any); ok {
					name, _ := e["name"].(string)
					out[key+"/"+name] = e
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no report entries", path)
	}
	return out, nil
}

// nopar is the shard kernel's knob-not-dead gate: a fresh rack run
// with more than one worker that dispatched no window in parallel ran
// silently serial, if it has several domains or its baseline ran
// parallel windows. A single-core runner legitimately clamps the pool
// to one worker.
func nopar(b, c entry) bool {
	return c.num("workers") > 1 && c.num("par_windows") == 0 &&
		(b.num("par_windows") > 0 || c.num("domains") > 1)
}

// fpdiv is the determinism gate: every decomposition of one workload
// (entry names equal up to the domain-count suffix, "…_64x4" → "…_64")
// must land on the same fingerprint. Fingerprint drift against the
// baseline is only informational: the workload or timing model
// changed, and the baseline needs regenerating.
func fpdiv(label string, m map[string]entry) []string {
	groups := map[string]map[string]bool{}
	for name, e := range m {
		fp, _ := e["fingerprint"].(string)
		if fp == "" {
			continue
		}
		if i := strings.LastIndexByte(name, 'x'); i >= 0 {
			name = name[:i]
		}
		if groups[name] == nil {
			groups[name] = map[string]bool{}
		}
		groups[name][fp] = true
	}
	var bad []string
	for g, fps := range groups {
		if len(fps) > 1 {
			bad = append(bad, fmt.Sprintf("FPDIV %s: %d distinct fingerprints across %s decompositions", label, len(fps), g))
		}
	}
	return bad
}

// hotpaths cross-checks the baseline's zero-alloc benches against the
// roots in path, both ways: a zero-alloc bench no root names is an
// invariant nothing proves, and a root naming a bench that is missing
// or allocates is a claim the numbers contradict.
func hotpaths(base map[string]entry, path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("HOTPATH cannot read root list: %v", err)}
	}
	var roots []struct {
		Func    string   `json:"func"`
		Benches []string `json:"benches"`
	}
	if err := json.Unmarshal(data, &roots); err != nil {
		return []string{fmt.Sprintf("HOTPATH %s: %v", path, err)}
	}
	tagged := map[string]string{} // bench entry -> tagged func
	for _, r := range roots {
		for _, b := range r.Benches {
			tagged["benches/"+b] = r.Func
		}
	}
	var bad []string
	for name, e := range base {
		if strings.HasPrefix(name, "benches/") && e.num("allocs_per_op") == 0 && tagged[name] == "" {
			bad = append(bad, fmt.Sprintf(
				"HOTPATH %s: allocs_per_op == 0 but no //dcslint:hotpath root names it; tag the bench's fast-path entry point", name))
		}
	}
	for name, fn := range tagged {
		if e, ok := base[name]; !ok {
			bad = append(bad, fmt.Sprintf("HOTPATH %s: //dcslint:hotpath on %s names a bench missing from the baseline", name, fn))
		} else if a := e.num("allocs_per_op"); a != 0 {
			bad = append(bad, fmt.Sprintf(
				"HOTPATH %s: //dcslint:hotpath on %s claims zero allocs but baseline has allocs_per_op %g", name, fn, a))
		}
	}
	return bad
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run diffs the reports args name, writing the per-entry blocks and
// findings to out. It returns 0 when clean, 1 on a regression and 2
// on bad usage or an unreadable report.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "", "checked-in baseline report (JSON)")
	fresh := fs.String("fresh", "", "freshly generated report (JSON)")
	roots := fs.String("hotpaths", "", "dcslint -hotpaths output to cross-check zero-alloc benches against prover roots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		return 2
	}
	base, errBase := load(*baseline)
	cur, errFresh := load(*fresh)
	if err := errors.Join(errBase, errFresh); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		return 2
	}

	failed := false
	for _, name := range union(base, cur) {
		b, inBase := base[name]
		c, inCur := cur[name]
		status, marks := "ok", map[string]string{}
		switch {
		case !inCur:
			status = "SKIP"
		case !inBase:
			status = "NEW"
		default:
			for _, r := range rules {
				if r.fails(b.num(r.field), c.num(r.field)) {
					status, marks[r.field] = r.code, "  "+r.code
				}
			}
		}
		if inCur && strings.HasPrefix(name, "racks/") && nopar(b, c) {
			status, marks["par_windows"] = "NOPAR", "  NOPAR"
		}
		failed = failed || len(marks) > 0
		fmt.Fprintf(out, "%-6s %s\n", status, name)
		for _, f := range union(b, c) {
			if f == "name" {
				continue
			}
			fmt.Fprintf(out, "       %-18s %s -> %s%s\n", f, show(b[f]), show(c[f]), marks[f])
		}
	}

	bad := append(fpdiv("baseline", base), fpdiv("fresh", cur)...)
	for _, k := range checks {
		c, inCur := cur[k.entry]
		_, inBase := base[k.entry]
		if k.fails == nil && inBase && !inCur {
			bad = append(bad, fmt.Sprintf("%s %s: %s", k.code, k.entry, k.why))
		} else if k.fails != nil && inCur && k.fails(c.num(k.field)) {
			bad = append(bad, fmt.Sprintf("%s %s: %s %s, %s", k.code, k.entry, k.field, show(c[k.field]), k.why))
		}
	}
	// The conversion to run-to-completion handlers promises at least
	// 25% off the goroutine flavor's ns/event (~24x in practice).
	if h, g := cur["kernel_park_resume_handler"].num("ns_per_event"), cur["kernel_park_resume"].num("ns_per_event"); g > 0 && h > 0.75*g {
		bad = append(bad, fmt.Sprintf(
			"NOHANDLER kernel_park_resume_handler: %.2f ns/event is not >=25%% under goroutine %.2f (handoff tax not killed)", h, g))
	}
	if *roots != "" {
		bad = append(bad, hotpaths(base, *roots)...)
	}
	sort.Strings(bad)
	for _, f := range bad {
		fmt.Fprintln(out, f)
	}
	if failed || len(bad) > 0 {
		fmt.Fprintln(out, "benchdiff: regression detected")
		return 1
	}
	return 0
}

// show formats a field value; numbers print exactly, without exponents.
func show(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}

// union returns the keys of a and b, sorted.
func union[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
