// Command perfbench is the repository's benchmark. One run measures one
// workload: it runs passes (the workload's cells once, one after
// another, in fresh processes) while they fit in the run's seconds,
// and prints the medians as one JSON line. Every cell's result
// is checked: at the default seed against the digests recorded in
// digests.json, at every seed against the workload's invariants.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench -workload paper_cells -seed 1 -seconds 15 -trace 0
//	perfbench -workload rack_alltoall -trace 1 -outdir .bench_build/trace
//	perfbench -record perfbench/digests.json
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcsctrl/internal/bench"
)

//go:embed digests.json
var digestsJSON []byte

// runBudget bounds one run, children included.
const runBudget = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the default seed reproduces the recorded digests")
	seconds := flag.Int("seconds", 10, "run passes while they fit in this many seconds (at least 3 passes)")
	traceRun := flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	outdir := flag.String("outdir", "", "directory for the span files of traced passes")
	passMode := flag.Bool("pass", false, "run one pass in this process and print it as JSON")
	microMode := flag.Bool("micro", false, "run the isolated layer microbenchmarks and print them as JSON")
	calibrateMode := flag.Bool("calibrate", false, "time the reference kernel once and print it as JSON")
	record := flag.String("record", "", "run every workload once at the default seed and write the digests to this file")
	shard := flag.Int("shard", 0, "with -pass: which of the workload's shards to run")
	flag.Parse()

	recorded, err := parseDigests(digestsJSON)
	if err != nil {
		fail(2, "perfbench: digests.json: %v", err)
	}
	switch {
	case *record != "":
		os.Exit(recordMain(*record))
	case *microMode:
		os.Exit(microMain(*outdir))
	case *calibrateMode:
		os.Exit(calibrateMain())
	}
	wl, ok := workloads[*workload]
	if !ok {
		fail(2, "perfbench: unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *traceRun != 0 && *traceRun != 1 {
		fail(2, "perfbench: -trace must be 0 or 1")
	}
	if *seconds < 1 {
		fail(2, "perfbench: -seconds must be at least 1")
	}
	if *passMode {
		if *shard < 0 || *shard >= len(wl.shards) {
			fail(2, "perfbench: %s has shards 0..%d", *workload, len(wl.shards)-1)
		}
		os.Exit(passMain(*workload, *shard, *seed, *traceRun == 1, *outdir))
	}
	os.Exit(drive(*workload, *seed, *seconds, *traceRun == 1, *outdir, recorded))
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// passOut is what one pass, or one shard of it, reports.
type passOut struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	SetupS   float64            `json:"setup_s"`
	WallS    float64            `json:"wall_s"` // pass time minus set-up
	Ops      int64              `json:"ops"`
	Failed   int64              `json:"failed"`
	Problems []string           `json:"problems,omitempty"`
	Digests  map[string]string  `json:"digests"`
	Det      map[string]float64 `json:"det"`
	Results  map[string]float64 `json:"results,omitempty"` // for the workload's finish step
	Host     map[string]float64 `json:"host"`
	SelfS    map[string]float64 `json:"self_s,omitempty"` // traced: self time per layer
}

// runShard runs one shard of the workload's cells in this process.
func runShard(workload string, shard int, seed uint64, on bool) (passOut, *tracer) {
	t := newTracer(on)
	p := newPass(seed, t)
	var ms runtime.MemStats
	before := readRT(&ms)
	begin := time.Now()
	workloads[workload].shards[shard](p)
	elapsed := time.Since(begin)
	after := readRT(&ms)
	t.finish()
	out := passOut{
		Workload: workload, Seed: seed, Traced: on,
		SetupS: t.setup.Seconds(), WallS: (elapsed - t.setup).Seconds(),
		Ops: p.ops, Failed: p.failed, Problems: p.problems,
		Digests: p.digests, Det: p.det, Results: p.results,
		Host: map[string]float64{
			"sim.run_s":       t.totals[catRun].Seconds(),
			"core.build_s":    t.totals[catBuild].Seconds(),
			"apps.prepare_s":  t.totals[catPrepare].Seconds(),
			"rt.alloc_bytes":  float64(after.alloc - before.alloc),
			"rt.mallocs":      float64(after.mallocs - before.mallocs),
			"rt.gc_cycles":    float64(after.gc - before.gc),
			"rt.gc_pause_s":   float64(after.pauseNs-before.pauseNs) / 1e9,
			"rt.minor_faults": float64(after.minflt - before.minflt),
			"rt.heap_sys_mb":  float64(after.heapSys) / (1 << 20),
		},
	}
	if on {
		out.SelfS = t.layerSelf()
	}
	return out, t
}

func passMain(workload string, shard int, seed uint64, on bool, outdir string) int {
	out, t := runShard(workload, shard, seed, on)
	if on && outdir != "" {
		name := fmt.Sprintf("%s-seed%d-shard%d-pid%d.json", workload, seed, shard, os.Getpid())
		if err := t.writeSpans(outdir, name); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// merge adds shard s into the pass total o. Counts and times add up;
// the heap size is a high-water mark.
func (o *passOut) merge(s passOut) {
	if o.Digests == nil {
		o.Workload, o.Seed, o.Traced = s.Workload, s.Seed, s.Traced
		o.Digests, o.Det, o.Host = map[string]string{}, map[string]float64{}, map[string]float64{}
		o.Results = map[string]float64{}
		if s.Traced {
			o.SelfS = map[string]float64{}
		}
	}
	o.SetupS += s.SetupS
	o.WallS += s.WallS
	o.Ops += s.Ops
	o.Failed += s.Failed
	o.Problems = append(o.Problems, s.Problems...)
	for k, v := range s.Digests {
		o.Digests[k] = v
	}
	for k, v := range s.Det {
		o.Det[k] += v
	}
	for k, v := range s.Results {
		o.Results[k] = v
	}
	for k, v := range s.Host {
		if k == "rt.heap_sys_mb" {
			o.Host[k] = max(o.Host[k], v)
		} else {
			o.Host[k] += v
		}
	}
	for k, v := range s.SelfS {
		o.SelfS[k] += v
	}
}

// check counts, at the default seed, every digest that differs from
// its recorded value as a failure.
func (o *passOut) check(recorded map[string]string) {
	if o.Seed != defaultSeed {
		return
	}
	bad := checkDigests(o.Digests, recorded)
	for _, m := range bad {
		o.Problems = append(o.Problems, "digest "+m)
	}
	o.Failed += int64(len(bad))
}

// passRun is one pass with its resource use as the parent saw it.
type passRun struct {
	out      passOut
	cpuS     float64 // user + sys of the pass's processes
	rssMB    float64 // mean of their peak resident sets: the typical shard's footprint
	maxRSSMB float64 // the largest of them
	ref      refTime // the reference kernel's times just before an untraced pass
}

// child runs this binary with args and decodes its JSON output.
func child(ctx context.Context, into any, args ...string) (*syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), into); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("no rusage for %s", strings.Join(args, " "))
	}
	return ru, nil
}

// childPass runs one pass: every shard of the workload, one after
// another, each in a fresh process.
func childPass(ctx context.Context, workload string, seed uint64, traced bool, outdir string) (passRun, error) {
	var r passRun
	tr := "0"
	if traced {
		tr = "1"
	}
	for k := range workloads[workload].shards {
		var s passOut
		ru, err := child(ctx, &s, "-pass", "-workload", workload, "-shard", strconv.Itoa(k),
			"-seed", strconv.FormatUint(seed, 10), "-trace", tr, "-outdir", outdir)
		if err != nil {
			return r, err
		}
		r.out.merge(s)
		r.cpuS += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		rss := float64(ru.Maxrss) / 1024 // Linux reports KiB
		r.rssMB += rss / float64(len(workloads[workload].shards))
		r.maxRSSMB = max(r.maxRSSMB, rss)
	}
	if finish := workloads[workload].finish; finish != nil {
		finish(&r.out)
	}
	return r, nil
}

// drive runs passes in fresh processes, starting one only while it is
// expected to end within the run's seconds, and prints the result. A
// traced run alternates untraced and traced passes, so it can report
// the tracing overhead, and then runs the isolated layer
// microbenchmarks in one more process.
func drive(workload string, seed uint64, seconds int, traced bool, outdir string, recorded map[string]map[string]string) int {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	minPasses := 3
	if traced {
		minPasses = 4
	}
	start := time.Now()
	var runs []passRun
	var took []float64 // host seconds per pass, process start-up included
	for {
		paired := !traced || len(runs)%2 == 0
		if len(runs) >= minPasses && paired && time.Since(start).Seconds()+median(took) > float64(seconds) {
			break
		}
		begin := time.Now()
		tracedPass := traced && len(runs)%2 == 1
		var ref refTime
		if !tracedPass {
			if _, err := child(ctx, &ref, "-calibrate"); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: reference kernel: %v\n", err)
				return 1
			}
		}
		r, err := childPass(ctx, workload, seed, tracedPass, outdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass: %v\n", err)
			return 1
		}
		r.ref = ref
		took = append(took, time.Since(begin).Seconds())
		r.out.check(recorded[workload])
		runs = append(runs, r)
	}

	res, problems := aggregate(runs)
	if traced {
		var micro map[string]float64
		if _, err := child(ctx, &micro, "-micro", "-outdir", outdir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: microbenchmarks: %v\n", err)
			return 1
		}
		layer := perLayerValues(runs, micro)
		res.Metrics = nil
		res.fill(perLayer, layer)
		printLayers(runs, layer)
	}

	walls := make([]float64, len(runs))
	maxRSS := 0.0
	for i, r := range runs {
		walls[i] = r.out.WallS
		maxRSS = max(maxRSS, r.maxRSSMB)
	}
	info := map[string]any{
		"workload": workload, "seed": seed, "traced": traced, "passes": len(runs), "pass_wall_s": walls,
		"shards": len(workloads[workload].shards), "max_rss_mb": maxRSS,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"rack_domains": rackDomains, "rack_workers": bench.IntraRunWorkers(1, rackDomains), "cell_workers": 1,
		"raw": res.Raw,
	}
	line, _ := json.Marshal(map[string]any{"info": info}) // a map of plain values always marshals
	fmt.Println(string(line))
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", pr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// aggregate computes the end-to-end metrics from the untraced passes
// and checks that every pass reproduced the first one's digests and
// deterministic counts. Times are medians scaled to the reference
// kernel's speed (see refSeconds); res.Raw keeps them unscaled.
func aggregate(runs []passRun) (result, []string) {
	var res result
	var problems []string
	var wall, setup, cpu, rss, ref, refCPU []float64
	first := runs[0].out
	for i, r := range runs {
		res.Attempted += r.out.Ops
		res.Failed += r.out.Failed
		problems = append(problems, r.out.Problems...)
		if i > 0 {
			if d := diffMaps(first.Digests, r.out.Digests); d != "" {
				res.Failed++
				problems = append(problems, fmt.Sprintf("pass %d digests differ from pass 0: %s", i, d))
			}
			if d := diffMaps(first.Det, r.out.Det); d != "" {
				res.Failed++
				problems = append(problems, fmt.Sprintf("pass %d counts differ from pass 0: %s", i, d))
			}
		}
		if r.out.Traced {
			continue
		}
		wall = append(wall, r.out.WallS)
		setup = append(setup, r.out.SetupS)
		cpu = append(cpu, r.cpuS)
		rss = append(rss, r.rssMB)
		ref = append(ref, r.ref.Seconds)
		refCPU = append(refCPU, r.ref.CPUSeconds)
	}
	res.Correct = res.Failed == 0
	res.Raw = map[string]float64{
		"wall_s": median(wall), "setup_s": median(setup), "cpu_s": median(cpu),
		"ref_s": median(ref), "ref_cpu_s": median(refCPU),
	}
	wallScale := refSeconds / res.Raw["ref_s"]
	res.fill(endToEnd, map[string]float64{
		"wall_s":      res.Raw["wall_s"] * wallScale,
		"setup_s":     res.Raw["setup_s"] * wallScale,
		"cpu_s":       res.Raw["cpu_s"] * refCPUSeconds / res.Raw["ref_cpu_s"],
		"peak_rss_mb": median(rss),
	})
	return res, problems
}

// perLayerValues assembles the traced run's per-layer metrics.
func perLayerValues(runs []passRun, micro map[string]float64) map[string]float64 {
	det := runs[0].out.Det
	var tracedWall, plainWall []float64
	host := map[string][]float64{}
	for _, r := range runs {
		if !r.out.Traced {
			plainWall = append(plainWall, r.out.WallS)
			continue
		}
		tracedWall = append(tracedWall, r.out.WallS)
		for k, v := range r.out.Host {
			host[k] = append(host[k], v)
		}
	}
	out := map[string]float64{}
	for _, s := range perLayer {
		switch s.Src {
		case srcDet:
			out[s.Name] = det[s.Name]
		case srcHost:
			out[s.Name] = median(host[s.Name])
		case srcMicro:
			if v, ok := micro[s.Name]; ok {
				out[s.Name] = v
			}
		}
	}
	out["sim.events_per_io"] = ratio(det["sim.events"], det["sim.ios"])
	out["sim.ns_per_event"] = ratio(out["sim.run_s"]*1e9, det["sim.events"])
	out["trace.overhead_s"] = median(tracedWall) - median(plainWall)
	return out
}

// printLayers prints each per-layer metric with what it should move,
// and the median self time per layer over the traced passes.
func printLayers(runs []passRun, values map[string]float64) {
	for _, s := range perLayer {
		fmt.Printf("layer %-24s %16.6g %-9s -> %s\n", s.Name, values[s.Name], s.Unit, s.Moves)
	}
	self := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r.out.SelfS {
			self[k] = append(self[k], v)
		}
	}
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		fmt.Printf("self  %-24s %16.6f s (median over traced passes)\n", k, median(self[k]))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// diffMaps names the first few keys whose values differ.
func diffMaps[V comparable](a, b map[string]V) string {
	var diff []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	if len(diff) > 5 {
		diff = append(diff[:5], "...")
	}
	return strings.Join(diff, ", ")
}

// ---- digests ---------------------------------------------------------

func parseDigests(data []byte) (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return d, nil
}

// checkDigests compares a pass's digests with the recorded ones and
// describes every cell that differs, is missing, or was never recorded.
func checkDigests(got, want map[string]string) []string {
	var out []string
	for cell, w := range want {
		if g, ok := got[cell]; !ok {
			out = append(out, cell+": not produced")
		} else if g != w {
			out = append(out, fmt.Sprintf("%s: got %s, recorded %s", cell, g, w))
		}
	}
	for cell := range got {
		if _, ok := want[cell]; !ok {
			out = append(out, cell+": not recorded")
		}
	}
	sort.Strings(out)
	return out
}

// recordMain runs every workload once at the default seed and writes
// the digests.
func recordMain(path string) int {
	ctx, cancel := context.WithTimeout(context.Background(), 4*runBudget)
	defer cancel()
	all := map[string]map[string]string{}
	for _, w := range workloadNames() {
		r, err := childPass(ctx, w, defaultSeed, false, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if len(r.out.Problems) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed at the default seed: %s\n", w, strings.Join(r.out.Problems, "; "))
			return 1
		}
		all[w] = r.out.Digests
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
