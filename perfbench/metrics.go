package main

// metricSpec declares one reported metric. The same lists appear in
// the repository's BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps
// the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string // per-layer metrics: the end-to-end metric it should move · the workload
	Src    string // per-layer metrics: srcDet, srcHost, srcMicro or srcDerived
}

// Sources of per-layer values.
const (
	srcDet     = "det"     // deterministic count from the passes; must repeat exactly
	srcHost    = "host"    // host time or runtime delta, median over traced passes
	srcMicro   = "micro"   // isolated layer microbenchmark, once per traced run
	srcDerived = "derived" // computed from the others
)

// endToEnd are reported by every untraced run, as the median over the
// run's passes (one pass = the workload's cells once, in fresh
// processes); times are scaled to the reference kernel's speed.
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are reported by every traced run. A layer idle on a
// workload reports a zero count there (shard and ether outside the
// rack, for example).
var perLayer = []metricSpec{
	{"sim.events", "count", "lower", "wall_s · rack_alltoall", srcDet},
	{"sim.fused", "count", "higher", "wall_s · rack_alltoall", srcDet},
	{"sim.handler_dispatches", "count", "higher", "wall_s · rack_alltoall", srcDet},
	{"sim.handoffs", "count", "lower", "wall_s, cpu_s · rack_alltoall", srcDet},
	{"sim.events_per_io", "events/io", "lower", "wall_s · paper_cells", srcDerived},
	{"sim.run_s", "s", "lower", "wall_s · all", srcHost},
	{"sim.ns_per_event", "ns", "lower", "wall_s · all", srcDerived},
	{"sim.schedule_ns", "ns", "lower", "wall_s · rack_alltoall", srcMicro},
	{"sim.park_resume_ns", "ns", "lower", "wall_s · rack_alltoall", srcMicro},
	{"sim.handler_ns", "ns", "lower", "wall_s · rack_alltoall", srcMicro},
	{"shard.windows", "count", "lower", "wall_s, cpu_s · rack_alltoall", srcDet},
	{"shard.par_windows", "count", "higher", "wall_s, cpu_s · rack_alltoall", srcDet},
	{"shard.cross_frames", "count", "lower", "wall_s, cpu_s · rack_alltoall", srcDet},
	{"ether.frames", "count", "lower", "wall_s · rack_alltoall", srcDet},
	{"ether.wire_bytes", "bytes", "lower", "wall_s · rack_alltoall", srcDet},
	{"ether.drops", "count", "lower", "ops failed · rack_alltoall", srcDet},
	{"nic.tx_frames", "count", "lower", "wall_s · paper_cells, rack_alltoall", srcDet},
	{"nic.rx_frames", "count", "lower", "wall_s · paper_cells, rack_alltoall", srcDet},
	{"nic.rx_errors", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"nic.seg_frames", "count", "higher", "wall_s · paper_cells", srcDet},
	{"nic.tx_replays", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"nic.echo_ns", "ns", "lower", "wall_s · paper_cells", srcMicro},
	{"nic.bulk_ns", "ns", "lower", "wall_s, cpu_s · paper_cells", srcMicro},
	{"nic.bulk_allocs", "allocs/op", "lower", "wall_s, cpu_s · paper_cells", srcMicro},
	{"pcie.p2p_bytes", "bytes", "lower", "wall_s · paper_cells", srcDet},
	{"pcie.host_bytes", "bytes", "lower", "wall_s · paper_cells", srcDet},
	{"pcie.dma_ns", "ns", "lower", "wall_s · paper_cells", srcMicro},
	{"nvme.cmds", "count", "lower", "wall_s · paper_cells, fault_matrix", srcDet},
	{"nvme.read_bytes", "bytes", "lower", "wall_s · paper_cells, fault_matrix", srcDet},
	{"nvme.write_bytes", "bytes", "lower", "wall_s · paper_cells, fault_matrix", srcDet},
	{"nvme.read_ns", "ns", "lower", "wall_s · paper_cells, fault_matrix", srcMicro},
	{"hdc.cmds", "count", "lower", "wall_s · paper_cells", srcDet},
	{"hdc.sb_issued", "count", "lower", "wall_s · paper_cells", srcDet},
	{"hdc.gather_ns", "ns", "lower", "wall_s · paper_cells", srcMicro},
	{"hdc.retries", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"hdc.timeouts", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"ndp.invocations", "count", "lower", "wall_s · paper_cells", srcDet},
	{"ndp.bytes", "bytes", "lower", "wall_s · paper_cells", srcDet},
	{"core.build_s", "s", "lower", "setup_s · rack_alltoall", srcHost},
	{"core.fallbacks", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"core.host_nvme_retries", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"apps.prepare_s", "s", "lower", "setup_s · paper_cells", srcHost},
	{"apps.requests", "count", "higher", "ops · paper_cells, fault_matrix", srcDet},
	{"apps.errors", "count", "lower", "ops failed · fault_matrix", srcDet},
	{"apps.paper_err_pct", "%", "lower", "accuracy · paper_cells", srcDet},
	{"snap.bytes", "bytes", "lower", "none · isolated microbenchmark; no workload snapshots", srcMicro},
	{"snap.warm_s", "s", "lower", "none · isolated microbenchmark; no workload snapshots", srcMicro},
	{"snap.save_s", "s", "lower", "none · isolated microbenchmark; no workload snapshots", srcMicro},
	{"snap.restore_s", "s", "lower", "none · isolated microbenchmark; no workload snapshots", srcMicro},
	{"mem.region_bytes", "bytes", "lower", "peak_rss_mb · rack_alltoall", srcDet},
	{"mem.copy_ns", "ns", "lower", "wall_s · paper_cells", srcMicro},
	{"mem.read_into_ns", "ns", "lower", "wall_s · paper_cells", srcMicro},
	{"fault.injected", "count", "higher", "ops failed · fault_matrix", srcDet},
	{"rt.alloc_bytes", "bytes", "lower", "peak_rss_mb, wall_s · rack_alltoall", srcHost},
	{"rt.mallocs", "count", "lower", "wall_s · rack_alltoall", srcHost},
	{"rt.gc_cycles", "count", "lower", "cpu_s · rack_alltoall", srcHost},
	{"rt.gc_pause_s", "s", "lower", "wall_s · rack_alltoall", srcHost},
	{"rt.minor_faults", "count", "lower", "wall_s (sys share) · rack_alltoall", srcHost},
	{"rt.heap_sys_mb", "MB", "lower", "peak_rss_mb · rack_alltoall", srcHost},
	{"trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s · all", srcDerived},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Raw holds the end-to-end times before scaling, and the reference
	// kernel's median time; the info line prints them.
	Raw map[string]float64 `json:"-"`
}

// fill copies the named values into r.Metrics with their declared
// units; a declared metric missing from values is a bug in the
// aggregation and panics.
func (r *result) fill(specs []metricSpec, values map[string]float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			panic("perfbench: metric " + s.Name + " was not measured")
		}
		r.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
}
