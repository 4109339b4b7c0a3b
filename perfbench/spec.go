package main

// metricSpec describes one reported metric. BENCHMARK.json at the root of
// the repository lists the same names, units and directions; the test
// TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metrics it
	// should move and on which workload: the prediction a change to that
	// layer is checked against.
	Moves []target
}

type target struct{ Metric, Workload string }

// endToEnd are the metrics a caller of core.Join sees, measured with
// tracing off. A failed join is carried by the result's "failed" and
// "attempted" fields rather than by a metric: the run exits non-zero on
// any failure, so a printed failure fraction would always read 0. The
// simulated I/O cost is a per-layer metric (diskio.cost_units) because it
// is 0 on la-inmem and an end-to-end metric must never be 0; it reaches
// the end-to-end figures through sim_total_s_p50.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "join_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "first_pair_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pairs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_total_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_join", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. Per-phase times that some
// workload skips by design are shares rather than seconds, so that no
// time metric reads a structural 0 on every run: PBSM's partition phase
// (absent on la-inmem) as a share of its CPU time, its repartition spans
// (absent on both LA workloads) as a share of the traced join's span
// self time.
var perLayer = []metricSpec{
	{Name: "pbsm.partition_cpu_frac", Unit: "frac", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "la-pbsm"}, {"join_s_p50", "la-pbsm"}}},
	{Name: "pbsm.join_cpu_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"join_s_p50", "la-inmem"}}},
	{Name: "pbsm.partitions", Unit: "count", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}}},
	{Name: "pbsm.replication", Unit: "ratio", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "la-pbsm"}, {"join_s_p50", "la-pbsm"}}},
	{Name: "pbsm.repartitions", Unit: "count", Better: "lower",
		Moves: []target{{"join_s_p50", "gauss-skew"}, {"sim_total_s_p50", "gauss-skew"}}},
	{Name: "pbsm.repartition_frac", Unit: "frac", Better: "lower",
		Moves: []target{{"join_s_p50", "gauss-skew"}}},
	{Name: "pbsm.raw_per_result", Unit: "ratio", Better: "lower",
		Moves: []target{{"join_s_p50", "gauss-skew"}, {"sim_total_s_p50", "gauss-skew"}}},

	{Name: "s3j.partition_cpu_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},
	{Name: "s3j.sort_cpu_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},
	{Name: "s3j.join_cpu_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}, {"pairs_per_s", "cal-s3j"}}},
	{Name: "s3j.sort_runs", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "cal-s3j"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "s3j.merge_passes", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "cal-s3j"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "s3j.max_resident_bytes", Unit: "bytes", Better: "lower",
		Moves: []target{{"alloc_mb_per_join", "cal-s3j"}, {"max_rss_mb", "cal-s3j"}}},

	{Name: "extsort.sort_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},
	{Name: "extsort.runs", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "cal-s3j"}}},
	{Name: "extsort.merge_passes", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "cal-s3j"}}},
	{Name: "extsort.comparisons", Unit: "count", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},

	{Name: "sweep.tests_per_result", Unit: "ratio", Better: "lower",
		Moves: []target{{"join_s_p50", "la-inmem"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "sweep.ns_per_test", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "la-inmem"}, {"join_s_p50", "cal-s3j"}, {"pairs_per_s", "gauss-skew"}}},

	{Name: "diskio.cost_units", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "la-pbsm"}, {"sim_total_s_p50", "cal-s3j"}}},
	{Name: "diskio.read_requests", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "la-pbsm"}, {"sim_total_s_p50", "cal-s3j"}}},
	{Name: "diskio.write_requests", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "la-pbsm"}, {"sim_total_s_p50", "cal-s3j"}}},
	{Name: "diskio.pages_read", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "la-pbsm"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "diskio.pages_written", Unit: "count", Better: "lower",
		Moves: []target{{"sim_total_s_p50", "la-pbsm"}, {"alloc_mb_per_join", "cal-s3j"}}},

	{Name: "recfile.write_ns_per_rec", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"alloc_mb_per_join", "cal-s3j"}}},
	{Name: "recfile.read_ns_per_rec", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "geom.kpe_encode_ns", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "geom.kpe_decode_ns", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"join_s_p50", "cal-s3j"}}},
	{Name: "sfc.level_ns", Unit: "ns", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},
	{Name: "sched.collector_ns_per_pair", Unit: "ns", Better: "lower",
		Moves: []target{{"pairs_per_s", "gauss-skew"}}},

	// Self times of the phase spans the trace.Recorder already records,
	// summed per span name over one join (parallel spans add up, so a sum
	// can exceed the join's wall time). Spans some workload never opens are
	// left out: PBSM's partition span and its parallel pair-worker spans are
	// absent on la-inmem, whose partition cost is pbsm.partition_cpu_frac.
	{Name: "trace.pbsm.root.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}}},
	{Name: "trace.pbsm.join.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}, {"join_s_p50", "la-inmem"}, {"pairs_per_s", "gauss-skew"}}},
	{Name: "trace.s3j.root.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}}},
	{Name: "trace.s3j.partition.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "cal-s3j"}}},
	{Name: "trace.s3j.sort-level.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "cal-s3j"}}},
	{Name: "trace.s3j.extsort.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "cal-s3j"}}},
	{Name: "trace.s3j.run-formation.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"first_pair_s_p50", "cal-s3j"}}},
	{Name: "trace.s3j.join.self_s", Unit: "s", Better: "lower",
		Moves: []target{{"join_s_p50", "cal-s3j"}, {"pairs_per_s", "cal-s3j"}}},
	// The traced joins' median wall time over the untraced ones', minus
	// one. Tracing is off in the end-to-end run, so this moves no
	// end-to-end metric unless instrumentation leaks into the nil path.
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower",
		Moves: []target{{"join_s_p50", "la-pbsm"}}},
}
