package main

// The metric catalogue: every name the benchmark emits, with its
// unit. BENCHMARK.json at the repository root lists the same names
// (catalog_test.go keeps the two in step). Plain runs (--trace 0)
// emit every end-to-end metric; traced runs (--trace 1) emit every
// per-layer metric. A metric a workload has no path for is emitted as
// 0 in the per-layer set and documented as n/a in README.md; every
// end-to-end metric exists on every workload.

type metricDef struct {
	name string
	unit string
}

// Freshness is reported as its median only: on the shelf 10–20% of the
// windows are slowed by a GC mark phase or by a window that closed
// just before them, and that share moves from run to run. Over 10
// seeds the IQR/median of p95 was about 0.3, of p90 0.22 and of the
// mean 0.17, against 0.10 for the median and at most 0.25 for any
// bound. The log line of the freshness distribution gives p90 and
// p95; traced runs give each hop's p95.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"windows_per_s", "1/s"},
	{"fresh_p50_ms", "ms"},
	{"cpu_ms_per_window", "ms"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "frac"},
	{"loc_err_mean_m", "m"},
	{"orient_err_mean_deg", "deg"},
}

var perLayer = []metricDef{
	// Front end, from the rfprism.WithTracer stage spans (mean per
	// window).
	{"preprocess.spectra_ms", "ms"},
	{"fit.line_ms", "ms"},
	{"rfprism.select_ms", "ms"},
	{"rfprism.detector_ms", "ms"},
	// Solver.
	{"core.solve_ms_p50", "ms"},
	{"core.solve_ms_p95", "ms"},
	{"rfprism.window_ms_p50", "ms"},
	{"rfprism.window_ms_p95", "ms"},
	{"rfprism.pool_busy_frac", "frac"},
	{"core.solve2d_p1_ms", "ms"},
	{"core.solve2d_pN_ms", "ms"},
	// Solver fast path, from System.SolveStats and window outcomes.
	{"rfprism.cache_hit_ratio", "frac"},
	{"rfprism.warm_fallback_ratio", "frac"},
	{"rfprism.rejected", "count"},
	// Ingest and router.
	{"router.post_ms_p50", "ms"},
	{"router.post_ms_p95", "ms"},
	{"ingest.post_ms_p50", "ms"},
	{"ingest.post_ms_p95", "ms"},
	{"ingest.handoff_ms_p50", "ms"},
	{"ingest.handoff_ms_p95", "ms"},
	{"router.fanout_ratio", "ratio"},
	{"router.retries", "count"},
	{"ingest.backpressured", "count"},
	{"ingest.queue_depth_max", "count"},
	{"api.bytes_per_report", "B"},
	// Serving tier.
	{"serve.frame_ms_p50", "ms"},
	{"serve.frame_ms_p95", "ms"},
	{"serve.swaps_per_s", "1/s"},
	{"serve.read_ms_p50", "ms"},
	{"serve.read_ms_p95", "ms"},
	// Per-window hops: handoff + process + frame = freshness.
	{"hop.process_ms_p50", "ms"},
	{"hop.process_ms_p95", "ms"},
	{"hop.sum_err_max_ms", "ms"},
	// Go runtime.
	{"go.gc_cpu_frac", "frac"},
	{"go.alloc_mb_per_window", "MB"},
	// Harness validity and tracing overhead.
	{"bench.gen_late_p95_ms", "ms"},
	{"trace.overhead_cpu_frac", "frac"},
	{"trace.overhead_fresh_p50_frac", "frac"},
}
