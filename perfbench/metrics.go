package main

// metricDef names one reported metric and its unit. The two lists below
// are the contract BENCHMARK.json publishes; metrics_test.go holds them
// equal.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the solver or of bhserve sees. Every
// workload reports every one (README.md gives the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p99", "ms"},
	{"create_ms_p50", "ms"},
	{"requests_per_s", "1/s"},
	{"recover_s", "s"},
	{"force_err_rms", "ratio"},
	{"peak_rss_mb", "MB"},
}

// levelNames are the simulate-ladder levels, in the paper's order.
var levelNames = []string{"baseline", "scalars", "redistribute", "cache", "merged", "async", "subspace"}

// perLayer is what the traced run reports. A workload that never calls a
// layer reports that layer's metrics as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"octree.build_ms", "ms"},
		{"octree.force_ms", "ms"},
		{"octree.force_ns_per_interaction", "ns"},
		{"octree.interactions", "count"},
		{"octree.bytes_per_interaction", "B"},

		{"core.tree_ms", "ms"},
		{"core.partition_ms", "ms"},
		{"core.redist_ms", "ms"},
		{"core.force_ms", "ms"},
		{"core.advance_ms", "ms"},
		{"core.step_overhead_ms", "ms"},
		{"core.parallel_eff", "ratio"},
	}
	for _, l := range levelNames {
		defs = append(defs, metricDef{"core.level_s." + l, "s"})
	}
	defs = append(defs, []metricDef{
		{"core.snapshot_ms", "ms"},
		{"core.snapshot_meta_ms", "ms"},
		{"core.checkpoint_ms", "ms"},
		{"core.checkpoint_bytes", "B"},
		{"core.restore_ms", "ms"},

		{"upc.handoffs", "count"},
		{"upc.spin_yields", "count"},
		{"upc.messages", "count"},
		{"upc.message_bytes", "B"},
		{"upc.ns_per_message", "ns"},

		{"arena.read_ms", "ms"},

		{"store.put_ms_p50", "ms"},
		{"store.put_ms_p99", "ms"},
		{"store.newest_all_ms", "ms"},
		{"store.persisted_ratio", "ratio"},
		{"store.failed", "count"},

		{"serve.overhead_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.rejected", "count"},
		{"serve.queue_max", "count"},
		{"serve.snapshots_dropped", "count"},

		{"go.alloc_bytes_per_step", "B"},
		{"go.gc_pause_ms", "ms"},
	}...)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_ms." + l, "ms"})
	}
	defs = append(defs, metricDef{"trace.overhead_pct", "%"})
	return defs
}()

// zeroLayerMetrics presets every per-layer metric to 0 so that a
// workload reports only what its layers did and the rest reads as no
// work.
func zeroLayerMetrics(out *outcome) {
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			out.set(m.name, m.unit, 0)
		}
	}
}
