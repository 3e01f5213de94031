package main

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs. An operation is the workload's unit of service: a fleet
// epoch Step, a replay of one recorded campaign, or one SelectSector
// call. Latency is the 1st percentile: on a shared host the slower
// operations mostly time the host's interference, and the median and
// tail moved by more than any usable bound between runs of one commit.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p1", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"selection_loss_db_mean", "dB", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"eval.platform_build_s", "s", "lower"},
	{"core.dict_build_s", "s", "lower"},
	{"eval.record_s", "s", "lower"},
	{"fleet.arrive_s", "s", "lower"},
	{"fleet.warmup_s", "s", "lower"},
	{"fleet.recovery_s", "s", "lower"},
	{"fleet.recovery_trainings", "count", "higher"},

	{"core.batch_s", "s", "lower"},
	{"core.batch_calls", "count", "higher"},
	{"core.batch_items", "count", "higher"},
	{"core.us_per_batch_item", "us", "lower"},
	{"core.quant_batch_tiles", "count", "lower"},
	{"core.warm_hints", "count", "higher"},
	{"core.warm_hits", "count", "higher"},
	{"core.warm_fallbacks", "count", "lower"},
	{"core.warm_hit_frac", "ratio", "higher"},
	{"core.full_search_frac", "ratio", "lower"},
	{"core.degenerate", "count", "lower"},
	{"core.select_s", "s", "lower"},
	{"core.select_us_p999", "us", "lower"},

	{"fleet.step_s", "s", "lower"},
	{"fleet.step_self_s", "s", "lower"},
	{"fleet.self_ns_per_station", "ns", "lower"},
	{"fleet.self_us_per_training", "us", "lower"},
	{"fleet.dispatch_s", "s", "lower"},
	{"fleet.events", "count", "higher"},
	{"fleet.queue_drops", "count", "lower"},
	{"fleet.trainings", "count", "higher"},
	{"fleet.retrains", "count", "higher"},
	{"fleet.select_failures", "count", "lower"},
	{"fleet.fallbacks", "count", "lower"},
	{"fleet.degrades", "count", "lower"},
	{"fleet.pending_max", "count", "lower"},
	{"fleet.p50_drift_ratio", "ratio", "lower"},

	{"tracestore.decode_s", "s", "lower"},
	{"tracestore.bytes", "B", "lower"},
	{"tracestore.records", "count", "higher"},
	{"eval.replay_pass_s", "s", "lower"},

	{"process.cpu_s", "s", "lower"},
	{"process.cpu_util", "ratio", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},

	// The median and tail latency of the window's untraced operations and
	// the window's throughput: too noisy on a shared host for a regression
	// bound, so they are reported here without one.
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"selections_per_s", "1/s", "higher"},
}
