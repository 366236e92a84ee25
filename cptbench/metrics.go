package main

// metricDef names one reported metric. The same table is written down in
// BENCHMARK.json (a test keeps the two equal); bounds live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system feels. Every workload
// reports every one of them on an untraced run, and none of them is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
}

// perLayer are the single-layer metrics of a traced run, named after the
// repo's packages. A metric is 0 on a workload that does not exercise its
// layer.
var perLayer = []metricDef{
	{"tensor.matmul_f64_gflops", "GFLOP/s", "higher"},
	{"tensor.matvec_group_f32_gflops", "GFLOP/s", "higher"},
	{"tensor.gemm_f32_gflops", "GFLOP/s", "higher"},
	{"tensor.gemm_f32_asm", "count", "higher"},
	{"tensor.pool_items_per_poll", "count", "higher"},
	{"tensor.pool_empty_poll_share", "fraction", "lower"},

	{"cptgpt.train.epoch_s_p50", "s", "lower"},
	{"cptgpt.train.final_loss", "loss", "lower"},
	{"cptgpt.model_load_ms", "ms", "lower"},
	{"cptgpt.draft_fit_ms", "ms", "lower"},
	{"cptgpt.tokens_per_s", "1/s", "higher"},
	{"cptgpt.decode.steps", "count", "lower"},
	{"cptgpt.decode.slot_tokens", "count", "lower"},
	{"cptgpt.decode.slot_utilization", "fraction", "higher"},
	{"cptgpt.decode.step_busy_s", "s", "lower"},
	{"cptgpt.decode.step_p50_ms", "ms", "lower"},
	{"cptgpt.decode.step_p99_ms", "ms", "lower"},
	{"cptgpt.decode.draft_accept_share", "fraction", "higher"},
	{"cptgpt.decode.emitted_per_slot_token", "fraction", "higher"},
	{"cptgpt.step_ns_per_token", "ns", "lower"},
	{"cptgpt.stepk_ns_per_token", "ns", "lower"},

	{"statemachine.violation_rate", "fraction", "lower"},

	{"synthetic.source_us_per_ue", "us", "lower"},

	{"scenario.open_s", "s", "lower"},
	{"scenario.drain_s", "s", "lower"},
	{"scenario.source_busy_s", "s", "lower"},
	{"scenario.ops_busy_s", "s", "lower"},
	{"scenario.spill_busy_s", "s", "lower"},
	{"scenario.merge_s", "s", "lower"},
	{"scenario.merge_passes", "count", "lower"},
	{"scenario.sink_s", "s", "lower"},
	{"scenario.merge_amplification", "ratio", "lower"},
	{"scenario.spill_live_mb", "MB", "lower"},
	{"scenario.next_ns_per_event", "ns", "lower"},
	{"scenario.sink_ns_per_event", "ns", "lower"},
	{"scenario.pacer_lag_p50_ms", "ms", "lower"},
	{"scenario.pacer_lag_p99_ms", "ms", "lower"},
	{"scenario.pacer_wait_count", "count", "lower"},
	{"scenario.pacer_shed_events", "count", "lower"},

	{"runlog.appends", "count", "lower"},
	{"runlog.fsyncs", "count", "lower"},
	{"runlog.bytes", "bytes", "lower"},
	{"runlog.errors", "count", "lower"},
	{"runlog.append_busy_s", "s", "lower"},

	{"served.post_ms", "ms", "lower"},
	{"served.generate_s", "s", "lower"},
	{"served.stream_s", "s", "lower"},
	{"served.stats_get_p50_ms", "ms", "lower"},
	{"served.metrics_scrape_p50_ms", "ms", "lower"},
	{"served.api_p50_ms", "ms", "lower"},
	{"served.api_p90_ms", "ms", "lower"},
	{"served.metrics_bytes", "bytes", "lower"},
	{"served.sink_retries", "count", "lower"},

	{"replaynet.sent", "count", "higher"},
	{"replaynet.acked", "count", "higher"},
	{"replaynet.retransmits", "count", "lower"},
	{"replaynet.reconnects", "count", "lower"},
	{"replaynet.duplicates", "count", "lower"},
	{"replaynet.srtt_ms", "ms", "lower"},
	{"replaynet.final_cwnd", "count", "higher"},
	{"replaynet.ack_mean_ms", "ms", "lower"},
	{"replaynet.ack_p50_ms", "ms", "lower"},
	{"replaynet.ack_p99_ms", "ms", "lower"},
	{"replaynet.server_rejected_share", "fraction", "lower"},

	{"tracez.overhead_share", "fraction", "lower"},
	{"tracez.unattributed_share", "fraction", "lower"},

	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.cpu_s_per_mevent", "s/Mevent", "lower"},
	{"proc.cpu_user_s", "s", "lower"},
	{"proc.cpu_sys_s", "s", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_total_ms", "ms", "lower"},
	{"proc.heap_peak_mb", "MB", "lower"},
	{"proc.allocs_per_event", "count", "lower"},
	{"proc.alloc_bytes_per_event", "bytes", "lower"},

	{"bench.rounds", "count", "higher"},
	{"bench.failed_share", "fraction", "lower"},
}
