package main

// spec names one metric and its unit. BENCHMARK.json lists the same
// names with their direction and regression bound; bench_test.go holds
// the two lists together.
type spec struct{ name, unit string }

// endToEnd is what the timed pass reports, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"chunks_per_s", "1/s"},
	{"chunk_ms_p50", "ms"},
	{"chunk_ms_tail", "ms"},
	{"allocs_per_chunk", "count"},
	{"alloc_kb_per_chunk", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"deadline_met_share", "share"},
	{"wifi_byte_share", "share"},
	{"avg_level", "level"},
}

// perLayer is what the traced pass reports. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []spec{
	// What the pass's windows cost and delivered, in the issue's own
	// terms. These would be end-to-end metrics if every workload had them
	// (start-up) or if the host kept them still (CPU time).
	{"cpu_us_per_chunk", "us"},
	{"traced.cpu_us_per_chunk", "us"},
	{"failed_share", "share"},
	{"deadline_miss_rate", "share"},
	{"cellular_byte_share", "share"},
	{"swarm.startup_ms_p50", "ms"},
	{"swarm.startup_ms_p95", "ms"},

	{"netmp.fetch.ms_p50.small", "ms"},
	{"netmp.fetch.ms_p50.mid", "ms"},
	{"netmp.fetch.ms_p50.large", "ms"},
	{"netmp.fetch.idle_wait_ms_p50", "ms"},
	{"netmp.fetch.secondary_byte_share", "share"},
	{"netmp.fetch.retries_per_chunk", "count"},
	{"netmp.fetch.requeued_per_chunk", "count"},
	{"netmp.dial_ms", "ms"},
	{"netmp.request_render_ns", "ns"},
	{"netmp.bufpool.cycle_ns", "ns"},

	{"netmp.server.range_us.16k", "us"},
	{"netmp.server.range_allocs", "count"},
	{"netmp.server.manifest_us", "us"},
	{"netmp.server.peak_conns", "count"},

	{"netmp.edge.hit_us.16k", "us"},
	{"netmp.edge.hit_allocs", "count"},
	{"netmp.edge.miss_us", "us"},
	{"netmp.edge.origin_bytes_per_chunk", "B"},
	{"netmp.edge.fill_errors", "count"},

	{"cache.get_range_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.fetch_miss_ns", "ns"},
	{"cache.hit_rate", "share"},
	{"cache.fills_per_chunk", "count"},
	{"cache.evictions_per_chunk", "count"},
	{"cache.collapsed_per_chunk", "count"},
	{"cache.resident_mb", "MiB"},

	{"netmp.shaper.take_ns", "ns"},
	{"netmp.shaper.rate_error_share", "share"},
	{"netmp.wheel.afterfunc_ns", "ns"},
	{"netmp.wheel.fire_lag_us_p95", "us"},
	{"netmp.board.publish_ns", "ns"},

	{"netmp.stream.stalls_per_session", "count"},
	{"netmp.stream.rebuffer_ratio_mean", "share"},
	{"netmp.stream.lost_chunks", "count"},
	{"swarm.plan_ms", "ms"},
	{"swarm.queue_wait_ms_p95", "ms"},
	{"swarm.peak_concurrent", "count"},
	{"swarm.wall_s", "s"},
	{"swarm.miss_budget.segment", "share"},
	{"swarm.miss_budget.fetch", "share"},
	{"swarm.miss_budget.chunk", "share"},
	{"swarm.miss_budget.sched", "share"},
	{"swarm.miss_budget.stall", "share"},

	{"sim.event_ns", "ns"},
	{"core.tick_ns", "ns"},
	{"core.knapsack_ms", "ms"},
	{"core.slotsim_ns_per_slot", "ns"},
	{"predict.hw_observe_ns", "ns"},
	{"trace.location_gen_ms", "ms"},
	{"energy.session_us", "us"},
	{"harness.session_ms_p50", "ms"},
	{"stats.zipf_draw_ns", "ns"},

	{"obs.counter_add_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.journal_append_ns", "ns"},
	{"obs.trace_chunk_ns", "ns"},
	{"obs.trace_overhead_share", "share"},

	{"runtime.gc_cpu_share", "share"},
	{"runtime.heap_live_mb_peak", "MiB"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.sched_latency_us_p95", "us"},
	{"os.ctx_switches_per_chunk", "count"},
	// The yardstick's time over its time on the reference box with quiet
	// neighbours (hostspeed.go): what the pass's times should be read against.
	{"host.slowdown", "ratio"},

	{"ledger.attributed_us_per_chunk", "us"},
	{"ledger.residual_us_per_chunk", "us"},
}
