package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// root of the repository lists the same names, units, directions and
// bounds; the smoke test checks that the two agree.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics of the untraced run. The ninth figure,
// failed ops over attempted ops, travels as the result's "failed" and
// "attempted": it is 0 at the seed commit and any rise is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"msgs_per_op", "1", "lower", 0.001},
}

// perLayer are the metrics of the traced run, layer = module name. A
// metric a workload does not exercise (a query span on a workload that
// never queries, a socket counter on the simulator) reads 0 there.
var perLayer = []metricDef{
	{name: "wire.encode_ns_token1", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_token1", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_token1", unit: "count", better: "lower"},
	{name: "wire.bytes_token1", unit: "B", better: "lower"},
	{name: "wire.encode_ns_token32", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_token32", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_token32", unit: "count", better: "lower"},
	{name: "wire.bytes_token32", unit: "B", better: "lower"},
	{name: "wire.encode_ns_reply1000", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_reply1000", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_reply1000", unit: "count", better: "lower"},
	{name: "wire.bytes_reply1000", unit: "B", better: "lower"},

	{name: "runtime.udp_floor_rtt_us", unit: "us", better: "lower"},
	{name: "runtime.do_rtt_idle_us", unit: "us", better: "lower"},
	{name: "runtime.do_rtt_loaded_us", unit: "us", better: "lower"},
	{name: "runtime.datagrams_per_op", unit: "1", better: "lower"},
	{name: "runtime.relayed_per_op", unit: "1", better: "lower"},
	{name: "runtime.dup_dropped", unit: "count", better: "lower"},
	{name: "runtime.drops_total", unit: "count", better: "lower"},

	{name: "core.rounds_per_op", unit: "1", better: "lower"},
	{name: "core.ops_per_round", unit: "1", better: "higher"},
	{name: "core.token_hops_per_op", unit: "1", better: "lower"},
	{name: "core.notify_hops_per_op", unit: "1", better: "lower"},
	{name: "core.repairs", unit: "count", better: "lower"},
	{name: "core.sim_virtual_ms_per_op", unit: "ms", better: "lower"},

	{name: "service.submit_us_p50", unit: "us", better: "lower"},
	{name: "service.commit_wait_us_p50", unit: "us", better: "lower"},
	{name: "service.settle_us_p50", unit: "us", better: "lower"},
	{name: "service.query_tms_us_p50", unit: "us", better: "lower"},
	{name: "service.query_bms_us_p50", unit: "us", better: "lower"},
	{name: "service.query_busy_share", unit: "1", better: "lower"},
	{name: "service.watch_fanout_us_per_sub", unit: "us", better: "lower"},
	{name: "service.events_dropped", unit: "count", better: "lower"},
	{name: "service.writer_late_us_p99", unit: "us", better: "lower"},

	{name: "cluster.open_group_ms", unit: "ms", better: "lower"},
	{name: "cluster.heap_kb_per_group", unit: "KB", better: "lower"},
	{name: "cluster.shard_imbalance", unit: "1", better: "lower"},

	{name: "discovery.gossip_frames_per_s", unit: "1/s", better: "lower"},
	{name: "discovery.peer_evictions", unit: "count", better: "lower"},

	{name: "telemetry.scrape_ms", unit: "ms", better: "lower"},
	{name: "telemetry.scrape_bytes", unit: "B", better: "lower"},

	{name: "des.ns_per_event", unit: "ns", better: "lower"},
	{name: "des.allocs_per_event", unit: "count", better: "lower"},

	{name: "go.mallocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "go.goroutines_peak", unit: "count", better: "lower"},
	{name: "go.heap_growth_kb_per_kop", unit: "KB", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.unattributed_us", unit: "us", better: "lower"},
}
