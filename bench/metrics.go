package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// table for the driver; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the replay-and-serve pipeline
// sees. Every one is reported on every workload, from the untraced
// pass. README.md says what each means and how its bound was chosen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"answered_qps", "1/s", "higher", 0.25},
	{"answered_frac", "ratio", "higher", 0.002},
	{"sched_lag_p50_us", "us", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, named module.metric. They
// come from the traced pass and from direct calls into each layer over
// the workload's own inputs; none has a bound. A layer the workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{"trace.decode_ns_per_event", "ns", "lower", 0},
	{"trace.read_busy_frac", "ratio", "lower", 0},
	{"mutate.apply_ns_per_event", "ns", "lower", 0},
	{"replay.fabric_ns_per_query", "ns", "lower", 0},
	{"replay.timed_overhead_ns_per_query", "ns", "lower", 0},
	{"replay.pipeline_p50_us", "us", "lower", 0},
	{"replay.sched_lag_p75_us", "us", "lower", 0},
	{"replay.sched_lag_p99_us", "us", "lower", 0},
	{"replay.sched_lag_p999_us", "us", "lower", 0},
	{"replay.sched_lag_max_us", "us", "lower", 0},
	{"replay.latency_p90_us", "us", "lower", 0},
	{"replay.latency_p99_us", "us", "lower", 0},
	{"replay.latency_p999_us", "us", "lower", 0},
	{"replay.tail_samples", "count", "higher", 0},
	{"replay.loss_frac", "ratio", "lower", 0},
	{"replay.send_errors", "count", "lower", 0},
	{"replay.timeouts", "count", "lower", 0},
	{"replay.id_exhausted", "count", "lower", 0},
	{"replay.feed_stalls", "count", "lower", 0},
	{"replay.feed_late_max_us", "us", "lower", 0},
	{"replay.conn_reuse_ratio", "ratio", "higher", 0},
	{"replay.conns_opened", "count", "lower", 0},
	{"transport.udp_sendmmsg_ns_per_dgram", "ns", "lower", 0},
	{"transport.udp_recvmmsg_ns_per_dgram", "ns", "lower", 0},
	{"transport.conn_send_udp_ns", "ns", "lower", 0},
	{"transport.conn_send_tcp_ns", "ns", "lower", 0},
	{"transport.batch_fill_mean", "count", "higher", 0},
	{"server.handle_ns_per_query", "ns", "lower", 0},
	{"server.anscache_hit_ratio", "ratio", "higher", 0},
	{"server.service_p50_us", "us", "lower", 0},
	{"server.tcp_conns_open_peak", "count", "lower", 0},
	{"server.heap_kb_per_conn", "kB", "lower", 0},
	{"zone.parse_recs_per_s", "1/s", "higher", 0},
	{"zone.lookup_ns_per_query", "ns", "lower", 0},
	{"dnsmsg.unpack_ns_per_msg", "ns", "lower", 0},
	{"dnsmsg.pack_ns_per_msg", "ns", "lower", 0},
	{"resolver.resolve_us_per_query", "us", "lower", 0},
	{"resolver.upstream_per_stub", "count", "lower", 0},
	{"resolver.cache_hit_ratio", "ratio", "higher", 0},
	{"hierarchy.meta_handle_us_per_upstream", "us", "lower", 0},
	{"vnet.packets_per_stub", "count", "lower", 0},
	{"kernel.transit_p50_us", "us", "lower", 0},
	{"kernel.udp_rcvbuf_errors", "count", "lower", 0},
	{"kernel.softnet_dropped", "count", "lower", 0},
	{"kernel.sys_cpu_frac", "ratio", "lower", 0},
	{"runtime.cpu_us_per_query", "us", "lower", 0},
	{"runtime.allocs_per_query", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"bench.trace_samples", "count", "higher", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.budget_closure_frac", "ratio", "higher", 0},
}
