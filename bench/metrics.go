package main

// metricDef is one row of the benchmark's metric table. The table below is
// the single source of names, units, directions and bounds: the runner
// emits exactly these, -compare judges with these bounds, and the smoke
// test checks BENCHMARK.json against them so the two cannot drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a value may worsen; 0 = ungated
}

// endToEnd lists the metrics a staging user sees. Every workload reports
// every one of them, and none is ever zero. The bounds are what this
// 2-core machine can resolve: its raw CPU throughput alone wanders by
// several percent between seconds-long windows, and a bound has to be at
// least three times the run-to-run spread (README, "How steady it is").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"step_ms", "ms", "lower", 0.25},
	{"storage_overhead", "ratio", "lower", 0.02},
	{"degraded_get_p50_ms", "ms", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.25},
}

// perLayer lists the ungated layer metrics of the traced pass, in the
// order the table prints them. The three p99s sit here, not above, because
// only small-mix holds the 1000 samples per window a p99 needs and an
// end-to-end metric must exist on every workload; they are pooled over the
// measured windows and bench.samples_per_window says how many back them.
var perLayer = []metricDef{
	{"put_p99_ms", "ms", "lower", 0},
	{"get_p99_ms", "ms", "lower", 0},
	{"degraded_get_p99_ms", "ms", "lower", 0},
	// recover_s sits here too: latency-bound and single-threaded, it follows
	// this machine's speed drift half again as strongly as throughput does,
	// and its run-to-run spread reached 0.30 in one of four ten-run sets,
	// above the largest bound an end-to-end metric may have.
	{"recover_s", "s", "lower", 0},

	{"corec.put_self_us", "us", "lower", 0},
	{"corec.get_self_us", "us", "lower", 0},
	{"corec.step_close_ms", "ms", "lower", 0},
	{"corec.retries_per_kop", "count", "lower", 0},
	{"corec.failovers", "count", "lower", 0},

	{"geometry.fitpartition_us", "us", "lower", 0},
	{"placement.primary_ns", "ns", "lower", 0},
	{"placement.dirshard_ns", "ns", "lower", 0},

	{"transport.encode_us", "us", "lower", 0},
	{"transport.decode_us", "us", "lower", 0},
	{"transport.put_roundtrip_us", "us", "lower", 0},
	{"transport.get_roundtrip_us", "us", "lower", 0},
	{"transport.small_roundtrip_us", "us", "lower", 0},
	{"transport.loopback_MBps", "MB/s", "higher", 0},
	{"transport.allocs_per_roundtrip", "count", "lower", 0},
	{"transport.phase_ms_per_op", "ms", "lower", 0},
	{"transport.pool_hit_rate", "ratio", "higher", 0},
	{"transport.mux_redials", "count", "lower", 0},

	{"server.handle_put_us", "us", "lower", 0},
	{"server.handle_get_us", "us", "lower", 0},
	{"server.handle_metaquery_us", "us", "lower", 0},
	{"server.endstep_ms", "ms", "lower", 0},
	{"server.encode_drain_ms", "ms", "lower", 0},
	{"server.metadata_phase_ms_per_op", "ms", "lower", 0},
	{"server.dir_entries", "count", "lower", 0},
	{"server.pending_encodes_max", "count", "lower", 0},
	{"server.demotions_per_step", "count", "lower", 0},
	{"server.promotions_per_step", "count", "lower", 0},
	{"server.encoded_share", "ratio", "higher", 0},

	{"classifier.recordwrite_ns", "ns", "lower", 0},
	{"classifier.classify_ns", "ns", "lower", 0},
	{"classifier.advance_us", "us", "lower", 0},
	{"policy.onput_ns", "ns", "lower", 0},
	{"classifier.phase_ms_per_step", "ms", "lower", 0},
	{"classifier.prediction_hit_rate", "ratio", "higher", 0},

	{"erasure.encode_MBps", "MB/s", "higher", 0},
	{"erasure.reconstruct_MBps", "MB/s", "higher", 0},
	{"erasure.decode_cache_hit_rate", "ratio", "higher", 0},
	{"matrix.invert_us", "us", "lower", 0},
	{"erasure.encode_phase_ms_per_step", "ms", "lower", 0},
	{"erasure.decode_phase_ms_per_op", "ms", "lower", 0},
	{"gf256.muladd_MBps", "MB/s", "higher", 0},

	{"storage.put_us", "us", "lower", 0},
	{"storage.get_mem_us", "us", "lower", 0},
	{"storage.get_disk_us", "us", "lower", 0},
	{"storage.cold_reads_share", "ratio", "lower", 0},
	{"storage.prefetch_hit_rate", "ratio", "higher", 0},
	{"storage.seq_get_p50_us", "us", "lower", 0},
	{"storage.rand_get_p50_us", "us", "lower", 0},
	{"storage.spills", "count", "lower", 0},
	{"storage.backpressure_stalls", "count", "lower", 0},
	{"storage.compactions", "count", "lower", 0},
	{"storage.disk_bytes_per_user_byte", "ratio", "lower", 0},

	{"recovery.objects_repaired", "count", "higher", 0},
	{"recovery.repair_MBps", "MB/s", "higher", 0},

	{"runtime.cpu_us_per_op", "us", "lower", 0},
	{"runtime.cpu_util", "ratio", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},

	{"bench.put_layer_sum_ratio", "ratio", "higher", 0},
	{"bench.get_layer_sum_ratio", "ratio", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.window_iqr_pct", "%", "lower", 0},
	{"bench.samples_per_window", "count", "higher", 0},
}

// measured is one reported value. For a median over the measured windows,
// Windows holds each window's value and IQR their inter-quartile spread;
// Samples is how many observations back the value (per window, the fewest).
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	IQR     float64   `json:"iqr,omitempty"`
	Samples int64     `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}
