package main

// metricDef names one metric the benchmark prints. BENCHMARK.json repeats
// the names and units and adds the regression bounds;
// TestContractMatchesTables keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// exact marks a count that must repeat exactly for the same seed: it
	// is a property of the inputs and the code, not of the machine.
	exact bool
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, from a run with tracing off.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ckpt_p50_ms", unit: "ms"},
	{name: "ckpt_p90_ms", unit: "ms"},
	{name: "recovery_p50_ms", unit: "ms"},
	{name: "state_mb_per_s", unit: "MB/s", higher: true},
	{name: "write_amp", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayerMetrics are <module>.<metric>, all from the traced run. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayerMetrics = []metricDef{
	{name: "rangeset.equal_ns", unit: "ns"},
	{name: "rangeset.intersect_ns", unit: "ns"},
	{name: "dist.build_us", unit: "us"},

	{name: "array.assign_cold_ms", unit: "ms"},
	{name: "array.assign_warm_mb_s", unit: "MB/s", higher: true},
	{name: "array.pack_mb_s", unit: "MB/s", higher: true},
	{name: "array.plan_hits_per_cycle", unit: "count", higher: true, exact: true},
	{name: "array.plan_misses_per_cycle", unit: "count", exact: true},
	{name: "array.remote_bytes_per_ckpt", unit: "bytes", exact: true},

	{name: "msg.allreduce_us", unit: "us"},
	{name: "msg.alltoall_mb_s", unit: "MB/s", higher: true},
	{name: "msg.ops_per_ckpt", unit: "count", exact: true},
	{name: "msg.bytes_per_ckpt", unit: "bytes", exact: true},
	{name: "msg.recv_wait_ms_per_ckpt", unit: "ms"},
	{name: "msg.epoch_swap_us", unit: "us"},

	{name: "stream.write_mb_s", unit: "MB/s", higher: true},
	{name: "stream.read_mb_s", unit: "MB/s", higher: true},
	{name: "stream.read_reconf_mb_s", unit: "MB/s", higher: true},
	{name: "stream.pieces_per_ckpt", unit: "count", exact: true},
	{name: "stream.section_sums_ms", unit: "ms"},
	{name: "stream.plan_hits_per_cycle", unit: "count", higher: true, exact: true},
	{name: "stream.plan_misses_per_cycle", unit: "count", exact: true},

	{name: "codec.encode_mb_s", unit: "MB/s", higher: true},
	{name: "codec.decode_mb_s", unit: "MB/s", higher: true},
	{name: "codec.ratio", unit: "ratio", exact: true},
	{name: "seg.encode_us", unit: "us"},
	{name: "seg.bytes", unit: "bytes", exact: true},

	{name: "pfs.write_mb_s", unit: "MB/s", higher: true},
	{name: "pfs.read_mb_s", unit: "MB/s", higher: true},
	{name: "pfs.ops_per_ckpt", unit: "count", exact: true},
	{name: "pfs.bytes_written_per_ckpt", unit: "bytes", exact: true},
	{name: "pfs.ops_per_restore", unit: "count", exact: true},
	{name: "pfs.bytes_read_per_restore", unit: "bytes", exact: true},

	{name: "ckpt.write_ms", unit: "ms"},
	{name: "ckpt.read_ms", unit: "ms"},
	{name: "ckpt.read_partial_ms", unit: "ms"},
	{name: "ckpt.resolve_verified_ms", unit: "ms"},
	{name: "ckpt.read_meta_us", unit: "us"},
	{name: "ckpt.meta_bytes", unit: "bytes", exact: true},
	{name: "ckpt.stored_bytes_per_ckpt", unit: "bytes", exact: true},
	{name: "ckpt.skipped_bytes_per_ckpt", unit: "bytes", exact: true},
	{name: "ckpt.tier_mem_bytes_per_restore", unit: "bytes", higher: true, exact: true},
	{name: "ckpt.tier_pfs_bytes_per_restore", unit: "bytes", exact: true},
	{name: "ckpt.tier_resident_mb", unit: "MB"},
	{name: "ckpt.state_commit_ms", unit: "ms"},

	{name: "drms.launch_ms", unit: "ms"},
	{name: "drms.ckpt_cold_ms", unit: "ms"},
	{name: "drms.sop_self_ms", unit: "ms"},
	{name: "drms.restore_self_ms", unit: "ms"},

	{name: "coord.detect_ms", unit: "ms"},
	{name: "coord.relaunch_ms", unit: "ms"},
	{name: "coord.restore_ms", unit: "ms"},
	{name: "coord.launch_ms", unit: "ms"},
	{name: "coord.open_app_us", unit: "us"},
	{name: "coord.checkpoint_app_us", unit: "us"},
	{name: "coord.sync_state_ms", unit: "ms"},
	{name: "coord.state_bytes_per_commit", unit: "bytes"},
	{name: "coord.control_rtt_us", unit: "us"},
	{name: "coord.rc_recover_ms", unit: "ms"},

	{name: "obs.series", unit: "count"},
	{name: "obs.render_ms", unit: "ms"},
	{name: "obs.trace_overhead_pct", unit: "%"},

	{name: "proc.alloc_mb_per_cycle", unit: "MB"},
	{name: "proc.mallocs_per_cycle", unit: "count"},
	{name: "proc.gc_per_cycle", unit: "count"},
	{name: "proc.cpu_s_per_cycle", unit: "s"},
}

// metricTable is the set a run of the given mode reports.
func metricTable(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}
