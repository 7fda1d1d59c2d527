package main

import "joshua/benchmark/report"

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units, directions and bounds (a test holds the two
// together); moves — which end-to-end metric a layer metric is
// expected to move, and where — lives only here and in README.md,
// because BENCHMARK.json's schema has no field for it.
type metricDef struct {
	report.MetricSpec
	moves string
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{MetricSpec: report.MetricSpec{Name: name, Unit: unit, Better: better, Bound: bound}}
}

func layer(name, unit, better, moves string) metricDef {
	return metricDef{MetricSpec: report.MetricSpec{Name: name, Unit: unit, Better: better}, moves: moves}
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and printed for every workload. Each has one definition
// per workload; README.md tabulates them. Bounds were calibrated from
// ten seeds per workload (README.md, "Bound calibration"). Capacity
// (closed-loop throughput) is not among them: on the two shared cores
// it is processor-bound and followed the host's speed by up to 45 %
// between identical runs, so it is reported as a client.* diagnostic
// for paired comparisons instead of gating.
var endToEnd = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("write_p50_ms", "ms", "lower", 0.15),
	e2e("focus_p50_ms", "ms", "lower", 0.20),
	e2e("allocs_per_op", "count", "lower", 0.05),
	e2e("heap_live_mb", "MB", "lower", 0.20),
}

// focusAlias names what focus_p50_ms is on each workload: the latency
// that workload exists to measure.
var focusAlias = map[string]string{
	"submit":    "write_loaded_p50_ms",
	"mixed":     "read_p50_ms",
	"lifecycle": "turnaround_p50_ms",
	"failover":  "outage_p50_ms",
}

const (
	lo = "lower"
	hi = "higher"
)

// perLayer are the metrics of single layers, printed by the traced
// run. Counts are differences of the layers' public counters across
// the traced workload; the rest come from drivers calling one layer's
// public API directly. None has a bound.
var perLayer = []metricDef{
	layer("codec.job_roundtrip_ns", "ns", lo, "allocs_per_op, client.throughput_ops_s on submit"),
	layer("codec.job_roundtrip_allocs", "count", lo, "allocs_per_op on submit"),

	layer("simnet.hop_overhead_us", "us", lo, "write_p50_ms and focus_p50_ms everywhere, times the hop count"),
	layer("simnet.msgs_per_op", "count", lo, "client.throughput_ops_s on submit and lifecycle"),
	layer("simnet.bytes_per_op", "B", lo, "client.throughput_ops_s on submit and lifecycle"),
	layer("simnet.dropped_full", "count", lo, "failed/attempted"),

	layer("tcpnet.rtt_p50_us", "us", lo, "none here: the deployment transport"),
	layer("tcpnet.send_ns", "ns", lo, "none here: the deployment transport"),

	layer("gcs.order_p50_ms", "ms", lo, "write_p50_ms on submit"),
	layer("gcs.order_sequencer_p50_ms", "ms", lo, "write_p50_ms on submit"),
	layer("gcs.broadcasts_per_s", "1/s", hi, "client.throughput_ops_s on submit"),
	layer("gcs.msgs_per_broadcast_idle", "count", lo, "write_p50_ms on submit"),
	layer("gcs.msgs_per_broadcast_loaded", "count", lo, "client.throughput_ops_s, client.write_loaded_p50_ms on submit"),
	layer("gcs.msgs_per_batch", "count", hi, "client.throughput_ops_s on submit; must not raise write_p50_ms"),
	layer("gcs.retransmits_per_kop", "count", lo, "failed/attempted, client.write_p99_ms"),
	layer("gcs.nacks_per_kop", "count", lo, "failed/attempted, client.write_p99_ms"),
	layer("gcs.view_change_ms", "ms", lo, "focus_p50_ms on failover"),
	layer("gcs.member_crash_outage_ms", "ms", lo, "focus_p50_ms on failover"),
	layer("gcs.flush_attempts_per_view", "count", lo, "focus_p50_ms on failover"),
	layer("gcs.lease_revocations", "count", lo, "focus_p50_ms on failover"),

	layer("wal.append_commit_p50_us", "us", lo, "write_p50_ms on submit"),
	layer("wal.append_commit_always_p50_us", "us", lo, "none: the disk floor under SyncPolicy=always"),
	layer("wal.appends_per_s", "1/s", hi, "client.throughput_ops_s on submit"),
	layer("wal.fsyncs_per_op", "count", lo, "client.throughput_ops_s on submit"),
	layer("wal.bytes_per_op", "B", lo, "client.throughput_ops_s on submit"),
	layer("wal.checkpoint_save_ms_per_mb", "ms/MB", lo, "client.throughput_ops_s late in submit"),
	layer("wal.replay_records_per_s", "1/s", hi, "rsm.rejoin_p50_ms on failover"),

	layer("rsm.put_p50_ms", "ms", lo, "write_p50_ms on submit (minus gcs.order_p50_ms = engine overhead)"),
	layer("rsm.puts_per_s", "1/s", hi, "client.throughput_ops_s on submit"),
	layer("rsm.puts_per_s_one_key", "1/s", hi, "client.throughput_ops_s on submit (serial apply)"),
	layer("rsm.get_p50_ms", "ms", lo, "focus_p50_ms on mixed"),
	layer("rsm.gets_per_s", "1/s", hi, "client.throughput_ops_s on mixed"),
	layer("rsm.apply_barrier_frac", "ratio", lo, "client.throughput_ops_s on submit and lifecycle"),
	layer("rsm.apply_parallel_runs", "count", hi, "client.throughput_ops_s on submit"),
	layer("rsm.dedup_hits", "count", lo, "failed/attempted on failover"),
	layer("rsm.reply_queue_drops", "count", lo, "failed/attempted"),
	layer("rsm.durability_lag_max_ms", "ms", lo, "client.write_p99_ms"),
	layer("rsm.fsync_overlap_frac", "ratio", hi, "write_p50_ms on submit"),
	layer("rsm.lease_hit_ratio", "ratio", hi, "focus_p50_ms on mixed"),
	layer("rsm.checkpoint_ms", "ms", lo, "client.throughput_ops_s late in submit"),
	layer("rsm.checkpoint_mb", "MB", lo, "rsm.checkpoint_ms"),
	layer("rsm.checkpoint_failures", "count", lo, "rsm.rejoin_p50_ms"),
	layer("rsm.transfer_delta", "count", hi, "rsm.rejoin_p50_ms on failover"),
	layer("rsm.transfer_hybrid", "count", lo, "rsm.rejoin_p50_ms on failover"),
	layer("rsm.transfer_full", "count", lo, "rsm.rejoin_p50_ms on failover"),
	layer("rsm.transfer_mb", "MB", lo, "rsm.rejoin_p50_ms on failover"),
	layer("rsm.recovery_replayed", "count", lo, "rsm.rejoin_p50_ms on failover"),
	layer("rsm.rejoin_p50_ms", "ms", lo, "how long failover runs on two heads; not seen by clients"),

	layer("pbs.submit_ns_q2k", "ns", lo, "client.throughput_ops_s on submit"),
	layer("pbs.submit_ns_q25k", "ns", lo, "client.throughput_ops_s on submit (does submit cost grow with the table?)"),
	layer("pbs.status_ns", "ns", lo, "focus_p50_ms on mixed"),
	layer("pbs.status_all_cached_us", "us", lo, "focus_p50_ms, client.throughput_ops_s on mixed"),
	layer("pbs.status_all_invalidated_us", "us", lo, "focus_p50_ms, client.throughput_ops_s on mixed"),
	layer("pbs.read_cache_hit_ratio", "ratio", hi, "focus_p50_ms, client.throughput_ops_s on mixed"),
	layer("pbs.sched_cycle_us_q100", "us", lo, "focus_p50_ms on lifecycle"),
	layer("pbs.sched_cycle_us_q3k", "us", lo, "client.throughput_ops_s on lifecycle"),
	layer("pbs.job_done_us", "us", lo, "client.throughput_ops_s on lifecycle"),
	layer("pbs.commands_per_job", "count", lo, "client.throughput_ops_s on lifecycle"),
	layer("pbs.executions_per_job", "ratio", lo, "none: exactly 1 unless a job launched twice"),
	layer("pbs.snapshot_divergent_heads", "count", lo, "none: heads whose raw Snapshot() differs from the first's; a violation except where jobs run"),
	layer("pbs.fork_us_q25k", "us", lo, "rsm.checkpoint_ms"),
	layer("pbs.snapshot_ms_q25k", "ms", lo, "rsm.checkpoint_ms, rsm.rejoin_p50_ms"),
	layer("pbs.restore_ms_q25k", "ms", lo, "rsm.rejoin_p50_ms"),

	layer("joshua.direct_submit_p50_us", "us", lo, "write_p50_ms on submit: the batch service alone"),
	layer("joshua.plain_submit_p50_ms", "ms", lo, "write_p50_ms on submit: plus wire and transport"),
	layer("joshua.heads1_submit_p50_ms", "ms", lo, "write_p50_ms on submit: plus engine, WAL, self-ordering"),
	layer("joshua.heads2_submit_p50_ms", "ms", lo, "write_p50_ms on submit: plus remote ordering"),
	layer("joshua.heads3_submit_p50_ms", "ms", lo, "write_p50_ms on submit: plus one more acknowledging head"),
	layer("joshua.heads4_submit_p50_ms", "ms", lo, "write_p50_ms on submit: plus one more acknowledging head"),
	layer("joshua.statall_reply_kb", "kB", lo, "focus_p50_ms on mixed"),
	layer("joshua.client_failover_ms", "ms", lo, "focus_p50_ms on failover"),

	layer("shard.route_job_ns", "ns", lo, "none on these single-shard workloads"),
	layer("shard.submits_per_s_2x2", "1/s", hi, "none on these single-shard workloads"),

	layer("cluster.boot_ms", "ms", lo, "setup_s"),

	layer("runtime.cpu_ms_per_op", "ms", lo, "client.write_loaded_p50_ms on submit, then client.throughput_ops_s: what most optimisations move first"),
	layer("runtime.gc_pause_ms", "ms", lo, "client.write_p99_ms, client.throughput_ops_s"),
	layer("runtime.num_gc", "count", lo, "client.throughput_ops_s"),

	layer("client.throughput_ops_s", "1/s", hi, "diagnostic: closed-loop capacity; processor-bound, so it follows the host's speed and gates nothing"),
	layer("client.write_loaded_p50_ms", "ms", lo, "is focus_p50_ms on submit"),
	layer("client.read_p50_ms", "ms", lo, "is focus_p50_ms on mixed"),
	layer("client.turnaround_p50_ms", "ms", lo, "is focus_p50_ms on lifecycle"),
	layer("client.outage_p50_ms", "ms", lo, "is focus_p50_ms on failover"),
	layer("client.write_p99_ms", "ms", lo, "diagnostic, never a gate"),
	layer("client.read_p99_ms", "ms", lo, "diagnostic, never a gate"),
	layer("client.turnaround_p99_ms", "ms", lo, "diagnostic, never a gate"),
	layer("client.write_max_ms", "ms", lo, "diagnostic, never a gate"),
	layer("client.outage_max_ms", "ms", lo, "diagnostic, never a gate"),
	layer("client.gen_late_max_ms", "ms", lo, "diagnostic: how late the generator ran"),
	layer("client.max_rate_ok_ops_s", "1/s", hi, "diagnostic: highest offered rate with p50 <= 25 ms and >= 98 % done"),
	layer("client.trace_overhead_frac", "ratio", lo, "diagnostic: traced over untraced write_p50_ms, minus 1"),
	layer("client.failed_frac", "ratio", lo, "failed/attempted"),
	layer("client.violations", "count", lo, "correct"),
}

// metricSet is the values of one run, keyed by metric name.
type metricSet map[string]report.Metric

func (m metricSet) set(name string, value float64, samples int) {
	m[name] = report.Metric{Value: value, Unit: unitOf(name), Samples: samples}
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

// unitOf panics on a name that is not in the tables: a metric nobody
// declared would silently be missing from BENCHMARK.json.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	return u
}
