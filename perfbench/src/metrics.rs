//! Every metric the benchmark reports, with its unit and direction —
//! the single source `--spec` renders `BENCHMARK.json` from and the
//! result line is checked against.

/// An end-to-end metric: what a user of the pipeline sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric from the traced run (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_record",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "store_bytes_per_record",
        unit: "B/record",
        better: "lower",
        bound: 0.2,
    },
];

macro_rules! per_layer {
    ($(($name:literal, $unit:literal, $better:literal)),* $(,)?) => {
        &[$(PerLayer { name: $name, unit: $unit, better: $better }),*]
    };
}

pub const PER_LAYER: &[PerLayer] = per_layer![
    ("workload.gen_s", "s", "lower"),
    ("workload.records", "count", "higher"),
    ("workload.records_per_s", "1/s", "higher"),
    ("core.index_s", "s", "lower"),
    ("core.replay_s", "s", "lower"),
    ("core.replay_passes", "count", "lower"),
    ("tables.table1_s", "s", "lower"),
    ("tables.table2_s", "s", "lower"),
    ("tables.table3_s", "s", "lower"),
    ("tables.table4_s", "s", "lower"),
    ("tables.table5_s", "s", "lower"),
    ("tables.fig1_s", "s", "lower"),
    ("tables.fig2_s", "s", "lower"),
    ("tables.fig3_s", "s", "lower"),
    ("tables.fig4_s", "s", "lower"),
    ("tables.fig5_s", "s", "lower"),
    ("tables.names_s", "s", "lower"),
    ("tables.hierarchy_s", "s", "lower"),
    ("tables.total_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.chunks_decoded", "count", "lower"),
    ("store.chunks_written", "count", "lower"),
    ("store.bytes_on_disk", "B", "lower"),
    ("store.compression_ratio", "x", "higher"),
    ("live.ingest_s", "s", "lower"),
    ("live.shard_skew", "x", "lower"),
    ("live.snapshot_s", "s", "lower"),
    ("live.finish_s", "s", "lower"),
    ("live.segments_sealed", "count", "lower"),
    ("live.peak_hot_records", "count", "lower"),
    ("serve.plan_s", "s", "lower"),
    ("serve.replay_s", "s", "lower"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.dispatch_calls", "count", "higher"),
    ("serve.dispatch_mean_us", "us", "lower"),
    ("serve.tap_frame_s", "s", "lower"),
    ("serve.tap_mib", "MiB", "lower"),
    ("serve.retransmits", "count", "lower"),
    ("serve.unplanned_calls", "count", "lower"),
    ("serve.rtt_p50_us", "us", "lower"),
    ("serve.rtt_p99_us", "us", "lower"),
    ("sniffer.capture_s", "s", "lower"),
    ("sniffer.frames", "count", "higher"),
    ("sniffer.records", "count", "higher"),
    ("sniffer.orphan_replies", "count", "lower"),
    ("sniffer.decode_errors", "count", "lower"),
    ("net.mirror_s", "s", "lower"),
    ("net.packets", "count", "higher"),
    ("bench.wall_s", "s", "lower"),
    ("bench.records_per_s", "1/s", "higher"),
    ("bench.ingest_records_per_s", "1/s", "higher"),
    ("bench.query_s", "s", "lower"),
    ("bench.peak_rss_mb", "MB", "lower"),
    ("bench.ingest_cpu_us_per_record", "us", "lower"),
    ("bench.query_cpu_us_per_record", "us", "lower"),
    ("bench.coverage_pct", "%", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.speedup_threads", "x", "higher"),
    ("bench.wall_1thread_s", "s", "lower"),
    ("bench.wall_nproc_s", "s", "lower"),
];

/// The unit of a metric by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
