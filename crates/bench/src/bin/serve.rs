//! Serving-loop reproduction: the suite's 8-day traces replayed over
//! **real loopback TCP** against the record-marked NFSv3 RPC server,
//! with every byte the clients and server exchange tapped into the
//! sniffer and live-ingested into segment stores — then the full
//! table/figure suite printed over those captured stores.
//!
//! Stdout is **byte-identical** to `repro --store` at the same
//! `NFSTRACE_SCALE` — the CI `serve-smoke` job `cmp`s exactly that —
//! because the serving loop is a section of the sniffer's canonical
//! flattening (`nfstrace_serve::reverse`): every record that goes out
//! as wire RPC comes back as the same record (the one normalized field
//! is the `vers` tag, which no suite product reads). Internally this
//! bin additionally asserts, per system:
//!
//! - every call the server saw was planned (`unplanned_calls == 0`)
//!   and every planned call was sent exactly once (no retransmissions
//!   on loopback);
//! - the tap's mirror dropped nothing and the sniffer matched every
//!   reply (`orphan_replies == 0`);
//! - the ingested record count equals the batch oracle's.
//!
//! Throughput and latency go to **stderr** (machine-greppable
//! `serve-loop:` lines): served calls/sec over the whole roundtrip,
//! replay RTT p50/p99, and server-side dispatch mean. The timed,
//! gated measurement of this loop is perfbench's `serve-campus` and
//! `serve-eecs` workloads (`BENCHMARK.json`, `perfbench/README.md`).
//!
//! With `--metrics <path>` the loop — server, replay clients, sniffer
//! source, and ingest daemons — reports into one shared telemetry
//! [`Registry`], exported as JSON lines to `<path>` (plus Prometheus
//! text to `<path>.prom`) and dumped once to stderr at exit; stdout is
//! untouched either way.
//!
//! Usage: `serve [--dir <dir>] [--connections <n>] [--metrics <path>]
//! [--metrics-interval <secs>]` (default: a per-process temp dir,
//! removed on success; 2 connections per system; no metrics export).

use nfstrace_bench::pipeline::{Bin, OrExit, Run};
use nfstrace_bench::suite::suite_text;
use nfstrace_core::index::TraceView;
use nfstrace_serve::{serve_roundtrip, ReplayOptions, ReplayPlan};
use nfstrace_store::StoreIndex;
use nfstrace_telemetry::Registry;
use std::path::Path;
use std::time::Instant;

/// Serves one system's plan and asserts the loop's internal contracts.
/// Returns the roundtrip wall-clock seconds.
fn serve_system(
    name: &str,
    plan: &ReplayPlan,
    options: &ReplayOptions,
    registry: &Registry,
    dir: &Path,
) -> f64 {
    let total = plan.calls.len() as u64;
    let call_bytes: usize = plan.calls.iter().map(|c| c.call_bytes.len()).sum();
    let reply_bytes: usize = plan
        .calls
        .iter()
        .filter_map(|c| c.reply_bytes.as_ref().map(|r| r.len()))
        .sum();
    eprintln!(
        "  {name}: plan {total} calls ({:.1} MiB calls, {:.1} MiB replies)",
        call_bytes as f64 / (1 << 20) as f64,
        reply_bytes as f64 / (1 << 20) as f64,
    );
    let t = Instant::now();
    let outcome = serve_roundtrip(plan, options, registry, dir)
        .or_exit(&format!("{name}: serve roundtrip failed"));
    let roundtrip_s = t.elapsed().as_secs_f64();
    assert_eq!(outcome.unplanned_calls, 0, "{name}: unplanned calls");
    assert_eq!(
        outcome.replay.retransmits, 0,
        "{name}: loopback replay must not retransmit"
    );
    assert_eq!(outcome.replay.calls_sent, total, "{name}: calls sent");
    assert_eq!(
        outcome.summary.total_records, total,
        "{name}: ingested records"
    );
    assert_eq!(outcome.mirror.dropped, 0, "{name}: mirror drops");
    let stats = outcome.sniffer.expect("sniffer stats after exhaustion");
    assert_eq!(stats.calls, total, "{name}: sniffed calls");
    assert_eq!(stats.orphan_replies, 0, "{name}: orphan replies");
    assert_eq!(stats.decode_errors, 0, "{name}: decode errors");
    eprintln!(
        "  {name}: {total} calls served and captured in {roundtrip_s:.2}s \
         ({:.0} calls/s roundtrip), {} segments",
        total as f64 / roundtrip_s.max(1e-9),
        outcome.summary.segments,
    );
    roundtrip_s
}

fn main() {
    let run = Run::start(Bin::Serve);
    let oracle = run.batch_oracle();

    // Compile both traces into replay plans (records → wire RPC).
    eprintln!("compiling replay plans ...");
    let systems = [("CAMPUS", &oracle.0), ("EECS", &oracle.1)];
    let plans = systems.map(|(_, batch)| ReplayPlan::from_stream(batch));

    // The loop under test: serve, replay, tap, sniff, live-ingest.
    let connections = run.args.connections;
    let options = ReplayOptions {
        connections,
        ..ReplayOptions::default()
    };
    eprintln!("serving both traces over loopback TCP ({connections} connections each) ...");
    let dirs = systems.map(|(name, _)| run.dir.join(format!("{}-served", name.to_lowercase())));
    let mut roundtrip_s = 0.0;
    for (((name, _), plan), dir) in systems.iter().zip(&plans).zip(&dirs) {
        roundtrip_s += serve_system(name, plan, &options, &run.registry, dir);
    }

    // The loop's own telemetry.
    let calls = run.registry.counter("serve.calls").value();
    let rtt = run.registry.histogram("replay.rtt_micros").snapshot();
    let dispatch = run.registry.histogram("serve.dispatch_micros").snapshot();
    assert!(calls > 0, "the server dispatched nothing");
    assert_eq!(
        calls,
        plans.iter().map(|p| p.calls.len() as u64).sum::<u64>(),
        "every planned call must reach the server exactly once"
    );
    assert_eq!(run.registry.counter("replay.retransmits").value(), 0);
    eprintln!(
        "serve-loop: calls={calls} roundtrip_s={roundtrip_s:.2} calls_per_s={:.0} \
         rtt_p50_us={} rtt_p99_us={} dispatch_mean_us={:.1} connections={connections}",
        calls as f64 / roundtrip_s.max(1e-9),
        rtt.percentile(0.5),
        rtt.percentile(0.99),
        dispatch.mean(),
    );

    // The captured stores, each holding every batch record.
    let [campus_c, eecs_c] = dirs.map(|dir| {
        StoreIndex::open_dir_with_registry(&dir, &run.registry)
            .or_exit(&format!("open captured segments {}", dir.display()))
    });
    assert_eq!(TraceView::len(&campus_c), TraceView::len(&oracle.0));
    assert_eq!(TraceView::len(&eecs_c), TraceView::len(&oracle.1));
    eprintln!("running the suite over the captured stores ...");
    let served_text = suite_text(&campus_c, &eecs_c);
    run.finish(&served_text, &oracle);
}
