//! The repository benchmark: times the pipeline's loops end to end and,
//! in a separate traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --spec            # prints BENCHMARK.json
//! ```
//!
//! `--trace 0` sets up three times, then repeats timed passes for
//! `--seconds` and prints every end-to-end metric as the median over
//! passes. `--trace 1` alternates plain and traced passes for
//! `--seconds`, repeats one traced pass at one thread, prints the
//! per-layer table and coverage, and reports every per-layer metric.
//! Each pass's output is checked against the byte-identity contract;
//! the last stdout line is the JSON result. `--tiny` shrinks the inputs
//! and `--corrupt` damages every output before it is checked (both for
//! the self-check); `--work <dir>` sets the scratch directory.

mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{layer_table, write_spans, Profile, Tracer};
use workloads::{pass, setup, PassOut, Prepared, Settings, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// The thread, shard and connection count never exceeds this, so the
/// workloads keep their shape on larger machines.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
    work: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--tiny] [--corrupt] [--work <dir>] | --spec",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut corrupt) = (false, false);
    let mut work = PathBuf::from(".bench_work");
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--work" => work = PathBuf::from(value()),
            "--tiny" => tiny = true,
            "--corrupt" => corrupt = true,
            "--spec" => {
                print!("{}", spec());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Args {
            workload,
            seed,
            seconds,
            trace,
            tiny,
            corrupt,
            work,
        },
        _ => usage(),
    }
}

/// `BENCHMARK.json`, rendered from the metric and workload tables.
fn spec() -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('"', "\\\""));
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name()), q(w.why())))
        .collect();
    let e2e: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better),
                m.bound
            )
        })
        .collect();
    let layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": 15,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n")
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Starts a fresh peak-RSS window: hands freed heap back to the kernel
/// (so one pass's garbage does not count toward the next), then writes
/// 5 to `clear_refs`, which resets `VmHWM` to the current RSS. Returns
/// false where the reset is refused.
fn reset_peak_rss() -> bool {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_kb() -> u64 {
    nfstrace_bench::suite::peak_rss_kb().unwrap_or(0)
}

fn set_threads(s: &mut Settings, threads: usize) {
    s.threads = threads;
    std::env::set_var("NFSTRACE_THREADS", threads.to_string());
}

fn settings(a: &Args) -> Settings {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    let mut s = Settings {
        seed: a.seed,
        threads,
        scale: if a.tiny { 0.05 } else { 0.3 },
        serve_scale: if a.tiny { 0.1 } else { 1.0 },
        serve_calls: match (a.tiny, a.workload) {
            (true, _) => 2_000,
            (false, Workload::ServeCampus) => 24_000,
            (false, _) => 30_000,
        },
        work: a
            .work
            .join(format!("{}-{}", a.workload.name(), std::process::id())),
        corrupt: a.corrupt,
    };
    set_threads(&mut s, threads);
    s
}

/// The JSON result line.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = metrics::unit_of(name).expect("metric is declared");
            // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

fn print_metrics(metrics: &[(&str, f64)]) {
    for (name, v) in metrics {
        let v = *v + 0.0;
        println!(
            "  {name:<28} {v:>16.6} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
}

/// One plain pass in a fresh peak-RSS window; returns the pass and its
/// peak RSS in MB.
fn plain_pass(a: &Args, s: &Settings, prepared: &Prepared, n: usize) -> (PassOut, f64) {
    if !reset_peak_rss() && n == 0 {
        eprintln!("warning: cannot reset VmHWM; peak RSS includes earlier passes");
    }
    let out = pass(a.workload, s, prepared, None, n);
    let rss_mb = peak_rss_kb() as f64 / 1024.0;
    eprintln!(
        "pass {n}: wall {:.4} s, cpu {:.4} s, rss {rss_mb:.1} MB, ingest {:.4} s, query {:.4} s, \
         {} records",
        out.wall_s, out.cpu_s, out.ingest_s, out.query_s, out.records
    );
    (out, rss_mb)
}

fn records(o: &PassOut) -> f64 {
    o.records.max(1) as f64
}

/// Medians over plain passes of the wall-clock and memory figures.
/// They swing with the host's load, so they are reported, not gated:
/// `--trace 1` emits them as `bench.*` metrics.
fn plain_figures(passes: &[(PassOut, f64)]) -> Vec<(&'static str, f64)> {
    let m = |f: &dyn Fn(&(PassOut, f64)) -> f64| median(passes.iter().map(f).collect());
    vec![
        ("bench.wall_s", m(&|(o, _)| o.wall_s)),
        (
            "bench.records_per_s",
            m(&|(o, _)| records(o) / o.wall_s.max(1e-9)),
        ),
        (
            "bench.ingest_records_per_s",
            m(&|(o, _)| records(o) / o.ingest_s.max(1e-9)),
        ),
        ("bench.query_s", m(&|(o, _)| o.query_s)),
        ("bench.peak_rss_mb", m(&|(_, rss)| *rss)),
        (
            "bench.ingest_cpu_us_per_record",
            m(&|(o, _)| 1e6 * o.ingest_cpu_s / records(o)),
        ),
        (
            "bench.query_cpu_us_per_record",
            m(&|(o, _)| 1e6 * (o.cpu_s - o.ingest_cpu_s) / records(o)),
        ),
    ]
}

/// Sums attempted and failed operations over `outs`, plus one check
/// that every pass printed the same output.
fn tally<'a>(outs: impl Iterator<Item = &'a PassOut>) -> (u64, u64, u64) {
    let (mut attempted, mut failed) = (1, 0);
    let mut digests = std::collections::BTreeSet::new();
    for o in outs {
        attempted += o.tally.attempted;
        failed += o.tally.failed;
        digests.insert(o.digest);
    }
    failed += u64::from(digests.len() != 1);
    let digest = digests.into_iter().next().unwrap_or(0);
    (attempted, failed, digest)
}

fn run_plain(a: &Args, s: &Settings) -> (u64, u64, Vec<(&'static str, f64)>) {
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(a.workload, s, None));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set up at least once");

    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut passes: Vec<(PassOut, f64)> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        passes.push(plain_pass(a, s, &prepared, passes.len()));
    }
    let (attempted, failed, digest) = tally(passes.iter().map(|(o, _)| o));
    println!(
        "{} seed {}: {} passes, output digest {digest:016x}, {} threads",
        a.workload.name(),
        a.seed,
        passes.len(),
        s.threads
    );
    println!("reported, not gated (wall clock and memory swing with host load):");
    print_metrics(&plain_figures(&passes));
    let m = |f: &dyn Fn(&PassOut) -> f64| median(passes.iter().map(|(o, _)| f(o)).collect());
    let metrics = vec![
        ("setup_s", median(setup_s)),
        ("cpu_us_per_record", m(&|o| 1e6 * o.cpu_s / records(o))),
        (
            "store_bytes_per_record",
            m(&|o| o.store_bytes as f64 / records(o)),
        ),
    ];
    (attempted, failed, metrics)
}

/// One traced pass: the pass itself, its spans, and its profile.
struct Traced {
    out: PassOut,
    profile: Profile,
    spans: Vec<trace::Span>,
}

fn traced_pass(a: &Args, s: &Settings, prepared: &Prepared, n: usize) -> Traced {
    // Same heap state as a plain pass, so the tracing overhead compares
    // like with like.
    reset_peak_rss();
    let tracer = Arc::new(Tracer::default());
    let out = pass(a.workload, s, prepared, Some(&tracer), n);
    let spans = tracer.spans();
    Traced {
        out,
        profile: Profile::from_spans(&spans),
        spans,
    }
}

/// The per-layer metrics of one traced pass (`setup` profiles the
/// set-up, where the serve workloads generate and plan).
fn layer_metrics(w: Workload, t: &Traced, setup: &Profile) -> BTreeMap<&'static str, f64> {
    let p = &t.profile;
    let c = |k: &str| t.out.counters.get(k).copied().unwrap_or(0.0);
    let serve = matches!(w, Workload::ServeCampus | Workload::ServeEecs);
    let gen_s = if serve {
        setup.layer("workload").1
    } else {
        p.layer("workload").1
    };
    let dispatch_s = p.secs("serve", "NfsService::serve");
    let dispatch_n = p.calls("serve", "NfsService::serve");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("workload.gen_s", gen_s);
    m.insert("workload.records", t.out.records as f64);
    m.insert(
        "workload.records_per_s",
        if gen_s > 0.0 {
            t.out.records as f64 / gen_s
        } else {
            0.0
        },
    );
    m.insert(
        "core.index_s",
        p.secs("core", "TraceIndex::new") + p.secs("core", "time_window"),
    );
    m.insert("core.replay_s", p.secs("core", "prepare"));
    m.insert("core.replay_passes", c("core.replay_passes"));
    for (key, entry) in [
        ("tables.table1_s", "table1"),
        ("tables.table2_s", "table2"),
        ("tables.table3_s", "table3"),
        ("tables.table4_s", "table4"),
        ("tables.table5_s", "table5"),
        ("tables.fig1_s", "fig1"),
        ("tables.fig2_s", "fig2"),
        ("tables.fig3_s", "fig3"),
        ("tables.fig4_s", "fig4"),
        ("tables.fig5_s", "fig5"),
        ("tables.names_s", "names"),
        ("tables.hierarchy_s", "hierarchy"),
    ] {
        m.insert(key, p.secs("tables", entry));
    }
    m.insert("tables.total_s", p.layer("tables").1);
    m.insert(
        "store.open_s",
        p.secs("store", "ShardedLiveIngest::open") + p.secs("store", "StoreIndex::open_dir"),
    );
    for k in [
        "store.chunks_decoded",
        "store.chunks_written",
        "store.compression_ratio",
        "live.shard_skew",
        "live.segments_sealed",
        "live.peak_hot_records",
        "serve.tap_mib",
        "serve.retransmits",
        "serve.unplanned_calls",
        "serve.rtt_p50_us",
        "serve.rtt_p99_us",
        "sniffer.frames",
        "sniffer.records",
        "sniffer.orphan_replies",
        "sniffer.decode_errors",
        "net.packets",
    ] {
        m.insert(k, c(k));
    }
    m.insert("store.bytes_on_disk", t.out.store_bytes as f64);
    m.insert(
        "live.ingest_s",
        p.secs("live", "ShardedLiveIngest::ingest_batch") + p.secs("live", "LiveIngest::run"),
    );
    m.insert("live.snapshot_s", p.secs("live", "ShardedLiveIngest::view"));
    m.insert(
        "live.finish_s",
        p.secs("live", "ShardedLiveIngest::finish") + p.secs("live", "LiveIngest::finish"),
    );
    m.insert(
        "serve.plan_s",
        setup.secs("serve", "ReplayPlan::from_stream"),
    );
    m.insert("serve.replay_s", p.secs("serve", "replay"));
    m.insert("serve.dispatch_s", dispatch_s);
    m.insert("serve.dispatch_calls", dispatch_n as f64);
    m.insert(
        "serve.dispatch_mean_us",
        if dispatch_n > 0 {
            1e6 * dispatch_s / dispatch_n as f64
        } else {
            0.0
        },
    );
    m.insert("serve.tap_frame_s", p.secs("serve", "tap_to_packets"));
    m.insert("sniffer.capture_s", p.layer("sniffer").1);
    m.insert("net.mirror_s", p.layer("net.mirror").1);
    m.insert(
        "bench.coverage_pct",
        100.0 * p.total_secs() / t.out.wall_s.max(1e-12),
    );
    m
}

fn run_traced(a: &Args, s: &mut Settings) -> (u64, u64, Vec<(&'static str, f64)>) {
    let setup_tracer = Tracer::default();
    let prepared = setup(a.workload, s, Some(&setup_tracer));
    let setup_profile = Profile::from_spans(&setup_tracer.spans());
    let nproc = s.threads;

    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut plain: Vec<(PassOut, f64)> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        plain.push(plain_pass(a, s, &prepared, 2 * traced.len()));
        traced.push(traced_pass(a, s, &prepared, 2 * traced.len() + 1));
    }
    set_threads(s, 1);
    let single = traced_pass(a, s, &prepared, 2 * traced.len());
    set_threads(s, nproc);

    // The traced passes must print exactly what the plain ones printed.
    let (attempted, failed, _) = tally(
        plain
            .iter()
            .map(|(o, _)| o)
            .chain(traced.iter().map(|t| &t.out))
            .chain([&single.out]),
    );

    let per_pass: Vec<BTreeMap<&'static str, f64>> = traced
        .iter()
        .map(|t| layer_metrics(a.workload, t, &setup_profile))
        .collect();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let figures = plain_figures(&plain);
    let wall_plain = median(plain.iter().map(|(o, _)| o.wall_s).collect());
    let wall_traced = median(traced.iter().map(|t| t.out.wall_s).collect());
    for d in metrics::PER_LAYER {
        let v = match d.name {
            "bench.trace_overhead_pct" => {
                100.0 * (wall_traced - wall_plain) / wall_plain.max(1e-12)
            }
            "bench.speedup_threads" => single.out.wall_s / wall_traced.max(1e-12),
            "bench.wall_1thread_s" => single.out.wall_s,
            "bench.wall_nproc_s" => wall_traced,
            name => match figures.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => *v,
                None => median(per_pass.iter().map(|m| m[name]).collect()),
            },
        };
        metrics.push((d.name, v));
    }

    let mid = &traced[traced.len() / 2];
    println!(
        "{} seed {}: {} plain + {} traced passes, output digest {:016x}",
        a.workload.name(),
        a.seed,
        plain.len(),
        traced.len(),
        mid.out.digest
    );
    if matches!(a.workload, Workload::ServeCampus | Workload::ServeEecs) {
        let setup_wall = setup_profile.total_secs();
        print!(
            "{}",
            layer_table("set-up (traced)", &setup_profile, setup_wall)
        );
    }
    print!(
        "{}",
        layer_table(
            &format!(
                "timed pass at {nproc} threads: wall {:.4} s",
                mid.out.wall_s
            ),
            &mid.profile,
            mid.out.wall_s
        )
    );
    print!(
        "{}",
        layer_table(
            &format!("timed pass at 1 thread: wall {:.4} s", single.out.wall_s),
            &single.profile,
            single.out.wall_s
        )
    );
    let coverage = metrics
        .iter()
        .find(|(n, _)| *n == "bench.coverage_pct")
        .map_or(0.0, |(_, v)| *v);
    println!(
        "coverage {coverage:.2}% of traced wall{}",
        if coverage < 90.0 {
            " (below 90%: finding)"
        } else {
            ""
        }
    );
    let spans_path =
        a.work
            .join("traces")
            .join(format!("{}-seed{}.jsonl", a.workload.name(), a.seed));
    match write_spans(&spans_path, &mid.spans) {
        Ok(()) => println!("spans written to {}", spans_path.display()),
        Err(e) => eprintln!("warning: cannot write spans: {e}"),
    }
    (attempted, failed, metrics)
}

fn main() {
    let a = parse_args();
    let mut s = settings(&a);
    let (attempted, failed, metrics) = if a.trace {
        run_traced(&a, &mut s)
    } else {
        run_plain(&a, &s)
    };
    std::fs::remove_dir_all(&s.work).ok();
    print_metrics(&metrics);
    println!("{}", result_line(attempted, failed, &metrics));
}
