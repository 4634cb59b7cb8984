//! The four workloads: set-up, one timed pass (plain or traced), and
//! the check of each pass's output against the byte-identity contract.

use crate::trace::Tracer;
use nfstrace_bench::{scenarios, suite::suite_text, tables};
use nfstrace_core::index::{RecordStream, ReplayRequest, TraceIndex, TraceView};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{
    LiveConfig, LiveIngest, RecordSource, ShardedLiveIngest, SlicedWorkloadSource, SnifferSource,
};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorVerdict};
use nfstrace_net::pcap::CapturedPacket;
use nfstrace_serve::{
    replay, serve_roundtrip, tap_to_packets, NfsService, NfsTcpServer, Pacing, ReplayOptions,
    ReplayPlan, ReplayService,
};
use nfstrace_store::{Compression, StoreConfig, StoreIndex, StoreWriter};
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusWorkload, EecsWorkload, SlicedWorkload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Simulated time per generation slice on the sharded-ingest path.
const SLICE_MICROS: u64 = 6 * HOUR;
/// Packets per sniffer batch, as in `serve_roundtrip`.
const PACKETS_PER_BATCH: usize = 512;
/// In-flight window per replay connection.
const WINDOW: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchMem,
    IngestSharded,
    ServeCampus,
    ServeEecs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchMem,
        Workload::IngestSharded,
        Workload::ServeCampus,
        Workload::ServeEecs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchMem => "batch-mem",
            Workload::IngestSharded => "ingest-sharded",
            Workload::ServeCampus => "serve-campus",
            Workload::ServeEecs => "serve-eecs",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchMem => {
                "in-memory repro shape: generation, TraceIndex, fused replay, 12 suite artifacts; \
                 store, live and serve do no work here"
            }
            Workload::IngestSharded => {
                "sliced generation into nproc-shard live ingest with a snapshot per batch, then \
                 the suite over the sealed catalog: store encode/decode, rotation, sharding"
            }
            Workload::ServeCampus => {
                "24k CAMPUS calls from Monday 9am through the closed serve loop (2 conns, \
                 window 32, afap): large reads, the per-byte replay, tap, sniff and ingest path"
            }
            Workload::ServeEecs => {
                "30k EECS calls from Monday 9am through the same loop: small metadata calls, \
                 the per-call dispatch, syscall and wakeup path"
            }
        }
    }
}

/// Input sizes and knobs for one run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Worker threads, ingest shards, and replay connections.
    pub threads: usize,
    /// Population scale of the eight-day suite traces.
    pub scale: f64,
    /// Population scale of the served traces, and how many calls of
    /// the trace are served: the workload is sized by trace length.
    pub serve_scale: f64,
    pub serve_calls: usize,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Test hook: damage every pass's output before it is checked.
    pub corrupt: bool,
}

impl Settings {
    fn campus_seed(&self) -> u64 {
        self.seed
    }

    fn eecs_seed(&self) -> u64 {
        self.seed.wrapping_add(1_000_003)
    }
}

/// Attempted and failed operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One check that should read zero: a count of failed operations.
    fn zero(&mut self, failed: u64) {
        self.failed += failed;
    }

    /// Output lines compared against the oracle text, line by line.
    fn lines(&mut self, expected: &str, got: &str) {
        let e: Vec<&str> = expected.lines().collect();
        let g: Vec<&str> = got.lines().collect();
        let n = e.len().max(g.len());
        let bad = (0..n).filter(|&i| e.get(i) != g.get(i)).count();
        self.add(e.len() as u64, bad as u64);
    }
}

/// What set-up leaves for the timed passes.
pub enum Prepared {
    /// The suite oracle over the eight-day pair: its text and record
    /// count, and the bytes on disk of its store (`batch-mem` only).
    Suite {
        text: String,
        records: u64,
        store_bytes: u64,
    },
    /// One system compiled to a replay plan, plus the record stream the
    /// capture must reproduce (`vers` normalized, as the wire re-tags
    /// every call v3).
    Serve {
        plan: ReplayPlan,
        expected: Vec<TraceRecord>,
    },
}

/// What one timed pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOut {
    pub wall_s: f64,
    /// Process CPU time (all threads) over the same region as `wall_s`.
    pub cpu_s: f64,
    pub ingest_s: f64,
    /// Process CPU time of the ingest stage.
    pub ingest_cpu_s: f64,
    pub query_s: f64,
    pub records: u64,
    pub store_bytes: u64,
    pub tally: Tally,
    /// The suite text (suite workloads).
    pub text: String,
    /// FNV-1a of the suite text (suite workloads) or a digest of the
    /// captured record stream (serve workloads).
    pub digest: u64,
    /// Layer counters read off the program's own outputs and registry.
    pub counters: BTreeMap<&'static str, f64>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// CPU seconds consumed by every thread of this process so far.
fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn fresh_dir(path: &Path) -> PathBuf {
    std::fs::remove_dir_all(path).ok();
    std::fs::create_dir_all(path).expect("create scratch directory");
    path.to_path_buf()
}

/// Runs `f` in a span when traced, bare otherwise.
fn span<T>(
    tr: Option<&Tracer>,
    layer: &'static str,
    entry: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.time(layer, entry, f),
        None => f(),
    }
}

// ---------------------------------------------------------------- set-up

pub fn setup(w: Workload, s: &Settings, tr: Option<&Tracer>) -> Prepared {
    match w {
        Workload::BatchMem => setup_store_oracle(s),
        Workload::IngestSharded => setup_batch_oracle(s),
        Workload::ServeCampus | Workload::ServeEecs => setup_serve(w, s, tr),
    }
}

/// The sharded-ingest oracle: the in-memory batch path (`batch-mem`'s
/// own pass) over the same eight-day traces.
fn setup_batch_oracle(s: &Settings) -> Prepared {
    let out = batch_mem(s, None);
    Prepared::Suite {
        text: out.text,
        records: out.records,
        store_bytes: 0,
    }
}

/// The batch-mem oracle: the same eight-day traces through the
/// out-of-core store path (`repro --store`), with the suite rendered
/// over the store indexes.
fn setup_store_oracle(s: &Settings) -> Prepared {
    let dir = fresh_dir(&s.work.join("oracle"));
    let campus_path = dir.join("campus.nfstore");
    let eecs_path = dir.join("eecs.nfstore");
    let mut w = StoreWriter::create(&campus_path, StoreConfig::default()).expect("oracle store");
    CampusWorkload::new(scenarios::campus_config(8, s.scale, s.campus_seed()))
        .generate_into(s.threads, &mut w)
        .expect("generate CAMPUS into the oracle store");
    w.finish().expect("seal oracle store");
    let mut w = StoreWriter::create(&eecs_path, StoreConfig::default()).expect("oracle store");
    EecsWorkload::new(scenarios::eecs_config(8, s.scale, s.eecs_seed()))
        .generate_into(s.threads, &mut w)
        .expect("generate EECS into the oracle store");
    w.finish().expect("seal oracle store");
    let campus = StoreIndex::open(&campus_path).expect("open oracle store");
    let eecs = StoreIndex::open(&eecs_path).expect("open oracle store");
    let text = suite_text(&campus, &eecs);
    Prepared::Suite {
        text,
        records: (TraceView::len(&campus) + TraceView::len(&eecs)) as u64,
        store_bytes: dir_bytes(&dir),
    }
}

/// Generates the served system and keeps the first `serve_calls`
/// calls from Monday 09:00, the first weekday busy hour, doubling the
/// simulated length until the window holds that many. The window goes
/// into the oracle batch store, and the plan is compiled from it.
fn setup_serve(w: Workload, s: &Settings, tr: Option<&Tracer>) -> Prepared {
    let from = DAY + 9 * HOUR;
    let mut days = 2;
    let mut records = loop {
        let mut records = span(tr, "workload", "generate", || match w {
            Workload::ServeCampus => scenarios::campus(days, s.serve_scale, s.campus_seed()),
            _ => scenarios::eecs(days, s.serve_scale, s.eecs_seed()),
        });
        records.retain(|r| r.micros >= from);
        if records.len() >= s.serve_calls || days >= 64 {
            break records;
        }
        days *= 2;
    };
    records.truncate(s.serve_calls);
    let dir = fresh_dir(&s.work.join("oracle"));
    let path = dir.join("trace.nfstore");
    span(
        tr,
        "store",
        "StoreWriter::push",
        || -> nfstrace_store::Result<()> {
            let mut writer = StoreWriter::create(&path, StoreConfig::default())?;
            for r in &records {
                writer.push(r)?;
            }
            writer.finish().map(drop)
        },
    )
    .expect("write the oracle store");
    drop(records);
    let oracle = span(tr, "store", "StoreIndex::open", || StoreIndex::open(&path))
        .expect("open oracle store");
    let plan = span(tr, "serve", "ReplayPlan::from_stream", || {
        ReplayPlan::from_stream(&oracle)
    });
    let mut expected = Vec::with_capacity(TraceView::len(&oracle));
    oracle.for_each_record(&mut |r| {
        let mut r = r.clone();
        r.vers = 3;
        expected.push(r);
    });
    std::fs::remove_dir_all(&dir).ok();
    Prepared::Serve { plan, expected }
}

// ---------------------------------------------------------------- passes

/// One timed pass. `tr` switches the traced variant on: the same
/// calls, each wrapped in a span at its layer boundary.
pub fn pass(
    w: Workload,
    s: &Settings,
    prep: &Prepared,
    traced: Option<&Arc<Tracer>>,
    n: usize,
) -> PassOut {
    let tr = traced.map(|a| &**a);
    let dir = fresh_dir(&s.work.join(format!("pass-{n}")));
    let out = match (w, prep) {
        (
            Workload::BatchMem,
            Prepared::Suite {
                text,
                records,
                store_bytes,
            },
        ) => {
            let mut out = batch_mem(s, tr);
            check_suite(&mut out, s, text, *records);
            out.store_bytes = *store_bytes;
            out
        }
        (Workload::IngestSharded, Prepared::Suite { text, records, .. }) => {
            let mut out = ingest_sharded(s, tr, &dir);
            check_suite(&mut out, s, text, *records);
            out
        }
        (Workload::ServeCampus | Workload::ServeEecs, Prepared::Serve { plan, expected }) => {
            serve(s, plan, expected, traced, &dir)
        }
        _ => unreachable!("set-up does not match the workload"),
    };
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Compares a suite pass against the oracle: its text line by line,
/// its record count exactly.
fn check_suite(out: &mut PassOut, s: &Settings, oracle: &str, oracle_records: u64) {
    if s.corrupt {
        out.text = out.text.replacen("CAMPUS", "CAMPVS", 1);
    }
    out.tally.lines(oracle, &out.text);
    out.tally
        .add(oracle_records, out.records.abs_diff(oracle_records));
    out.digest = fnv1a(out.text.as_bytes());
}

/// The suite, artifact by artifact — `suite_text` untraced, and the
/// same steps with a span around each call when traced. Returns the
/// text and the number of decode passes across the four views; the
/// traced copy also checks `suite_text`'s one-sort-per-window contract
/// (a breach reads as a fifth decode pass).
fn suite<V: TraceView>(tr: Option<&Tracer>, campus8: &V, eecs8: &V) -> (String, u64) {
    let Some(tr) = tr else {
        // `suite_text` asserts both one-pass contracts itself.
        return (suite_text(campus8, eecs8), 4);
    };
    let week = scenarios::WEEK_DAYS * DAY;
    let campus_week = tr.time("core", "time_window", || campus8.time_window(0, week));
    let eecs_week = tr.time("core", "time_window", || eecs8.time_window(0, week));
    tr.time("core", "prepare", || {
        campus8.prepare(&[ReplayRequest::WeekdayLifetime]);
        eecs8.prepare(&[ReplayRequest::WeekdayLifetime]);
        campus_week.prepare(&[
            ReplayRequest::Names,
            ReplayRequest::Lifetime(tables::table1_lifetime_config(&campus_week)),
            ReplayRequest::Coverage(tables::COVERAGE_BUCKET_MICROS),
        ]);
        eecs_week.prepare(&[
            ReplayRequest::Names,
            ReplayRequest::Lifetime(tables::table1_lifetime_config(&eecs_week)),
        ]);
    });
    let (c, e) = (&campus_week, &eecs_week);
    let parts = [
        tr.time("tables", "table1", || tables::table1(c, e).text),
        tr.time("tables", "table2", || tables::table2(c, e).text),
        tr.time("tables", "table3", || tables::table3(c, e).text),
        tr.time("tables", "table4", || tables::table4(campus8, eecs8).text),
        tr.time("tables", "table5", || tables::table5(c, e).text),
        tr.time("tables", "fig1", || tables::fig1(c, e).text),
        tr.time("tables", "fig2", || tables::fig2(c, e).text),
        tr.time("tables", "fig3", || tables::fig3(campus8, eecs8).text),
        tr.time("tables", "fig4", || tables::fig4(c, e).text),
        tr.time("tables", "fig5", || tables::fig5(c, e).text),
        tr.time("tables", "names", || tables::names_report(c)),
        tr.time("tables", "hierarchy", || tables::hierarchy_coverage(c)),
    ];
    let mut text = String::new();
    for p in parts {
        text.push_str(&p);
        text.push('\n');
    }
    let sorts = [campus8, eecs8, c, e].map(TraceView::sort_passes);
    let passes = campus8.decode_passes()
        + eecs8.decode_passes()
        + campus_week.decode_passes()
        + eecs_week.decode_passes()
        + u64::from(sorts != [0, 0, 1, 1]);
    (text, passes)
}

fn batch_mem(s: &Settings, tr: Option<&Tracer>) -> PassOut {
    let cpu = cpu_now();
    let t = Instant::now();
    let campus = span(tr, "workload", "generate", || {
        scenarios::campus(8, s.scale, s.campus_seed())
    });
    let eecs = span(tr, "workload", "generate", || {
        scenarios::eecs(8, s.scale, s.eecs_seed())
    });
    let records = (campus.len() + eecs.len()) as u64;
    let campus = span(tr, "core", "TraceIndex::new", || TraceIndex::new(campus));
    let eecs = span(tr, "core", "TraceIndex::new", || TraceIndex::new(eecs));
    let ingest_s = t.elapsed().as_secs_f64();
    let ingest_cpu_s = cpu_now() - cpu;
    let q = Instant::now();
    let (text, passes) = suite(tr, &campus, &eecs);
    let query_s = q.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let mut out = PassOut {
        wall_s,
        cpu_s: cpu_now() - cpu,
        ingest_s,
        ingest_cpu_s,
        query_s,
        records,
        ..PassOut::default()
    };
    out.tally.add(1, passes.abs_diff(4));
    out.counters.insert("core.replay_passes", passes as f64);
    out.text = text;
    out
}

/// A [`RecordSource`] that times every `next_batch` call.
struct TimedSource<'a, S> {
    inner: S,
    tracer: Option<&'a Tracer>,
    layer: &'static str,
}

impl<S: RecordSource> RecordSource for TimedSource<'_, S> {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        let inner = &mut self.inner;
        span(self.tracer, self.layer, "RecordSource::next_batch", || {
            inner.next_batch(out)
        })
    }
}

fn live_config(dir: &Path, registry: &Registry) -> LiveConfig {
    LiveConfig {
        rotate_records: 500_000,
        rotate_micros: DAY,
        ..LiveConfig::new(dir)
    }
    .with_registry(registry)
}

fn ingest_sharded(s: &Settings, tr: Option<&Tracer>, dir: &Path) -> PassOut {
    let registry = Registry::new();
    let roots = [dir.join("campus"), dir.join("eecs")];
    let cpu = cpu_now();
    let t = Instant::now();
    let mut records = 0u64;
    let mut shard_records: Vec<u64> = Vec::new();
    let (mut segments, mut peak_hot) = (0usize, 0usize);
    for (i, root) in roots.iter().enumerate() {
        let sliced = if i == 0 {
            SlicedWorkload::campus(
                scenarios::campus_config(8, s.scale, s.campus_seed()),
                SLICE_MICROS,
                s.threads,
            )
        } else {
            SlicedWorkload::eecs(
                scenarios::eecs_config(8, s.scale, s.eecs_seed()),
                SLICE_MICROS,
                s.threads,
            )
        };
        let mut source = TimedSource {
            inner: SlicedWorkloadSource::new(sliced),
            tracer: tr,
            layer: "workload",
        };
        let mut ingest = span(tr, "live", "ShardedLiveIngest::create", || {
            ShardedLiveIngest::create(live_config(root, &registry), s.threads)
        })
        .expect("create sharded ingest");
        let mut batch = Vec::new();
        let mut snapshot_records = 0usize;
        loop {
            batch.clear();
            if !source.next_batch(&mut batch) {
                break;
            }
            span(tr, "live", "ShardedLiveIngest::ingest_batch", || {
                ingest.ingest_batch(&batch)
            })
            .expect("ingest batch");
            let view = span(tr, "live", "ShardedLiveIngest::view", || ingest.view());
            snapshot_records = view.len();
        }
        let summary = span(tr, "live", "ShardedLiveIngest::finish", || ingest.finish())
            .expect("finish sharded ingest");
        assert_eq!(snapshot_records as u64, summary.total_records);
        records += summary.total_records;
        segments += summary.segments;
        peak_hot += summary
            .shards
            .iter()
            .map(|sh| sh.peak_hot_records)
            .sum::<usize>();
        shard_records.extend(summary.shards.iter().map(|sh| sh.total_records));
    }
    let ingest_s = t.elapsed().as_secs_f64();
    let ingest_cpu_s = cpu_now() - cpu;

    let q = Instant::now();
    let query_registry = Registry::new();
    let open = |root: &Path| {
        span(tr, "store", "ShardedLiveIngest::open", || {
            ShardedLiveIngest::open(live_config(root, &query_registry))
        })
        .expect("reopen the sealed catalog")
    };
    let (campus_i, eecs_i) = (open(&roots[0]), open(&roots[1]));
    let campus = span(tr, "live", "ShardedLiveIngest::view", || campus_i.view());
    let eecs = span(tr, "live", "ShardedLiveIngest::view", || eecs_i.view());
    let (text, passes) = suite(tr, &campus, &eecs);
    let query_s = q.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();

    let mut out = PassOut {
        wall_s,
        cpu_s: cpu_now() - cpu,
        ingest_s,
        ingest_cpu_s,
        query_s,
        records,
        store_bytes: roots.iter().map(|r| dir_bytes(r)).sum(),
        ..PassOut::default()
    };
    out.tally.add(1, passes.abs_diff(4));
    let per_system = shard_records.len() / 2;
    let skew = shard_records
        .chunks(per_system.max(1))
        .map(|c| {
            let max = *c.iter().max().unwrap_or(&0) as f64;
            let mean = c.iter().sum::<u64>() as f64 / c.len().max(1) as f64;
            max / mean.max(1.0)
        })
        .fold(0.0, f64::max);
    let chunks_written: usize = [&campus, &eecs]
        .iter()
        .flat_map(|v| v.sealed())
        .map(|r| r.chunk_count())
        .sum();
    for (k, v) in [
        ("core.replay_passes", passes as f64),
        ("live.shard_skew", skew),
        ("live.segments_sealed", segments as f64),
        ("live.peak_hot_records", peak_hot as f64),
        ("store.chunks_written", chunks_written as f64),
        (
            "store.chunks_decoded",
            query_registry.counter("store.chunks_decoded").value() as f64,
        ),
    ] {
        out.counters.insert(k, v);
    }
    if tr.is_some() {
        let ratio = compression_ratio(&dir.join("ratio"), &[&campus, &eecs]);
        out.counters.insert("store.compression_ratio", ratio);
    }
    out.text = text;
    out
}

/// Bytes of the streams stored uncompressed over bytes stored with the
/// default codec, each as one store file.
fn compression_ratio(dir: &Path, streams: &[&dyn RecordStream]) -> f64 {
    let dir = fresh_dir(dir);
    let size = |compression: Compression, name: &str| -> u64 {
        let config = StoreConfig {
            compression,
            ..StoreConfig::default()
        };
        let mut bytes = 0;
        for (i, stream) in streams.iter().enumerate() {
            let mut w =
                StoreWriter::create(dir.join(format!("{name}-{i}")), config).expect("ratio store");
            let mut result = Ok(());
            stream.for_each_record(&mut |r| {
                if result.is_ok() {
                    result = w.push(r);
                }
            });
            result.expect("write ratio store");
            bytes += w.finish().expect("seal ratio store").file_bytes;
        }
        bytes
    };
    let raw = size(Compression::None, "raw");
    let packed = size(Compression::Lz, "lz");
    std::fs::remove_dir_all(&dir).ok();
    raw as f64 / packed.max(1) as f64
}

/// A [`NfsService`] that times every dispatch under the replay span.
struct TimedService {
    inner: Arc<ReplayService>,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicUsize>,
}

impl NfsService for TimedService {
    fn serve(&self, call_msg: &[u8]) -> Option<Vec<u8>> {
        let parent = self.parent.load(Ordering::Acquire);
        self.tracer
            .time_under(parent, "serve", "NfsService::serve", || {
                self.inner.serve(call_msg)
            })
    }
}

fn serve(
    s: &Settings,
    plan: &ReplayPlan,
    expected: &[TraceRecord],
    tr: Option<&Arc<Tracer>>,
    dir: &Path,
) -> PassOut {
    let registry = Registry::new();
    let options = ReplayOptions {
        connections: s.threads,
        window: WINDOW,
        pacing: Pacing::Afap,
        ..ReplayOptions::default()
    };
    let captured = dir.join("captured");
    let planned = plan.calls.len() as u64;
    let mut out = PassOut::default();
    let cpu = cpu_now();
    let t = Instant::now();
    let (retransmits, unplanned, sniffed, mirror_dropped) = match tr {
        None => {
            let o = serve_roundtrip(plan, &options, &registry, &captured).expect("serve roundtrip");
            let sn = o.sniffer.unwrap_or_default();
            out.counters.insert("sniffer.frames", sn.frames as f64);
            (
                o.replay.retransmits,
                o.unplanned_calls,
                sn,
                o.mirror.dropped,
            )
        }
        Some(tr) => traced_roundtrip(tr, plan, &options, &registry, &captured, &mut out),
    };
    out.ingest_s = t.elapsed().as_secs_f64();
    out.ingest_cpu_s = cpu_now() - cpu;

    let q = Instant::now();
    let query_registry = Registry::new();
    let index = span(tr.map(|a| &**a), "store", "StoreIndex::open_dir", || {
        StoreIndex::open_dir_with_registry(&captured, &query_registry)
    })
    .expect("open the captured store");
    let mut got = 0usize;
    let mut mismatched = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    span(tr.map(|a| &**a), "store", "for_each_record", || {
        index.for_each_record(&mut |r| {
            let corrupt = s.corrupt && got == 0;
            if corrupt || expected.get(got) != Some(r) {
                mismatched += 1;
            }
            digest = (digest ^ r.micros ^ u64::from(r.xid)).wrapping_mul(0x0000_0100_0000_01b3);
            got += 1;
        })
    });
    out.query_s = q.elapsed().as_secs_f64();
    out.wall_s = t.elapsed().as_secs_f64();
    out.cpu_s = cpu_now() - cpu;
    out.records = got as u64;
    out.digest = digest;
    out.store_bytes = dir_bytes(&captured);

    let missing = (expected.len() as u64).abs_diff(got as u64);
    out.tally.add(planned, retransmits + unplanned);
    out.tally.add(expected.len() as u64, mismatched + missing);
    out.tally
        .zero(sniffed.orphan_replies + sniffed.decode_errors + mirror_dropped);
    out.tally.zero(sniffed.calls.abs_diff(planned));

    let rtt = registry.histogram("replay.rtt_micros").snapshot();
    let dispatch = registry.histogram("serve.dispatch_micros").snapshot();
    for (k, v) in [
        ("serve.retransmits", retransmits as f64),
        ("serve.unplanned_calls", unplanned as f64),
        (
            "serve.dispatch_calls",
            registry.counter("serve.calls").value() as f64,
        ),
        ("serve.dispatch_mean_us", dispatch.mean()),
        ("serve.rtt_p50_us", rtt.percentile(0.5) as f64),
        ("serve.rtt_p99_us", rtt.percentile(0.99) as f64),
        ("sniffer.records", sniffed.records_emitted as f64),
        ("sniffer.orphan_replies", sniffed.orphan_replies as f64),
        ("sniffer.decode_errors", sniffed.decode_errors as f64),
        (
            "store.chunks_decoded",
            query_registry.counter("store.chunks_decoded").value() as f64,
        ),
        ("store.chunks_written", index.chunk_count() as f64),
    ] {
        out.counters.insert(k, v);
    }
    if tr.is_some() {
        let ratio = compression_ratio(&dir.join("ratio"), &[&index]);
        out.counters.insert("store.compression_ratio", ratio);
    }
    out
}

/// `serve_roundtrip` rebuilt from its public pieces, with the service
/// and the capture source wrapped in timers and a span around each
/// stage. Returns (retransmits, unplanned calls, sniffer stats,
/// mirror drops).
fn traced_roundtrip(
    tr: &Arc<Tracer>,
    plan: &ReplayPlan,
    options: &ReplayOptions,
    registry: &Registry,
    dir: &Path,
    out: &mut PassOut,
) -> (u64, u64, nfstrace_sniffer::SnifferStats, u64) {
    let server_ip = plan.calls.first().map_or(1, |c| c.server_ip);
    let service = tr.time("serve", "ReplayService::new", || {
        Arc::new(ReplayService::new(plan, server_ip))
    });
    let parent = Arc::new(AtomicUsize::new(0));
    let timed = Arc::new(TimedService {
        inner: Arc::clone(&service),
        tracer: Arc::clone(tr),
        parent: Arc::clone(&parent),
    });
    let mut server = tr
        .time("serve", "NfsTcpServer::spawn", || {
            NfsTcpServer::spawn(timed as Arc<dyn NfsService>, registry)
        })
        .expect("spawn loopback server");
    let replay_span = tr.begin("serve", "replay");
    parent.store(replay_span, Ordering::Release);
    let outcome = replay(plan, server.addr(), options, registry).expect("replay");
    tr.end(replay_span);
    tr.time("serve", "NfsTcpServer::shutdown", || server.shutdown());

    let packets = tr.time("serve", "tap_to_packets", || tap_to_packets(&outcome.tap));
    let tap_bytes: usize = outcome.tap.iter().map(|e| e.bytes.len()).sum();
    let mut mirror = MirrorPort::new(MirrorConfig::lossless());
    let packets: Vec<CapturedPacket> = tr.time("net.mirror", "MirrorPort::offer", || {
        packets
            .into_iter()
            .filter(|p| mirror.offer(p.timestamp_micros, p.data.len()) == MirrorVerdict::Forwarded)
            .collect()
    });
    let forwarded = packets.len();
    let mut source = TimedSource {
        inner: SnifferSource::new(packets.into_iter(), PACKETS_PER_BATCH),
        tracer: Some(&**tr),
        layer: "sniffer",
    };
    let mut ingest = tr
        .time("live", "LiveIngest::create", || {
            LiveIngest::create(LiveConfig::new(dir).with_registry(registry))
        })
        .expect("create ingest");
    tr.time("live", "LiveIngest::run", || ingest.run(&mut source))
        .expect("ingest capture");
    let summary = tr
        .time("live", "LiveIngest::finish", || ingest.finish())
        .expect("finish ingest");
    let stats = source.inner.stats().unwrap_or_default();
    for (k, v) in [
        ("serve.tap_mib", tap_bytes as f64 / (1 << 20) as f64),
        ("net.packets", forwarded as f64),
        ("sniffer.frames", stats.frames as f64),
        ("live.segments_sealed", summary.segments as f64),
        ("live.peak_hot_records", summary.peak_hot_records as f64),
        ("live.shard_skew", 1.0),
    ] {
        out.counters.insert(k, v);
    }
    (
        outcome.retransmits,
        service.unplanned_calls(),
        stats,
        mirror.stats().dropped,
    )
}
