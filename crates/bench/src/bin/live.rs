//! Live-ingest reproduction: generate the suite's 8-day traces through
//! the bounded-memory live pipeline (time-sliced simulation →
//! rotating segment ingest), query a [`nfstrace_live::LiveView`]
//! mid-ingest, then print the full table/figure suite over the merged
//! segment directories.
//!
//! Stdout is **byte-identical** to `repro --store` at the same
//! `NFSTRACE_SCALE` — the CI `live-smoke` job `cmp`s exactly that —
//! because the live path ingests bit-identical record streams and the
//! suite itself is shared (`nfstrace_bench::suite`). Internally this
//! bin additionally asserts:
//!
//! - mid-ingest `LiveView` products equal the batch store index
//!   windowed to the records ingested so far;
//! - the merged segment `StoreIndex` prints the same suite text as the
//!   batch `--store` path;
//! - peak resident record counts stay bounded by the slice and
//!   rotation thresholds (reported on a machine-greppable
//!   `live-memory:` stderr line; the timed, gated measurement of this
//!   path is perfbench's `ingest-sharded` workload — `BENCHMARK.json`,
//!   `perfbench/README.md`).
//!
//! With `--shards <n>` the same traces run through the sharded
//! multi-writer daemon ([`nfstrace_live::ShardedLiveIngest`]) instead:
//! records split by client hash across `n` independent writers and the
//! suite runs over the merged mid-ingest view — still byte-identical
//! to `repro --store` (the CI job `cmp`s shard counts 1, 2, and 4
//! against the batch output).
//!
//! With `--metrics <path>` the whole live pipeline — ingest daemons,
//! segment writers/readers, and every view the suite queries — reports
//! into one shared telemetry [`Registry`], exported periodically as
//! JSON lines to `<path>` (plus Prometheus text exposition to
//! `<path>.prom`) and dumped once to **stderr** at exit. Stdout is
//! untouched: the byte-identity `cmp` against `repro --store` holds
//! with telemetry on or off (a tier-1 test pins that).
//!
//! With `--compact <fan_in>` the single-writer daemons compact on the
//! fly: every rotation merges ripe runs of `fan_in` adjacent sealed
//! segments into generation-tagged segments
//! ([`nfstrace_store::Compactor`]), cascading up the generations. The
//! suite over the compacted catalogs must stay byte-identical, the bin
//! asserts the footer-pruning query planner dismisses whole segments
//! on a windowed query (`store.segments_pruned > 0`) while decoding
//! strictly fewer chunks than a full scan, and `--retain <bytes>` then
//! applies a size-budget retention pass that archives the oldest
//! segments into `<dir>/archive` — with the archived ∪ retained union
//! re-printing the same suite bytes.
//!
//! Usage: `live [--dir <dir>] [--shards <n>] [--compact <fan_in>]
//! [--retain <bytes>] [--metrics <path>] [--metrics-interval <secs>]`
//! (default: a per-process temp dir, removed on success; single-writer
//! daemon; no compaction; no metrics export).

use nfstrace_bench::pipeline::{Bin, OrExit, Run};
use nfstrace_bench::scenarios;
use nfstrace_bench::suite::{peak_rss_kb, suite_text};
use nfstrace_core::index::TraceView;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{LiveConfig, LiveIngest, LiveView, ShardedLiveIngest};
use nfstrace_store::{
    CompactionPolicy, RetentionPolicy, SegmentCatalog, StoreConfig, StoreIndex, StoreReader,
};
use nfstrace_workload::SlicedWorkload;
use std::path::PathBuf;
use std::sync::Arc;

/// Simulated time per generation slice.
const SLICE_MICROS: u64 = 6 * HOUR;

/// Where each system's live segments land.
fn segment_dir(run: &Run, name: &str) -> PathBuf {
    run.dir.join(format!("{}-segments", name.to_lowercase()))
}

/// `name`'s eight-day trace, generated slice by slice from the batch
/// oracle's configuration and seed.
fn sliced(run: &Run, name: &str) -> SlicedWorkload {
    let threads = nfstrace_core::parallel::threads();
    if name == "CAMPUS" {
        let config = scenarios::campus_config(8, run.scale, scenarios::CAMPUS_SEED);
        SlicedWorkload::campus(config, SLICE_MICROS, threads)
    } else {
        let config = scenarios::eecs_config(8, run.scale, scenarios::EECS_SEED);
        SlicedWorkload::eecs(config, SLICE_MICROS, threads)
    }
}

/// What the midpoint-checked ingest loop needs from a live daemon.
trait Daemon {
    /// Ingests one generation slice.
    fn ingest_slice(&mut self, slice: &[TraceRecord]) -> nfstrace_store::Result<()>;
    /// A snapshot over everything ingested so far.
    fn view(&self) -> LiveView;
    /// Largest hot-tail residency, summed over shards.
    fn peak_hot_records(&self) -> usize;
}

impl Daemon for LiveIngest {
    fn ingest_slice(&mut self, slice: &[TraceRecord]) -> nfstrace_store::Result<()> {
        // Record-at-a-time ingest bypasses `LiveIngest::run`, so sample
        // the batch latency here, as every shard of the sharded daemon
        // does inside `ingest_batch`.
        let _span = nfstrace_telemetry::span!(&self.config().registry, "live.batch_micros");
        slice.iter().try_for_each(|r| self.ingest(r))
    }
    fn view(&self) -> LiveView {
        LiveIngest::view(self)
    }
    fn peak_hot_records(&self) -> usize {
        LiveIngest::peak_hot_records(self)
    }
}

impl Daemon for ShardedLiveIngest {
    fn ingest_slice(&mut self, slice: &[TraceRecord]) -> nfstrace_store::Result<()> {
        self.ingest_batch(slice)
    }
    fn view(&self) -> LiveView {
        ShardedLiveIngest::view(self)
    }
    fn peak_hot_records(&self) -> usize {
        self.shards().iter().map(LiveIngest::peak_hot_records).sum()
    }
}

/// Ingests `sliced` to exhaustion into `daemon`; at the first slice
/// boundary at or past day 4 (mid-ingest, hot + sealed both populated),
/// asserts the live view equals `oracle8` windowed to the records so
/// far. Returns the generator's resident peak and the largest slice.
fn ingest_checked(
    name: &str,
    mut sliced: SlicedWorkload,
    daemon: &mut impl Daemon,
    oracle8: &StoreIndex,
) -> (usize, usize) {
    let mut checked = false;
    let mut peak_slice = 0;
    let mut slice = Vec::new();
    loop {
        slice.clear();
        let Ok(more) = sliced.next_slice_into(&mut slice);
        if !more {
            break;
        }
        daemon
            .ingest_slice(&slice)
            .or_exit(&format!("{name}: ingest slice"));
        peak_slice = peak_slice.max(slice.len());
        let boundary = sliced.emitted_to();
        if checked || boundary < 4 * DAY {
            continue;
        }
        checked = true;
        let view = daemon.view();
        let window = oracle8.time_window(0, boundary);
        assert_eq!(
            view.len(),
            TraceView::len(&window),
            "{name}: mid-ingest len"
        );
        assert_eq!(
            view.summary(),
            window.summary(),
            "{name}: mid-ingest summary"
        );
        assert_eq!(view.hourly(), window.hourly(), "{name}: mid-ingest hourly");
        assert_eq!(
            view.accesses(10).as_ref(),
            window.accesses(10).as_ref(),
            "{name}: mid-ingest accesses"
        );
        eprintln!(
            "  {name}: mid-ingest check at {:.1} days — {} records ({} sealed segments, {} hot), \
             consistent",
            boundary as f64 / DAY as f64,
            view.len(),
            view.sealed().len(),
            view.hot_records().count(),
        );
    }
    assert!(checked, "{name}: the mid-ingest checkpoint never ran");
    (sliced.peak_resident_records(), peak_slice)
}

/// Live-ingests both systems, each into the daemon `create` builds over
/// its segment directory and midpoint-checked against its batch oracle,
/// then reports the bounded-memory observables (stderr,
/// machine-greppable) and asserts resident records stayed below the
/// trace size.
fn ingest_both<D: Daemon>(
    run: &Run,
    oracle: &(StoreIndex, StoreIndex),
    create: impl Fn(LiveConfig) -> nfstrace_store::Result<D>,
) -> [(&'static str, D); 2] {
    let mut gen_peak = 0;
    let mut peak_slice = 0;
    let daemons = [("CAMPUS", &oracle.0), ("EECS", &oracle.1)].map(|(name, oracle8)| {
        // Rotation: seal segments daily (or at half a million records),
        // with optional in-line compaction at the requested fan-in.
        let config = LiveConfig {
            store: StoreConfig::default(),
            rotate_records: 500_000,
            rotate_micros: DAY,
            compaction: run.args.compact.map(|fan_in| CompactionPolicy { fan_in }),
            ..LiveConfig::new(segment_dir(run, name))
        }
        .with_registry(&run.registry);
        let mut daemon = create(config).or_exit(&format!("{name}: create ingest"));
        let (resident, largest) = ingest_checked(name, sliced(run, name), &mut daemon, oracle8);
        gen_peak = gen_peak.max(resident);
        peak_slice = peak_slice.max(largest);
        (name, daemon)
    });
    let total = TraceView::len(&oracle.0) + TraceView::len(&oracle.1);
    let peak_hot = daemons
        .iter()
        .map(|(_, d)| d.peak_hot_records())
        .max()
        .unwrap_or(0);
    eprintln!(
        "live-memory: total_records={total} peak_hot_records={peak_hot} \
         peak_slice_records={peak_slice} gen_peak_resident_records={gen_peak} \
         peak_rss_kb={} cpus={}",
        peak_rss_kb().unwrap_or(0),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let peak_resident = peak_hot + gen_peak;
    assert!(
        peak_resident < total.max(1),
        "peak resident records ({peak_resident}) must stay below the trace size ({total})"
    );
    daemons
}

/// Compaction really ran — the catalog holds generation-tagged merges
/// and the daemon counted them — and the planner dismisses whole
/// segments on a one-day window by footer time range, decoding strictly
/// fewer chunks than a full scan.
fn check_compaction(run: &Run, campus: &StoreIndex, campus_b: &StoreIndex) {
    let catalog = SegmentCatalog::open(segment_dir(run, "CAMPUS")).or_exit("reopen campus catalog");
    let max_gen = catalog
        .ids()
        .iter()
        .map(|id| id.generation)
        .max()
        .unwrap_or(0);
    assert!(
        max_gen > 0,
        "forced compaction left only generation-0 segments"
    );
    let compactions = run.registry.counter("store.compactions").value();
    assert!(compactions > 0, "store.compactions never fired");

    // A windowed query, with the chunks it decoded and segments it pruned.
    let decoded = run.registry.counter("store.chunks_decoded");
    let pruned = run.registry.counter("store.segments_pruned");
    let window = |start, end| {
        let (d0, p0) = (decoded.value(), pruned.value());
        let view = campus.time_window(start, end);
        (view, decoded.value() - d0, pruned.value() - p0)
    };
    let (full, full_decodes, _) = window(0, u64::MAX);
    let (day, window_decodes, window_pruned) = window(2 * DAY, 3 * DAY);
    assert!(
        window_pruned > 0,
        "a one-day window must prune whole segments by footer time range"
    );
    assert!(
        window_decodes < full_decodes,
        "windowed query decoded {window_decodes} chunks, full scan {full_decodes}"
    );
    assert_eq!(
        TraceView::len(&day),
        TraceView::len(&campus_b.time_window(2 * DAY, 3 * DAY)),
        "pruned windowed query must match the batch oracle"
    );
    drop(full);
    eprintln!(
        "  compaction: campus catalog {} segments (max generation {max_gen}), \
         {compactions} compactions; day window decoded {window_decodes}/{full_decodes} \
         chunks, pruned {window_pruned} segments",
        catalog.len(),
    );
}

/// Archives the oldest segments down to the `cap`-byte budget, then
/// proves nothing was lost: the archived ∪ retained union must re-print
/// `text` byte for byte.
fn check_retention(run: &Run, cap: u64, text: &str) {
    let union = ["CAMPUS", "EECS"].map(|name| {
        let seg_dir = segment_dir(run, name);
        let mut catalog = SegmentCatalog::open_and_sweep(&seg_dir)
            .or_exit(&format!("{name}: reopen catalog for retention"));
        let before = catalog.len();
        let archive = seg_dir.join("archive");
        let policy = RetentionPolicy {
            max_total_bytes: Some(cap),
            max_age_micros: None,
            archive_dir: Some(archive.clone()),
        };
        let retired =
            nfstrace_store::compact::apply_retention(&mut catalog, &policy, &run.registry)
                .or_exit(&format!("{name}: retention"));
        eprintln!(
            "  retention: {name} archived {} of {before} segments under the {cap}-byte budget",
            retired.len()
        );
        let archived = if archive.is_dir() {
            SegmentCatalog::open(&archive)
                .or_exit(&format!("{name}: open archive"))
                .paths()
        } else {
            Vec::new()
        };
        let readers = archived
            .iter()
            .chain(&catalog.paths())
            .map(|path| {
                Arc::new(StoreReader::open(path).or_exit("reopen segment for the retention union"))
            })
            .collect();
        StoreIndex::from_readers(readers).or_exit(&format!("{name}: index the retention union"))
    });
    assert_eq!(
        suite_text(&union[0], &union[1]),
        text,
        "archived + retained union must re-print the suite byte for byte"
    );
    eprintln!("  retention: archived + retained union is byte-identical to the suite");
}

fn main() {
    let run = Run::start(Bin::Live);
    let oracle = run.batch_oracle();

    // The live path: time-sliced generation → rotating segment ingest,
    // with a consistency check mid-ingest.
    let text = if let Some(shards) = run.args.shards {
        eprintln!(
            "sharded-live-ingesting the same traces ({SLICE_MICROS}us slices, daily rotation, \
             {shards} shards) ..."
        );
        let daemons = ingest_both(&run, &oracle, |config| {
            ShardedLiveIngest::create(config, shards)
        });
        // The suite runs over the *merged mid-ingest views* — sealed
        // segments plus every shard's hot tail, k-way merged on arrival
        // sequence.
        eprintln!("running the suite over the merged shard views ...");
        let text = suite_text(&daemons[0].1.view(), &daemons[1].1.view());
        for (name, daemon) in daemons {
            daemon.finish().or_exit(&format!("{name}: finish"));
        }
        text
    } else {
        eprintln!("live-ingesting the same traces ({SLICE_MICROS}us slices, daily rotation) ...");
        let [campus, eecs] =
            ingest_both(&run, &oracle, LiveIngest::create).map(|(name, daemon)| {
                let summary = daemon.finish().or_exit(&format!("{name}: finish"));
                eprintln!(
                    "  {name}: {} segments ({} records)",
                    summary.segments, summary.total_records
                );
                StoreIndex::open_dir_with_registry(segment_dir(&run, name), &run.registry)
                    .or_exit(&format!("{name}: open segments"))
            });
        eprintln!("running the suite over the live segments ...");
        let text = suite_text(&campus, &eecs);
        if run.args.compact.is_some() {
            check_compaction(&run, &campus, &oracle.0);
        }
        if let Some(cap) = run.args.retain {
            check_retention(&run, cap, &text);
        }
        text
    };
    run.finish(&text, &oracle);
}
