//! Pipeline stage microbenchmarks: workload generation, wire encoding,
//! sniffing and capture (with and without a shared, exported telemetry
//! registry), anonymization throughput, and the indexed-vs-legacy
//! analysis comparison.
//!
//! The end-to-end loops — in-memory `repro`, store/live ingest, and the
//! serve loop — are timed at seconds-long scale, with gates, by the
//! repository benchmark (`BENCHMARK.json`, `perfbench/README.md`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nfstrace_anonymize::{Anonymizer, AnonymizerConfig};
use nfstrace_bench::{pipeline, scenarios, tables};
use nfstrace_core::index::TraceIndex;
use nfstrace_core::record::TraceRecord;
use nfstrace_sniffer::{Sniffer, WireEncoder};
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusConfig, CampusWorkload, EecsConfig, EecsWorkload};
use std::time::Duration;

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate");
    g.sample_size(10);
    g.bench_function("campus_hour_10users", |b| {
        b.iter(|| {
            CampusWorkload::new(CampusConfig {
                users: 10,
                duration_micros: nfstrace_core::time::HOUR * 12,
                seed: 5,
                ..CampusConfig::default()
            })
            .generate()
        })
    });
    g.bench_function("eecs_hour_10users", |b| {
        b.iter(|| {
            EecsWorkload::new(EecsConfig {
                users: 10,
                duration_micros: nfstrace_core::time::HOUR * 12,
                seed: 5,
                ..EecsConfig::default()
            })
            .generate()
        })
    });
    g.finish();
}

fn bench_sniffer(c: &mut Criterion) {
    // Pre-encode a packet batch from a small trace.
    use nfstrace_client::{ClientConfig, ClientMachine};
    use nfstrace_fssim::NfsServer;
    let mut server = NfsServer::new(2);
    let root = server.root_fh();
    let mut client = ClientMachine::new(ClientConfig {
        nfsiods: 1,
        ..ClientConfig::default()
    });
    let (fh, t) = client.create(&mut server, 0, &root, "f");
    let fh = fh.unwrap();
    server
        .fs_mut()
        .write(fh.as_u64().unwrap(), 0, 8 << 20, t)
        .unwrap();
    client.read_file(&mut server, t + 40_000_000, &fh);
    let events = client.take_events();
    let mut enc = WireEncoder::tcp_jumbo();
    let packets: Vec<_> = events.iter().flat_map(|e| enc.encode_event(e)).collect();
    let bytes: u64 = packets.iter().map(|p| p.data.len() as u64).sum();

    let mut g = c.benchmark_group("sniffer");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("tcp_decode_8mb_read", |b| {
        b.iter(|| {
            let mut s = Sniffer::new();
            for p in &packets {
                s.observe(p);
            }
            s.finish()
        })
    });
    g.finish();
}

/// The synthetic multi-client capture: 8 clients against one server, each
/// creating a file, writing 4 MiB, reading it back, and removing it —
/// metadata and data traffic mixed over standard-MSS TCP, so the
/// sniffer's reassembly, record-marking, and zero-copy decode paths
/// are all on the measured path.
fn capture_corpus() -> Vec<nfstrace_net::pcap::CapturedPacket> {
    use nfstrace_client::{ClientConfig, ClientMachine};
    use nfstrace_fssim::NfsServer;
    let mut server = NfsServer::new(9);
    let root = server.root_fh();
    let mut events = Vec::new();
    for c in 0..8u32 {
        let mut client = ClientMachine::new(ClientConfig {
            ip: 0x0a00_0010 + c,
            uid: 100 + c,
            gid: 100,
            nfsiods: 1,
            seed: u64::from(c),
            ..ClientConfig::default()
        });
        let name = format!("f{c}");
        let (fh, t) = client.create(&mut server, u64::from(c) * 1_000, &root, &name);
        let fh = fh.unwrap();
        let t = client.write(&mut server, t, &fh, 0, 4 << 20);
        let t = client.read_file(&mut server, t + 1_000, &fh);
        client.remove(&mut server, t, &root, &name);
        events.extend(client.take_events());
    }
    events.sort_by_key(|e| e.wire_micros);
    let mut enc = WireEncoder::tcp_standard();
    events.iter().flat_map(|e| enc.encode_event(e)).collect()
}

fn bench_capture(c: &mut Criterion) {
    let packets = capture_corpus();
    let records = {
        let mut s = Sniffer::new();
        for p in &packets {
            s.observe(p);
        }
        s.finish().0.len() as u64
    };
    let mut g = c.benchmark_group("capture");
    g.throughput(Throughput::Elements(records));
    g.bench_function("tcp_multi_client_zero_copy", |b| {
        b.iter(|| {
            let mut s = Sniffer::new();
            s.observe_batch(&packets);
            s.finish()
        })
    });
    // Telemetry overhead: the same corpus counting into one shared
    // registry while an exporter samples it at a daemon's 1 s cadence
    // (the plain variant above counts into private registries nobody
    // reads). The budget is < 2% over plain.
    let registry = Registry::new();
    let dir = std::env::temp_dir().join(format!("nfstrace-bench-capture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("exporter dir");
    let jsonl = dir.join("capture.jsonl");
    let exporter = pipeline::start_exporter(&registry, &jsonl, Duration::from_secs(1))
        .expect("start exporter");
    g.bench_function("tcp_multi_client_shared_registry_exported", |b| {
        b.iter(|| {
            let mut s = Sniffer::with_registry(&registry);
            s.observe_batch(&packets);
            s.finish()
        })
    });
    g.finish();
    exporter.stop().expect("stop exporter");
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_anonymize(c: &mut Criterion) {
    let records = CampusWorkload::new(CampusConfig {
        users: 6,
        duration_micros: nfstrace_core::time::HOUR * 6,
        seed: 5,
        ..CampusConfig::default()
    })
    .generate();
    let mut g = c.benchmark_group("anonymize");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("trace", |b| {
        b.iter(|| {
            let mut a = Anonymizer::new(AnonymizerConfig::default());
            a.anonymize_trace(&records)
        })
    });
    g.finish();
}

/// The artifact set both analysis shapes drive (the lifetime-window
/// artifacts need 8-day traces and are exercised by `repro` itself).
fn artifacts() -> [fn(&TraceIndex, &TraceIndex) -> usize; 9] {
    [
        |c, e| tables::table1(c, e).text.len(),
        |c, e| tables::table2(c, e).text.len(),
        |c, e| tables::table3(c, e).text.len(),
        |c, e| tables::table5(c, e).text.len(),
        |c, e| tables::fig1(c, e).text.len(),
        |c, e| tables::fig2(c, e).text.len(),
        |c, e| tables::fig4(c, e).text.len(),
        |c, e| tables::fig5(c, e).text.len(),
        |c, _| tables::names_report(c).len(),
    ]
}

/// The day-long comparison workloads, on the suite's seeds.
fn analysis_campus() -> Vec<TraceRecord> {
    CampusWorkload::new(CampusConfig {
        users: 6,
        duration_micros: nfstrace_core::time::DAY,
        seed: scenarios::CAMPUS_SEED,
        ..CampusConfig::default()
    })
    .generate()
}

/// See [`analysis_campus`].
fn analysis_eecs() -> Vec<TraceRecord> {
    EecsWorkload::new(EecsConfig {
        users: 4,
        duration_micros: nfstrace_core::time::DAY,
        seed: scenarios::EECS_SEED,
        ..EecsConfig::default()
    })
    .generate()
}

/// Number of full artifact sweeps both analysis paths perform.
const ANALYSIS_SWEEPS: usize = 3;

/// Legacy shape: every artifact of every sweep rebuilds its own view
/// of the trace, as the pre-TraceIndex code did — no cross-artifact
/// cache sharing at all.
fn legacy_analysis(campus: &[TraceRecord], eecs: &[TraceRecord]) -> usize {
    let mut chars = 0;
    for _ in 0..ANALYSIS_SWEEPS {
        for artifact in artifacts() {
            let ci = TraceIndex::new(campus.to_vec());
            let ei = TraceIndex::new(eecs.to_vec());
            chars += artifact(&ci, &ei);
        }
    }
    chars
}

/// Indexed shape: one build, every further sweep a cache hit.
fn indexed_analysis(campus: &[TraceRecord], eecs: &[TraceRecord]) -> usize {
    let ci = TraceIndex::new(campus.to_vec());
    let ei = TraceIndex::new(eecs.to_vec());
    let mut chars = 0;
    for _ in 0..ANALYSIS_SWEEPS {
        chars += artifacts().iter().map(|f| f(&ci, &ei)).sum::<usize>();
    }
    chars
}

fn bench_analysis_paths(c: &mut Criterion) {
    let campus = analysis_campus();
    let eecs = analysis_eecs();
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.bench_function("legacy_fresh_index_per_artifact", |b| {
        b.iter(|| legacy_analysis(&campus, &eecs))
    });
    g.bench_function("indexed_shared", |b| {
        b.iter(|| indexed_analysis(&campus, &eecs))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_sniffer,
    bench_capture,
    bench_anonymize,
    bench_analysis_paths
);
criterion_main!(benches);
