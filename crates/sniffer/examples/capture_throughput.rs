//! Ad-hoc capture throughput measurement: a synthetic multi-client TCP
//! capture replayed through the sniffer, reporting records/s and MB/s.
//!
//! This is the harness behind the zero-copy capture before/after
//! numbers in the README's performance history — it intentionally uses
//! only the long-stable public API (`Sniffer::observe`/`finish`) so the
//! same file builds against older revisions for before/after
//! comparisons. The criterion variant lives in `cargo bench --bench
//! pipeline` (`capture` group); the gated end-to-end capture path is
//! the repository benchmark's serve workloads (`BENCHMARK.json`,
//! `perfbench/README.md`).

use std::time::Instant;

use nfstrace_client::{ClientConfig, ClientMachine};
use nfstrace_fssim::NfsServer;
use nfstrace_net::pcap::CapturedPacket;
use nfstrace_sniffer::{Sniffer, WireEncoder};

/// Builds the capture: 8 clients against one server, each creating a
/// file, writing 4 MiB, reading it back, and removing it — a mix of
/// metadata and data traffic over standard-MSS TCP.
fn corpus(jumbo: bool) -> Vec<CapturedPacket> {
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
    let mut enc = if jumbo {
        WireEncoder::tcp_jumbo()
    } else {
        WireEncoder::tcp_standard()
    };
    events.iter().flat_map(|e| enc.encode_event(e)).collect()
}

fn measure(label: &str, packets: &[CapturedPacket]) {
    let wire_bytes: u64 = packets.iter().map(|p| p.data.len() as u64).sum();
    let mut best_records_per_s = 0.0f64;
    let mut records = 0usize;
    for pass in 0..5 {
        let t = Instant::now();
        let mut s = Sniffer::new();
        for p in packets {
            s.observe(p);
        }
        let (recs, _stats) = s.finish();
        let dt = t.elapsed().as_secs_f64();
        records = recs.len();
        let rps = records as f64 / dt;
        let mbps = wire_bytes as f64 / dt / (1 << 20) as f64;
        println!(
            "{label} pass {pass}: {records} records in {dt:.4}s = {rps:.0} records/s, {mbps:.0} MiB/s"
        );
        best_records_per_s = best_records_per_s.max(rps);
    }
    println!(
        "{label} best: {best_records_per_s:.0} records/s over {} packets / {} records / {} wire bytes",
        packets.len(),
        records,
        wire_bytes
    );
}

fn main() {
    measure("mss1448", &corpus(false));
    measure("jumbo", &corpus(true));
}
