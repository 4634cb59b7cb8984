//! Regenerates the §4.1.4 condition: an oversubscribed mirror port
//! drops packets during bursts, and the sniffer's unmatched-message
//! accounting estimates the loss.

use nfstrace_bench::{scale, scenarios};
use nfstrace_core::record::TraceRecord;
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorVerdict};
use nfstrace_sniffer::{Sniffer, WireEncoder};

fn main() {
    let s = (scale() * 0.25).max(0.1);
    let records = scenarios::campus(1, s, scenarios::CAMPUS_SEED);
    println!(
        "mirror-port loss experiment: {} records re-encoded to the wire",
        records.len()
    );

    // Re-encode trace records to packets through a synthetic event; the
    // workload's wire data is regenerated per record for the experiment.
    let events = to_events(&records);
    println!(
        "  ({} of those are data/getattr calls carried on the wire)",
        events.len()
    );
    for (label, config) in [
        ("lossless (EECS monitor)", MirrorConfig::lossless()),
        (
            "oversubscribed 500 Mb/s tap (CAMPUS bursts)",
            MirrorConfig {
                rate_bytes_per_sec: 62_000_000.0,
                buffer_bytes: 160 * 1024,
            },
        ),
    ] {
        let mut enc = WireEncoder::tcp_jumbo();
        let mut port = MirrorPort::new(config);
        let mut sniffer = Sniffer::new();
        for e in &events {
            for pkt in enc.encode_event(e) {
                if port.offer(pkt.timestamp_micros, pkt.data.len()) == MirrorVerdict::Forwarded {
                    sniffer.observe(&pkt);
                }
            }
        }
        let (recs, st) = sniffer.finish();
        println!("-- {label}");
        println!(
            "   packet drop rate {:.2}%  paired records {}/{}",
            100.0 * port.stats().drop_rate(),
            recs.len(),
            events.len(),
        );
        println!(
            "   orphan replies {}  lost replies {}  estimated message loss {:.2}%",
            st.orphan_replies,
            st.lost_replies,
            100.0 * st.estimated_loss_rate()
        );
        println!(
            "   (message loss >> packet loss: losing either the call or the reply\n    loses the pair — §4.1.4's \"losing a call effectively results in\n    losing both\" — and drops cluster on data-heavy bursts)"
        );
    }
}

/// Rebuilds wire events from flattened records (enough fidelity for the
/// loss experiment: byte ranges and identities are preserved).
fn to_events(records: &[TraceRecord]) -> Vec<nfstrace_client::EmittedCall> {
    use nfstrace_nfs::fh::FileHandle;
    use nfstrace_nfs::types::NfsStat3;
    use nfstrace_nfs::v3::*;
    records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let fh = FileHandle::from_u64(r.fh.0);
            let (call, reply) = match r.op {
                nfstrace_core::record::Op::Read => (
                    Call3::Read(Read3Args {
                        file: fh,
                        offset: r.offset,
                        count: r.count,
                    }),
                    Reply3::ok(Reply3Body::Read(Read3Res {
                        file_attributes: None,
                        count: r.ret_count,
                        eof: r.eof,
                        data: vec![0; r.ret_count as usize],
                    })),
                ),
                nfstrace_core::record::Op::Write => (
                    Call3::Write(Write3Args {
                        file: fh,
                        offset: r.offset,
                        count: r.count,
                        stable: StableHow::Unstable,
                        data: vec![0; r.count as usize],
                    }),
                    Reply3::ok(Reply3Body::Write(Write3Res {
                        count: r.ret_count,
                        ..Write3Res::default()
                    })),
                ),
                nfstrace_core::record::Op::Getattr => (
                    Call3::Getattr(FhArgs { object: fh }),
                    Reply3::error(Proc3::Getattr, NfsStat3::Ok),
                ),
                _ => return None,
            };
            Some(nfstrace_client::EmittedCall {
                wire_micros: r.micros,
                reply_micros: r.reply_micros.max(r.micros + 200),
                xid: i as u32, // unique per record
                client_ip: r.client,
                server_ip: r.server,
                uid: r.uid,
                gid: r.gid,
                vers: 3,
                call,
                reply,
            })
        })
        .collect()
}
