//! The wire replay client: a trace played back as real RPC over TCP.
//!
//! Calls go out on per-client connections (every trace client's calls
//! stay on one connection, in trace order — the invariant the server's
//! per-`(client, xid)` reply schedule depends on), with a bounded
//! in-flight window, configurable pacing, and timeout-driven
//! retransmission. Each send burst — every call the window and the
//! pacing clock let out at once, forced retransmissions included — is
//! record-marked into one reused buffer and written with one `write`.
//! Everything the client actually writes to or reads from a socket is
//! also recorded in a **tap** ([`TapEvent`]) — the message-level mirror
//! of the server's byte stream that the capture pipeline
//! (`crate::pipeline`) later frames into packets for the sniffer,
//! retransmissions and duplicate replies included. Call events share
//! the plan's bytes; each reply is copied once, out of the read buffer.
//!
//! Telemetry: `replay.calls_sent`, `replay.retransmits`,
//! `replay.writes`, `replay.rtt_micros`.

use crate::plan::{PlannedCall, ReplayPlan};
use nfstrace_rpc::record::{mark_record_into, RecordReader};
use nfstrace_telemetry::{Counter, Histogram, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How fast to play the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// As fast as the window allows, ignoring trace timestamps.
    Afap,
    /// Honor trace inter-arrival times, compressed by `speedup`
    /// (e.g. `3600.0` plays an hour of trace per wall second).
    Timescale {
        /// Trace-seconds per wall-second.
        speedup: f64,
    },
}

/// Replay knobs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Connection count; trace clients are spread across these
    /// round-robin (never split: one client, one connection).
    pub connections: usize,
    /// Per-connection in-flight call cap.
    pub window: usize,
    /// Retransmit a call not answered within this long. Generous by
    /// default: on loopback a retransmission means something is wrong,
    /// and the CI smoke asserts none happen.
    pub timeout: Duration,
    /// Pacing mode.
    pub pacing: Pacing,
    /// Test hook: immediately send every n-th call twice, forcing the
    /// retransmission path without waiting out a timeout.
    pub forced_retransmit_every: Option<usize>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            connections: 2,
            window: 32,
            timeout: Duration::from_secs(5),
            pacing: Pacing::Afap,
            forced_retransmit_every: None,
        }
    }
}

/// One message observed on a replay connection, tagged for the tap.
#[derive(Debug, Clone)]
pub struct TapEvent {
    /// Trace index of the call this message belongs to.
    pub idx: usize,
    /// 0 = client→server (call), 1 = server→client (reply).
    pub dir: u8,
    /// Trace-clock capture time: the record's call time for calls
    /// (retransmissions included — the trace has one timestamp), the
    /// record's reply time for replies.
    pub micros: u64,
    /// Client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// The raw RPC message bytes as written/read (unframed). A call
    /// shares its plan entry's bytes.
    pub bytes: Arc<[u8]>,
}

impl TapEvent {
    /// The tap event for a message of `call`'s exchange.
    fn of(call: &PlannedCall, dir: u8, bytes: Arc<[u8]>) -> Self {
        TapEvent {
            idx: call.idx,
            dir,
            micros: if dir == 0 {
                call.micros
            } else {
                call.reply_micros
            },
            client_ip: call.client_ip,
            server_ip: call.server_ip,
            bytes,
        }
    }
}

/// What a replay run produced.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Every message that crossed a connection, in per-connection
    /// observation order (sort by `(idx, dir)` to serialize; the
    /// pipeline does).
    pub tap: Vec<TapEvent>,
    /// Calls written, first transmissions only.
    pub calls_sent: u64,
    /// Retransmissions (timeout-driven plus forced).
    pub retransmits: u64,
}

/// One in-flight call awaiting its reply.
struct Pending {
    local: usize,
    sent_at: Instant,
}

/// Which call an arriving reply answers, per connection.
#[derive(Default)]
struct ReplyTracker {
    /// Calls awaiting their first reply, per xid in send order. Empty
    /// queues are removed: a long trace sees mostly distinct xids, and
    /// the timeout sweep walks this map.
    in_flight: HashMap<u32, VecDeque<Pending>>,
    in_flight_count: usize,
    /// Calls sent more than once, per xid: the call (index into the
    /// connection's calls) and how many duplicate replies — the DRC
    /// answering a retransmission — it may still draw. An entry lives
    /// only while duplicates are outstanding, so the map is bounded by
    /// retransmissions, not by trace length.
    dups: HashMap<u32, (usize, u32)>,
}

impl ReplyTracker {
    fn sent(&mut self, xid: u32, local: usize, sent_at: Instant) {
        self.in_flight
            .entry(xid)
            .or_default()
            .push_back(Pending { local, sent_at });
        self.in_flight_count += 1;
    }

    fn retransmitted(&mut self, xid: u32, local: usize) {
        let entry = self.dups.entry(xid).or_insert((local, 0));
        *entry = (local, entry.1 + 1);
    }

    /// Attributes a reply to a call: the oldest in flight under its
    /// xid (with that call's send time), else a retransmitted call
    /// still owed a duplicate. `None` for a reply nothing can claim.
    fn reply(&mut self, xid: u32) -> Option<(usize, Option<Instant>)> {
        if let Some(queue) = self.in_flight.get_mut(&xid) {
            let first = queue.pop_front();
            if queue.is_empty() {
                self.in_flight.remove(&xid);
            }
            if let Some(p) = first {
                self.in_flight_count -= 1;
                return Some((p.local, Some(p.sent_at)));
            }
        }
        let (local, owed) = self.dups.get_mut(&xid)?;
        let local = *local;
        *owed -= 1;
        if *owed == 0 {
            self.dups.remove(&xid);
        }
        Some((local, None))
    }
}

/// The replay client's registry handles.
#[derive(Clone)]
struct ReplayMetrics {
    calls_sent: Counter,
    retransmits: Counter,
    writes: Counter,
    rtt_micros: Histogram,
}

/// Replays `plan` against the server at `addr`.
///
/// # Errors
///
/// Propagates connect/socket failures from any connection worker.
pub fn replay(
    plan: &ReplayPlan,
    addr: SocketAddr,
    options: &ReplayOptions,
    registry: &Registry,
) -> std::io::Result<ReplayOutcome> {
    let metrics = ReplayMetrics {
        calls_sent: registry.counter("replay.calls_sent"),
        retransmits: registry.counter("replay.retransmits"),
        writes: registry.counter("replay.writes"),
        rtt_micros: registry.histogram("replay.rtt_micros"),
    };

    // Clients → connection groups, round-robin by first appearance.
    let ips = plan.client_ips();
    let groups = options.connections.clamp(1, ips.len().max(1));
    let group_of: HashMap<u32, usize> = ips
        .iter()
        .enumerate()
        .map(|(i, ip)| (*ip, i % groups))
        .collect();
    let mut per_group: Vec<Vec<&PlannedCall>> = vec![Vec::new(); groups];
    for call in &plan.calls {
        per_group[group_of[&call.client_ip]].push(call);
    }
    let first_micros = plan.calls.first().map_or(0, |c| c.micros);
    let start = Instant::now();

    let outcomes = std::thread::scope(|scope| {
        let workers: Vec<_> = per_group
            .iter()
            .map(|calls| {
                let metrics = metrics.clone();
                scope.spawn(move || {
                    run_connection(
                        calls,
                        addr,
                        options,
                        (first_micros, start),
                        &metrics,
                        &mut ReplyTracker::default(),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay connection thread"))
            .collect::<Vec<_>>()
    });

    let mut merged = ReplayOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        merged.tap.extend(outcome.tap);
        merged.calls_sent += outcome.calls_sent;
        merged.retransmits += outcome.retransmits;
    }
    Ok(merged)
}

/// Writes a framed burst, if there is one, as a single socket write.
fn write_burst(stream: &mut TcpStream, out: &mut Vec<u8>, writes: &Counter) -> std::io::Result<()> {
    if !out.is_empty() {
        stream.write_all(out)?;
        writes.inc();
        out.clear();
    }
    Ok(())
}

/// The per-connection replay loop: window-bounded send bursts, reply
/// matching by `(xid → oldest in-flight)`, timeout retransmission.
/// `clock` pairs the trace time of the plan's first call with the
/// wall-clock start of the replay, for trace-timestamp pacing.
fn run_connection(
    calls: &[&PlannedCall],
    addr: SocketAddr,
    options: &ReplayOptions,
    clock: (u64, Instant),
    metrics: &ReplayMetrics,
    tracker: &mut ReplyTracker,
) -> std::io::Result<ReplayOutcome> {
    let (first_micros, start) = clock;
    let mut outcome = ReplayOutcome::default();
    if calls.is_empty() {
        return Ok(outcome);
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(10)))?;

    let mut reader = RecordReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut cursor = 0usize;
    // The framed burst, and the (xid, call) pairs it puts in flight or
    // retransmits; both reused across bursts.
    let mut out = Vec::new();
    let mut burst: Vec<(u32, usize)> = Vec::new();

    while cursor < calls.len() || tracker.in_flight_count > 0 {
        // Frame a burst: every call the window and pacing clock allow.
        let first = cursor;
        while cursor < calls.len() && tracker.in_flight_count + burst.len() < options.window {
            let call = calls[cursor];
            if let Pacing::Timescale { speedup } = options.pacing {
                let due_micros = (call.micros.saturating_sub(first_micros)) as f64
                    / speedup.max(f64::MIN_POSITIVE);
                if (start.elapsed().as_micros() as f64) < due_micros {
                    break;
                }
            }
            mark_record_into(&call.call_bytes, &mut out);
            outcome
                .tap
                .push(TapEvent::of(call, 0, Arc::clone(&call.call_bytes)));
            let expects_reply = call.reply_bytes.is_some();
            if expects_reply {
                burst.push((call.xid, cursor));
            }
            if let Some(every) = options.forced_retransmit_every {
                if every > 0 && (cursor + 1).is_multiple_of(every) {
                    mark_record_into(&call.call_bytes, &mut out);
                    metrics.retransmits.inc();
                    outcome.retransmits += 1;
                    outcome
                        .tap
                        .push(TapEvent::of(call, 0, Arc::clone(&call.call_bytes)));
                    if expects_reply {
                        tracker.retransmitted(call.xid, cursor);
                    }
                }
            }
            cursor += 1;
        }
        write_burst(&mut stream, &mut out, &metrics.writes)?;
        // Stamp the burst's calls once it is on the wire.
        let sent_at = Instant::now();
        for (xid, local) in burst.drain(..) {
            tracker.sent(xid, local, sent_at);
        }
        let sent = (cursor - first) as u64;
        metrics.calls_sent.add(sent);
        outcome.calls_sent += sent;

        // Drain replies.
        let mut idle = false;
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-replay",
                ));
            }
            Ok(n) => {
                reader.push(&buf[..n]);
                while let Some(reply) = reader
                    .next_record_ref()
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
                {
                    // A reply we can't attribute (too short for an xid,
                    // or no call claims it) is dropped from the tap:
                    // nothing to anchor it to.
                    let Some(xid) = reply.bytes.first_chunk().map(|x| u32::from_be_bytes(*x))
                    else {
                        continue;
                    };
                    let Some((local, sent_at)) = tracker.reply(xid) else {
                        continue;
                    };
                    if let Some(sent_at) = sent_at {
                        metrics
                            .rtt_micros
                            .record(sent_at.elapsed().as_micros() as u64);
                    }
                    outcome
                        .tap
                        .push(TapEvent::of(calls[local], 1, Arc::from(reply.bytes)));
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                idle = true;
            }
            Err(e) => return Err(e),
        }

        // Timeout-driven retransmission — only worth sweeping when the
        // connection went quiet (while replies flow, nothing in a
        // seconds-deep window can have expired). Expired calls go out
        // as one burst and are re-stamped once it is written.
        if idle {
            for (&xid, queue) in &tracker.in_flight {
                for pending in queue {
                    if pending.sent_at.elapsed() >= options.timeout {
                        let call = calls[pending.local];
                        mark_record_into(&call.call_bytes, &mut out);
                        metrics.retransmits.inc();
                        outcome.retransmits += 1;
                        outcome
                            .tap
                            .push(TapEvent::of(call, 0, Arc::clone(&call.call_bytes)));
                        burst.push((xid, pending.local));
                    }
                }
            }
            write_burst(&mut stream, &mut out, &metrics.writes)?;
            let sent_at = Instant::now();
            for (xid, local) in burst.drain(..) {
                if let Some(p) = tracker
                    .in_flight
                    .get_mut(&xid)
                    .and_then(|q| q.iter_mut().find(|p| p.local == local))
                {
                    p.sent_at = sent_at;
                }
                tracker.retransmitted(xid, local);
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NfsTcpServer;
    use crate::service::{NfsService, ReplayService};
    use nfstrace_core::record::{FileId, Op, TraceRecord};

    /// One client's calls, every xid used three times over.
    fn plan() -> ReplayPlan {
        let records: Vec<TraceRecord> = (0..300u32)
            .map(|i| {
                let mut r = TraceRecord::new(u64::from(i), Op::Getattr, FileId(2));
                r.client = 9;
                r.xid = i % 100;
                r.reply_micros = u64::from(i) + 1;
                r.post_size = Some(u64::from(i));
                r.ftype = Some(1);
                r
            })
            .collect();
        ReplayPlan::from_records(&records)
    }

    /// Replays the plan on one connection; returns its outcome and the
    /// reply tracker left behind.
    fn run(options: &ReplayOptions) -> (ReplayOutcome, ReplyTracker, u64) {
        let plan = plan();
        let registry = Registry::new();
        let service = Arc::new(ReplayService::new(&plan, 1));
        let mut server =
            NfsTcpServer::spawn(Arc::clone(&service) as Arc<dyn NfsService>, &registry).unwrap();
        let calls: Vec<&PlannedCall> = plan.calls.iter().collect();
        let metrics = ReplayMetrics {
            calls_sent: registry.counter("replay.calls_sent"),
            retransmits: registry.counter("replay.retransmits"),
            writes: registry.counter("replay.writes"),
            rtt_micros: registry.histogram("replay.rtt_micros"),
        };
        let mut tracker = ReplyTracker::default();
        let outcome = run_connection(
            &calls,
            server.addr(),
            options,
            (0, Instant::now()),
            &metrics,
            &mut tracker,
        )
        .unwrap();
        server.shutdown();
        assert_eq!(service.unplanned_calls(), 0);
        (outcome, tracker, metrics.writes.value())
    }

    #[test]
    fn reply_tracking_holds_nothing_after_a_retransmit_free_replay() {
        let (outcome, tracker, writes) = run(&ReplayOptions::default());
        assert_eq!(outcome.calls_sent, 300);
        assert_eq!(outcome.retransmits, 0);
        assert_eq!(outcome.tap.iter().filter(|e| e.dir == 1).count(), 300);
        assert!(tracker.in_flight.is_empty());
        assert!(
            tracker.dups.is_empty(),
            "duplicate tracking must not grow with the trace"
        );
        assert!(
            writes <= 300 / 4,
            "sends are coalesced into bursts ({writes} writes)"
        );
    }

    #[test]
    fn duplicate_replies_are_attributed_and_then_forgotten() {
        let (outcome, tracker, _) = run(&ReplayOptions {
            forced_retransmit_every: Some(7),
            ..ReplayOptions::default()
        });
        assert_eq!(outcome.calls_sent, 300);
        assert_eq!(outcome.retransmits, 300 / 7);
        // Every duplicate reply is tapped under the call it answers;
        // only the final call's duplicate can still be on the wire when
        // the replay ends.
        let replies = outcome.tap.iter().filter(|e| e.dir == 1).count();
        assert!(
            (300 + 300 / 7 - 1..=300 + 300 / 7).contains(&replies),
            "{replies} replies tapped"
        );
        assert!(tracker.in_flight.is_empty());
        assert!(
            tracker.dups.len() <= 1,
            "{} entries left",
            tracker.dups.len()
        );
    }
}
