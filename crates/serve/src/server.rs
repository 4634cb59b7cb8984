//! The serving loop proper: a concurrent NFS/RPC server on loopback TCP.
//!
//! RFC 1813-shaped dispatch over the stream transport real NFSv3
//! deployments used: record-marked RPC ([`nfstrace_rpc::record`]), one
//! OS thread per client connection, replies written back on the
//! connection the call arrived on with the call's XID. What to answer
//! is delegated to an [`NfsService`] — a live filesystem or a trace
//! replay plan — so the transport loop is identical in both modes.
//!
//! Replies are coalesced: every record one `read` completed is served
//! in arrival order, its record-marked reply appended to one reused
//! buffer, and the buffer goes out in a single `write`. Pipelined calls
//! thus cost one syscall per burst in each direction, not one per
//! message.
//!
//! Telemetry (all in the shared registry): `serve.calls`,
//! `serve.writes`, `serve.bytes_in`, `serve.bytes_out`,
//! `serve.active_conns`, `serve.dispatch_micros`.

use crate::service::NfsService;
use nfstrace_rpc::record::{mark_record_into, RecordReader};
use nfstrace_telemetry::{Counter, Gauge, Histogram, Registry};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking
/// the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

#[derive(Clone)]
struct ServeMetrics {
    calls: Counter,
    writes: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    active_conns: Gauge,
    dispatch_micros: Histogram,
    /// Gauges are set, not added; track the live count separately.
    conns: Arc<AtomicI64>,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> Self {
        ServeMetrics {
            calls: registry.counter("serve.calls"),
            writes: registry.counter("serve.writes"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            active_conns: registry.gauge("serve.active_conns"),
            dispatch_micros: registry.histogram("serve.dispatch_micros"),
            conns: Arc::new(AtomicI64::new(0)),
        }
    }

    fn conn_opened(&self) {
        let now = self.conns.fetch_add(1, Ordering::Relaxed) + 1;
        self.active_conns.set(now as f64);
    }

    fn conn_closed(&self) {
        let now = self.conns.fetch_sub(1, Ordering::Relaxed) - 1;
        self.active_conns.set(now as f64);
    }
}

/// A running serving loop; dropping it (or calling
/// [`NfsTcpServer::shutdown`]) stops the listener and joins every
/// connection thread.
#[derive(Debug)]
pub struct NfsTcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
}

impl NfsTcpServer {
    /// Binds `127.0.0.1:0` and starts accepting. Every connection gets
    /// its own thread running the record-marked dispatch loop against
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(service: Arc<dyn NfsService>, registry: &Registry) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = ServeMetrics::register(registry);
        let accept_stop = Arc::clone(&stop);
        let listener_thread = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let stop = Arc::clone(&accept_stop);
                        let metrics = metrics.clone();
                        conns.push(std::thread::spawn(move || {
                            serve_connection(stream, &*service, &stop, &metrics);
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(NfsTcpServer {
            addr,
            stop,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the connection threads, and returns.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NfsTcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection: split records out of the byte stream, serve each,
/// and write the record-marked replies to every record a read
/// completed back in one write.
fn serve_connection(
    stream: TcpStream,
    service: &dyn NfsService,
    stop: &AtomicBool,
    metrics: &ServeMetrics,
) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(READ_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    metrics.conn_opened();
    let mut reader = RecordReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        metrics.bytes_in.add(n as u64);
        reader.push(&buf[..n]);
        out.clear();
        // A framing error is unrecoverable on a byte stream: answer the
        // records before it, then drop the connection, as a real server
        // would.
        let framing_ok = loop {
            let record = match reader.next_record_ref() {
                Ok(Some(r)) => r,
                Ok(None) => break true,
                Err(_) => break false,
            };
            metrics.calls.inc();
            let started = Instant::now();
            let reply = service.serve(record.bytes);
            metrics
                .dispatch_micros
                .record(started.elapsed().as_micros() as u64);
            if let Some(reply) = reply {
                mark_record_into(&reply, &mut out);
            }
        };
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                break;
            }
            metrics.writes.inc();
            metrics.bytes_out.add(out.len() as u64);
        }
        if !framing_ok {
            break;
        }
    }
    metrics.conn_closed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_rpc::record::mark_record;

    /// Answers every call with its bytes reversed; stays silent on an
    /// empty call.
    struct Reverse;

    impl NfsService for Reverse {
        fn serve(&self, call_msg: &[u8]) -> Option<Vec<u8>> {
            (!call_msg.is_empty()).then(|| call_msg.iter().rev().copied().collect())
        }
    }

    /// Reads until `n` records arrived on `stream`.
    fn read_records(stream: &mut TcpStream, n: usize) -> Vec<Vec<u8>> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = RecordReader::new();
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        while out.len() < n {
            let got = stream.read(&mut buf).expect("replies before the timeout");
            assert!(got > 0, "server closed early");
            reader.push(&buf[..got]);
            while let Some(r) = reader.next_record().unwrap() {
                out.push(r);
            }
        }
        out
    }

    #[test]
    fn pipelined_records_are_answered_in_order_with_one_write() {
        let registry = Registry::new();
        let mut server = NfsTcpServer::spawn(Arc::new(Reverse), &registry).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();

        // Three calls and a silent one, in a single write.
        let mut burst = Vec::new();
        for msg in [&b"abc"[..], b"", b"hello", b"xy"] {
            mark_record_into(msg, &mut burst);
        }
        client.write_all(&burst).unwrap();
        let replies = read_records(&mut client, 3);
        assert_eq!(replies, [&b"cba"[..], b"olleh", b"yx"]);

        // A record split across two reads is still served.
        let split = mark_record(b"split call");
        client.write_all(&split[..6]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        client.write_all(&split[6..]).unwrap();
        assert_eq!(read_records(&mut client, 1), [b"llac tilps"]);

        drop(client);
        server.shutdown();
        assert_eq!(registry.counter("serve.calls").value(), 5);
        assert_eq!(
            registry.counter("serve.writes").value(),
            2,
            "one write per read that completed records"
        );
    }
}
