//! Transports: how request envelopes reach a [`MeasurementService`] and responses come
//! back.
//!
//! The wire contract is one newline-delimited JSON envelope per request and per
//! response (PROTOCOL.md); *how* the lines travel is a [`Transport`]. Two are provided:
//!
//! * [`InProcess`] — an `Arc<MeasurementService>` called directly; the same bytes a
//!   socket would carry, with zero copies of anything else. The default for tests and
//!   embedded curators.
//! * [`Tcp`] — a `std::net` client holding one persistent connection (lazily opened,
//!   re-opened after an error).
//!
//! The server side is [`serve_tcp`]: a `std::net` accept loop feeding a fixed pool of
//! named worker threads over an mpsc channel — the same hand-rolled scoped-worker idiom
//! as `wpinq_core::shard::WorkerPool`, adapted to long-lived connections (the pool's
//! blocking `map` would hold a worker hostage per idle socket). No async runtime: the
//! vendored world has none, and a thread per active connection is exactly the right
//! cost model for a curator serving tens of analysts, not millions.
//!
//! Concurrency safety is the service's job, not the transport's: workers share one
//! `Arc<MeasurementService>` and call [`handle_line`](MeasurementService::handle_line)
//! with no transport-level locking.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::ClientError;
use crate::service::{MeasurementService, ServiceError};

/// How long a server worker waits on an idle socket before re-checking the shutdown
/// flag. Bounds shutdown latency; invisible to clients otherwise.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The longest request line a server accepts, newline excluded (PROTOCOL.md): a peer
/// that sends more is refused with `request_too_large` and disconnected, not buffered.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A bidirectional line transport: one request envelope in, one response envelope out.
///
/// `Send + Sync` so one client can be shared across analyst threads; implementations
/// must keep concurrent round trips independent (the TCP transport serializes on its
/// single connection; in-process round trips run fully parallel).
pub trait Transport: Send + Sync {
    /// Submits one request line and returns the matching response line (no trailing
    /// newline on either side).
    fn roundtrip(&self, request_line: &str) -> Result<String, ClientError>;
}

/// The in-process transport: requests go straight to the service's JSON front door.
#[derive(Clone)]
pub struct InProcess {
    service: Arc<MeasurementService>,
}

impl InProcess {
    /// Wraps a shared service.
    pub fn new(service: Arc<MeasurementService>) -> Self {
        InProcess { service }
    }

    /// The wrapped service (e.g. to inspect its audit log in tests).
    pub fn service(&self) -> &Arc<MeasurementService> {
        &self.service
    }
}

impl Transport for InProcess {
    fn roundtrip(&self, request_line: &str) -> Result<String, ClientError> {
        Ok(self.service.handle_line(request_line))
    }
}

/// The TCP client transport: newline-delimited envelopes over one persistent
/// connection, lazily opened on first use and re-opened after any I/O error.
pub struct Tcp {
    addr: String,
    conn: Mutex<Option<Connection>>,
}

/// One open connection: the reader owns the stream (requests are written through
/// `get_mut`) and keeps what the server sent past a reply's newline for the next round
/// trip; `line` is reused for the framed request, then the reply.
struct Connection {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Tcp {
    /// A transport that will connect to `addr` (e.g. `"127.0.0.1:7878"`) on first use.
    pub fn new(addr: impl Into<String>) -> Self {
        Tcp {
            addr: addr.into(),
            conn: Mutex::new(None),
        }
    }

    fn io_err(context: &str, error: std::io::Error) -> ClientError {
        ClientError::Transport(format!("{context}: {error}"))
    }
}

impl Transport for Tcp {
    fn roundtrip(&self, request_line: &str) -> Result<String, ClientError> {
        let mut conn = self.conn.lock().expect("tcp connection poisoned");
        if conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| Self::io_err(&format!("connect {}", self.addr), e))?;
            // One request per round trip: Nagle coalescing only adds delayed-ACK
            // stalls (~40 ms per exchange) to this protocol, never useful batching.
            let _ = stream.set_nodelay(true);
            *conn = Some(Connection {
                reader: BufReader::with_capacity(64 * 1024, stream),
                line: Vec::new(),
            });
        }
        let Connection { reader, line } = conn.as_mut().expect("just connected");
        let result = (|| {
            // Request and newline in a single write: two small segments would
            // otherwise invite a delayed-ACK stall between them.
            line.clear();
            line.extend_from_slice(request_line.as_bytes());
            line.push(b'\n');
            reader
                .get_mut()
                .write_all(line)
                .map_err(|e| Self::io_err("send request", e))?;
            // Block reads up to the response's newline, byte-exactly.
            line.clear();
            reader
                .read_until(b'\n', line)
                .map_err(|e| Self::io_err("read response", e))?;
            if line.pop() != Some(b'\n') {
                return Err(ClientError::Transport(
                    "connection closed before a response line".into(),
                ));
            }
            std::str::from_utf8(line)
                .map(str::to_owned)
                .map_err(|_| ClientError::Transport("response is not UTF-8".into()))
        })();
        if result.is_err() {
            // Drop the broken connection with whatever it had buffered; the next round
            // trip reconnects.
            *conn = None;
        }
        result
    }
}

/// A running TCP measurement server. Dropping the handle (or calling
/// [`shutdown`](Self::shutdown)) stops accepting, drains the workers, and joins every
/// thread; established connections are closed after their current line.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-chosen port when the server was started on
    /// port 0, as the tests and benches do).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins all of its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle({})", self.addr)
    }
}

/// Starts a TCP measurement server on `addr` with `workers` connection-handling
/// threads (clamped to ≥ 1). Bind to port 0 to let the OS pick a free port — read it
/// back from [`ServerHandle::local_addr`].
pub fn serve_tcp(
    service: Arc<MeasurementService>,
    addr: impl ToSocketAddrs,
    workers: usize,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    // The scoped-worker idiom of `wpinq_core::shard::WorkerPool`, with an mpsc queue of
    // connections instead of a blocking map: accepted sockets are handed to whichever
    // worker frees up first.
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..workers.max(1))
        .map(|index| {
            let service = service.clone();
            let rx = rx.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name(format!("wpinq-svc-worker-{index}"))
                .spawn(move || loop {
                    // Senders dropped (acceptor exited) ⇒ recv errs ⇒ worker exits.
                    let stream = match rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv()
                    {
                        Ok(stream) => stream,
                        Err(_) => break,
                    };
                    // A panic escaping one connection (a request that trips a bug) must
                    // not kill the worker — a fixed pool would otherwise drain to zero
                    // while the acceptor keeps accepting connections nobody serves. The
                    // service's locks all recover from poisoning, so unwinding past
                    // them is safe to continue from.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(&service, stream, &shutdown);
                    }));
                    if outcome.is_err() {
                        eprintln!(
                            "wpinq-svc-worker-{index}: connection handler panicked; \
                             connection dropped, worker continues"
                        );
                    }
                })
                .expect("spawn server worker")
        })
        .collect();

    let acceptor = {
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name("wpinq-svc-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // `tx` drops here: workers drain the queue and exit.
            })
            .expect("spawn server acceptor")
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Starts the Prometheus metrics endpoint on `addr`: a second, single-threaded
/// listener answering every HTTP request with the telemetry registry in Prometheus
/// text exposition format (`text/plain; version=0.0.4`). Deliberately minimal — the
/// request line and headers are read and discarded (every path scrapes the same
/// document), which is all a Prometheus scraper needs and keeps the endpoint free of
/// any parsing an operator-side port would not want exposed. Bind to port 0 for an
/// OS-chosen port; read it back from [`ServerHandle::local_addr`].
///
/// [`MeasurementService::sync_metrics`] runs before each render, so per-grant ε gauges
/// and cache-residency are current as of the scrape.
pub fn serve_metrics(
    service: Arc<MeasurementService>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name("wpinq-svc-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    serve_one_scrape(&service, stream);
                }
            })
            .expect("spawn metrics acceptor")
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers: Vec::new(),
    })
}

/// Answers one scrape: drain the HTTP request head (up to the blank line, bounded),
/// write the exposition document, close.
fn serve_one_scrape(service: &MeasurementService, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    let mut head: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    // A scraper sends a complete head promptly; cap it so a hostile peer cannot feed
    // an unbounded header stream.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    service.sync_metrics();
    let body = wpinq_telemetry::registry().render_prometheus();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream
        .write_all(response.as_bytes())
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serves one connection: newline-delimited envelopes in, one response line each out.
/// Reads with a short timeout so an idle connection never blocks server shutdown.
fn handle_connection(service: &MeasurementService, stream: TcpStream, shutdown: &AtomicBool) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    // Responses go out as soon as they are written; Nagle would pin every exchange of
    // this one-line-at-a-time protocol to the peer's delayed-ACK timer.
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    // `pending[..scanned]` is known to hold no newline: each byte is searched once.
    let mut scanned = 0;
    let mut reply: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line buffered so far. A partial line stays in `pending`
        // across reads — a request split over TCP segments is reassembled, never lost.
        let mut start = 0;
        loop {
            let newline = pending[scanned..].iter().position(|&b| b == b'\n');
            let end = newline.map_or(pending.len(), |offset| scanned + offset);
            if end - start > MAX_REQUEST_LINE {
                return refuse_and_close(stream, shutdown);
            }
            if newline.is_none() {
                break;
            }
            let Ok(text) = std::str::from_utf8(&pending[start..end]) else {
                return; // Non-UTF-8 request: drop the connection.
            };
            if !text.trim().is_empty() {
                // Reply and newline leave in one write from one reused buffer.
                reply.clear();
                reply.extend_from_slice(service.handle_line(text.trim()).as_bytes());
                reply.push(b'\n');
                if stream.write_all(&reply).is_err() {
                    return;
                }
            }
            start = end + 1;
            scanned = start;
        }
        pending.drain(..start);
        scanned = pending.len();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // Peer closed.
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue; // Idle poll tick: loop to re-check the shutdown flag.
            }
            Err(_) => return,
        }
    }
}

/// Answers an over-long request line with one `request_too_large` error line and
/// closes. What the peer is still sending is discarded until it stops: closing on
/// unread input would reset the connection, and the reset can overtake the error line.
fn refuse_and_close(mut stream: TcpStream, shutdown: &AtomicBool) {
    let mut refusal = ServiceError::RequestTooLarge {
        limit: MAX_REQUEST_LINE,
    }
    .to_json_with_id(None)
    .to_compact();
    refusal.push('\n');
    let _ = stream.write_all(refusal.as_bytes());
    let mut discard = [0u8; 4096];
    // Ends at end of stream, on an error, or after one quiet `IDLE_POLL`.
    while !shutdown.load(Ordering::SeqCst) && matches!(stream.read(&mut discard), Ok(n) if n > 0) {}
}
