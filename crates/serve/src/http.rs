//! A hardened, dependency-free HTTP/1.1 front end for a job
//! [`Ledger`], whichever executor runs its attempts.
//!
//! Deliberately minimal: one request per connection
//! (`Connection: close`), thread-per-connection with a hard cap, and a
//! parser with explicit limits on request-line, header, and body sizes.
//! Anything outside those limits is answered with a typed status code
//! — the server never panics on hostile input and never buffers an
//! unbounded body.
//!
//! Routes:
//!
//! | Method | Path               | Meaning                             |
//! |--------|--------------------|-------------------------------------|
//! | POST   | `/jobs`            | submit a [`JobSpec`] (JSON body)    |
//! | GET    | `/jobs`            | snapshots of all jobs               |
//! | GET    | `/jobs/<id>`       | one job's snapshot                  |
//! | GET    | `/jobs/<id>/events`| live NDJSON event stream (chunked); |
//! |        |                    | `?since=seq` long-polls instead     |
//! | GET    | `/jobs/<id>/profile`| the job's performance profile      |
//! |        |                    | (timeline summary + ScalingDiagnosis)|
//! | POST   | `/jobs/<id>/cancel`| cancel a job                        |
//! | GET    | `/healthz`         | liveness (always 200 while serving) |
//! | GET    | `/readyz`          | readiness (503 when not `Ready`)    |
//! | GET    | `/metrics`         | metrics as JSON, or Prometheus text |
//! |        |                    | via `Accept: text/plain` or         |
//! |        |                    | `?format=prometheus`                |
//!
//! Backpressure surfaces as HTTP: a saturated queue is `429` with a
//! `Retry-After` header, a draining service is `503`. The event stream
//! applies a write timeout, so a consumer that stops reading gets its
//! connection dropped instead of wedging a server thread.

use crate::events::{EventBus, EventKind};
use crate::job::{JobSnapshot, JobSpec};
use crate::ledger::{Executor, Ledger, Readiness, SubmitError};
use sprout_telemetry::json::Obj;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum request-line length (bytes).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum single header line (bytes).
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum header count.
const MAX_HEADERS: usize = 64;
/// Maximum request body (bytes) — far above any legitimate [`JobSpec`].
const MAX_BODY: usize = 1024 * 1024;
/// Per-connection read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-connection write timeout — a consumer that stops reading a
/// chunked stream errors the writer out instead of wedging it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Concurrent connections before the listener answers 503 immediately.
const MAX_CONNECTIONS: usize = 64;
/// How long one `?since=` long-poll blocks before returning empty.
const LONG_POLL_TIMEOUT: Duration = Duration::from_millis(1500);
/// Streaming wake-up granularity: the event wait per loop turn, between
/// which the writer probes for a silent client disconnect.
const STREAM_TICK: Duration = Duration::from_millis(250);

/// The service surface the HTTP front end routes to. The job
/// [`Ledger`] implements it over either executor — the in-process
/// [`RoutingService`](crate::service::RoutingService) or the
/// multi-process [`FleetCoordinator`](crate::fleet::FleetCoordinator) —
/// so the same daemon binary can front either.
pub trait JobBackend: Send + Sync {
    /// Admit a job; `Err` carries the backpressure/validation verdict.
    fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError>;
    /// One job's snapshot, if known.
    fn status(&self, id: u64) -> Option<JobSnapshot>;
    /// Snapshots of every job.
    fn jobs(&self) -> Vec<JobSnapshot>;
    /// Request cancellation; `true` if the job could still be cancelled.
    fn cancel(&self, id: u64) -> bool;
    /// Readiness verdict for `/readyz`.
    fn ready(&self) -> Readiness;
    /// The `/metrics` JSON body.
    fn metrics_json(&self) -> String;
    /// The `/metrics` Prometheus text-exposition body.
    fn metrics_prometheus(&self) -> String;
    /// The per-job event bus backing `/jobs/<id>/events`.
    fn events(&self) -> Arc<EventBus>;
    /// The job's performance profile (JSON), if one was recorded.
    fn profile(&self, id: u64) -> Option<String>;
}

impl<E: Executor> JobBackend for Ledger<E> {
    fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        Ledger::submit(self, spec)
    }
    fn status(&self, id: u64) -> Option<JobSnapshot> {
        Ledger::status(self, id)
    }
    fn jobs(&self) -> Vec<JobSnapshot> {
        Ledger::jobs(self)
    }
    fn cancel(&self, id: u64) -> bool {
        Ledger::cancel(self, id)
    }
    fn ready(&self) -> Readiness {
        Ledger::ready(self)
    }
    fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }
    fn metrics_prometheus(&self) -> String {
        self.metrics().to_prometheus(E::PREFIX)
    }
    fn events(&self) -> Arc<EventBus> {
        Ledger::events(self)
    }
    fn profile(&self, id: u64) -> Option<String> {
        Ledger::profile(self, id)
    }
}

/// The HTTP server handle. Dropping it stops the listener.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves `service` until [`HttpServer::stop`] or drop.
    ///
    /// # Errors
    ///
    /// The bind error as a string.
    pub fn bind<B: JobBackend + 'static>(
        addr: &str,
        service: Arc<B>,
    ) -> Result<HttpServer, String> {
        let service: Arc<dyn JobBackend> = service;
        let listener = TcpListener::bind(addr).map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let live = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::Builder::new()
            .name("sprout-serve-http".into())
            .spawn(move || {
                // A short accept timeout lets the loop observe `stop`.
                let _ = listener.set_nonblocking(false);
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                        let _ = respond_plain(&stream, 503, "Service Unavailable", "over capacity");
                        continue;
                    }
                    live.fetch_add(1, Ordering::SeqCst);
                    let service = Arc::clone(&service);
                    let live = Arc::clone(&live);
                    let _ = std::thread::Builder::new()
                        .name("sprout-serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(&stream, &*service);
                            live.fetch_sub(1, Ordering::SeqCst);
                        });
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one last local connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Request {
    method: String,
    path: String,
    query: String,
    accept: String,
    body: String,
}

enum ParseOutcome {
    Ok(Request),
    /// `(status, reason, detail)` — the request was rejected before
    /// reaching a route.
    Reject(u16, &'static str, String),
}

fn handle_connection(stream: &TcpStream, service: &dyn JobBackend) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let request = match parse_request(stream) {
        Ok(ParseOutcome::Ok(r)) => r,
        Ok(ParseOutcome::Reject(status, reason, detail)) => {
            return respond_plain(stream, status, reason, &detail);
        }
        Err(_) => return respond_plain(stream, 408, "Request Timeout", "read failed"),
    };
    route(stream, service, &request)
}

fn parse_request(stream: &TcpStream) -> std::io::Result<ParseOutcome> {
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_line(&mut line)?;
    if n == 0 || n > MAX_REQUEST_LINE {
        return Ok(ParseOutcome::Reject(
            414,
            "URI Too Long",
            "request line too long or empty".into(),
        ));
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(ParseOutcome::Reject(
            400,
            "Bad Request",
            "malformed request line".into(),
        ));
    };
    let method = method.to_owned();
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (path.to_owned(), String::new()),
    };

    let mut content_length = 0usize;
    let mut accept = String::new();
    for _ in 0..MAX_HEADERS {
        let mut header = String::new();
        let n = reader
            .by_ref()
            .take(MAX_HEADER_LINE as u64 + 1)
            .read_line(&mut header)?;
        if n == 0 || n > MAX_HEADER_LINE {
            return Ok(ParseOutcome::Reject(
                431,
                "Request Header Fields Too Large",
                "header too long or connection closed mid-headers".into(),
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            let body = if content_length > 0 {
                let mut buf = vec![0u8; content_length];
                reader.read_exact(&mut buf)?;
                match String::from_utf8(buf) {
                    Ok(s) => s,
                    Err(_) => {
                        return Ok(ParseOutcome::Reject(
                            400,
                            "Bad Request",
                            "body is not UTF-8".into(),
                        ))
                    }
                }
            } else {
                String::new()
            };
            return Ok(ParseOutcome::Ok(Request {
                method,
                path,
                query,
                accept,
                body,
            }));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(len) if len <= MAX_BODY => content_length = len,
                    _ => {
                        return Ok(ParseOutcome::Reject(
                            413,
                            "Payload Too Large",
                            format!("content-length above the {MAX_BODY}-byte cap"),
                        ))
                    }
                }
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_ascii_lowercase();
            }
        }
    }
    Ok(ParseOutcome::Reject(
        431,
        "Request Header Fields Too Large",
        "too many headers".into(),
    ))
}

fn route(stream: &TcpStream, service: &dyn JobBackend, req: &Request) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => match JobSpec::parse(&req.body) {
            Ok(spec) => match service.submit(spec) {
                Ok(id) => {
                    let mut o = Obj::new();
                    o.u64("id", id).str("state", "queued");
                    respond_json(stream, 202, "Accepted", &o.finish(), &[])
                }
                Err(SubmitError::Saturated { retry_after_ms }) => {
                    let retry_s = (retry_after_ms / 1e3).ceil().max(1.0) as u64;
                    let header = format!("Retry-After: {retry_s}");
                    let mut o = Obj::new();
                    o.str("error", "queue saturated")
                        .f64("retry_after_ms", retry_after_ms);
                    respond_json(stream, 429, "Too Many Requests", &o.finish(), &[&header])
                }
                Err(SubmitError::Draining) => {
                    respond_plain(stream, 503, "Service Unavailable", "draining")
                }
                Err(SubmitError::Invalid(e)) => {
                    respond_plain(stream, 400, "Bad Request", &e.to_string())
                }
                Err(SubmitError::Journal(e)) => {
                    respond_plain(stream, 500, "Internal Server Error", &e)
                }
            },
            Err(e) => respond_plain(stream, 400, "Bad Request", &e.to_string()),
        },
        ("GET", "/jobs") => {
            let body = sprout_telemetry::json::array(service.jobs().iter().map(|j| j.to_json()));
            respond_json(stream, 200, "OK", &body, &[])
        }
        ("GET", "/healthz") => respond_plain(stream, 200, "OK", "alive"),
        ("GET", "/readyz") => {
            let r = service.ready();
            let (status, reason) = match r {
                Readiness::Ready | Readiness::Overloaded => (200, "OK"),
                Readiness::Draining => (503, "Service Unavailable"),
            };
            respond_plain(stream, status, reason, r.name())
        }
        ("GET", "/metrics") => {
            // Content negotiation: Prometheus scrapers send
            // `Accept: text/plain` (or set `?format=prometheus`);
            // everything else keeps the JSON body.
            let wants_prom = query_param(&req.query, "format").as_deref() == Some("prometheus")
                || (req.accept.contains("text/plain") && !req.accept.contains("application/json"));
            if wants_prom {
                let body = service.metrics_prometheus();
                respond(stream, 200, "OK", "text/plain; version=0.0.4", &body, &[])
            } else {
                respond_json(stream, 200, "OK", &service.metrics_json(), &[])
            }
        }
        (method, path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, sub) = rest.split_once('/').unwrap_or((rest, ""));
            let Ok(id) = id.parse::<u64>() else {
                return respond_plain(stream, 400, "Bad Request", "bad job id");
            };
            let known = service.status(id);
            match (method, sub, known) {
                ("GET", "", Some(snap)) => respond_json(stream, 200, "OK", &snap.to_json(), &[]),
                ("GET", "events", Some(_)) => serve_events(stream, service, id, req),
                ("GET", "profile", Some(_)) => match service.profile(id) {
                    Some(body) => respond_json(stream, 200, "OK", &body, &[]),
                    None => respond_plain(stream, 404, "Not Found", "no profile recorded"),
                },
                ("GET", "" | "events" | "profile", None) => {
                    respond_plain(stream, 404, "Not Found", "unknown job")
                }
                ("POST", "cancel", _) if service.cancel(id) => {
                    respond_plain(stream, 200, "OK", "cancelling")
                }
                ("POST", "cancel", _) => {
                    respond_plain(stream, 404, "Not Found", "unknown or terminal job")
                }
                _ => respond_plain(stream, 404, "Not Found", "no such route"),
            }
        }
        _ => respond_plain(stream, 404, "Not Found", "no such route"),
    }
}

/// `GET /jobs/<id>/events` — with `?since=seq` a single bounded
/// long-poll response, otherwise a chunked NDJSON stream that ends
/// after the job's terminal event.
fn serve_events(
    stream: &TcpStream,
    service: &dyn JobBackend,
    id: u64,
    req: &Request,
) -> std::io::Result<()> {
    let bus = service.events();

    if let Some(since) = query_param(&req.query, "since") {
        let Ok(since) = since.parse::<u64>() else {
            return respond_plain(stream, 400, "Bad Request", "bad since cursor");
        };
        let page = bus.wait_since(id, since, LONG_POLL_TIMEOUT);
        let mut body = String::new();
        for ev in &page.events {
            body.push_str(&ev.line);
            body.push('\n');
        }
        let dropped = format!("X-Dropped-Events: {}", page.dropped);
        let terminal = format!("X-Stream-Terminal: {}", page.terminal);
        let ndjson = "application/x-ndjson";
        return respond(stream, 200, "OK", ndjson, &body, &[&dropped, &terminal]);
    }

    // Streaming path. The write timeout is the backpressure boundary:
    // a consumer that stops reading fills the socket buffer and the
    // next chunk write errors out, freeing the thread. The routing hot
    // path never blocks either way — publishers only append to the
    // ring.
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut w = stream;
    w.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    w.flush()?;

    let mut since = 0u64;
    loop {
        let page = bus.wait_since(id, since, STREAM_TICK);
        let mut saw_terminal = false;
        for ev in &page.events {
            since = ev.seq;
            write_chunk(stream, &format!("{}\n", ev.line))?;
            if ev.kind == EventKind::Terminal {
                saw_terminal = true;
            }
        }
        if saw_terminal || (page.terminal && page.events.is_empty()) {
            break;
        }
        // Idle tick: probe for a silent client disconnect so an
        // abandoned stream on a quiet job does not pin a thread.
        if page.events.is_empty() && client_gone(stream) {
            return Ok(());
        }
    }
    let mut w = stream;
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// One HTTP/1.1 chunk: hex length, CRLF, data, CRLF.
fn write_chunk(mut stream: &TcpStream, data: &str) -> std::io::Result<()> {
    let framed = format!("{:x}\r\n{data}\r\n", data.len());
    stream.write_all(framed.as_bytes())?;
    stream.flush()
}

/// `true` when the peer has closed its end — a non-blocking peek sees
/// EOF. `WouldBlock` means the client is still there, just quiet.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// The value of `key` in a raw query string (`a=1&b=2`), undecoded.
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_owned())
    })
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[&str],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn respond_json(
    stream: &TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    extra_headers: &[&str],
) -> std::io::Result<()> {
    respond(
        stream,
        status,
        reason,
        "application/json",
        body,
        extra_headers,
    )
}

fn respond_plain(stream: &TcpStream, status: u16, reason: &str, body: &str) -> std::io::Result<()> {
    respond(stream, status, reason, "text/plain", body, &[])
}
