//! Live-observability acceptance suite: the `GET /jobs/<id>/events`
//! stream and the Prometheus `/metrics` exposition.
//!
//! The streaming contract, asserted in-process and in fleet mode:
//! **every job's stream carries at least one progress event per
//! supervisor wave and exactly one terminal event, in order, and the
//! stream ends right after the terminal event.** The HTTP robustness
//! tests drive the endpoint the way hostile or unlucky clients do —
//! slowloris, oversized request lines, mid-stream disconnects — and
//! assert the server stays responsive throughout.

use sprout_serve::chaos::ServeFaultPlan;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::http::HttpServer;
use sprout_serve::job::JobSpec;
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker::fast_router;
use sprout_telemetry::json::{parse, Json};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        router: fast_router(),
        ..ServiceConfig::default()
    }
}

/// A per-test data directory under the system temp dir, wiped first.
fn data_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sprout-stream-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// One raw HTTP/1.1 request; returns the full response text (the
/// server closes every connection after one response).
fn request(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn status_code(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Reassembles a chunked body. Tolerates truncation (the disconnect
/// tests cut streams mid-chunk on purpose).
fn dechunk(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    while let Some((len_line, tail)) = rest.split_once("\r\n") {
        let Ok(len) = usize::from_str_radix(len_line.trim(), 16) else {
            break;
        };
        if len == 0 || tail.len() < len {
            out.push_str(&tail[..len.min(tail.len())]);
            break;
        }
        out.push_str(&tail[..len]);
        rest = tail.get(len + 2..).unwrap_or("");
    }
    out
}

/// Streams `/jobs/<id>/events` to completion and returns the parsed
/// events as `(event kind, full object)` in arrival order.
fn stream_events(addr: std::net::SocketAddr, id: u64) -> Vec<(String, Json)> {
    let response = get(addr, &format!("/jobs/{id}/events"));
    assert_eq!(status_code(&response), 200, "stream rejected: {response}");
    assert!(
        response.contains("Transfer-Encoding: chunked"),
        "stream must be chunked: {response}"
    );
    let ndjson = dechunk(body_of(&response));
    ndjson
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let root = parse(l).unwrap_or_else(|e| panic!("bad NDJSON line {l:?}: {e}"));
            let kind = root
                .get("event")
                .and_then(Json::as_str)
                .expect("event field")
                .to_owned();
            (kind, root)
        })
        .collect()
}

/// The streaming contract over one job's full event list.
fn assert_stream_contract(events: &[(String, Json)], id: u64) {
    assert!(!events.is_empty(), "job {id}: empty stream");
    let progress: Vec<&Json> = events
        .iter()
        .filter(|(k, _)| k == "progress")
        .map(|(_, j)| j)
        .collect();
    assert!(!progress.is_empty(), "job {id}: no progress events");
    // ≥1 progress event per supervisor wave: the distinct wave indices
    // seen must cover every wave the supervisor reported.
    let waves_total = progress
        .iter()
        .filter_map(|j| j.get("waves").and_then(Json::as_u64))
        .max()
        .expect("waves field");
    let waves_seen: BTreeSet<u64> = progress
        .iter()
        .filter_map(|j| j.get("wave").and_then(Json::as_u64))
        .collect();
    assert_eq!(
        waves_seen.len() as u64,
        waves_total,
        "job {id}: progress covered waves {waves_seen:?} of {waves_total}"
    );
    let terminals = events.iter().filter(|(k, _)| k == "terminal").count();
    assert_eq!(terminals, 1, "job {id}: {terminals} terminal events");
    assert_eq!(
        events.last().map(|(k, _)| k.as_str()),
        Some("terminal"),
        "job {id}: stream must end on the terminal event"
    );
    // Sequence numbers are strictly increasing — replay in order.
    let seqs: Vec<u64> = events
        .iter()
        .filter_map(|(_, j)| j.get("seq").and_then(Json::as_u64))
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "job {id}: seqs not monotone: {seqs:?}"
    );
    for (_, j) in events {
        assert_eq!(
            j.get("job").and_then(Json::as_u64),
            Some(id),
            "event attributed to the wrong job"
        );
    }
}

#[test]
fn stream_covers_every_wave_and_ends_on_terminal_in_process() {
    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let id = svc.submit(JobSpec::two_rail(22.0)).expect("submit");

    let events = stream_events(server.addr(), id);
    assert_stream_contract(&events, id);
    // In-process streams also carry pipeline stage spans via the
    // telemetry recorder — grow at minimum.
    let stages: Vec<&str> = events
        .iter()
        .filter(|(k, _)| k == "stage")
        .filter_map(|(_, j)| j.get("stage").and_then(Json::as_str))
        .collect();
    assert!(
        stages.contains(&"grow"),
        "expected a grow stage event, got {stages:?}"
    );

    svc.shutdown(true);
}

#[test]
fn stream_is_identical_in_fleet_mode() {
    let fleet = Arc::new(
        FleetCoordinator::start(FleetConfig {
            workers: 2,
            worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
            worker_args: vec!["--router".into(), "fast".into()],
            data_dir: Some(data_dir("fleetstream")),
            ..FleetConfig::default()
        })
        .expect("fleet start"),
    );
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let ids: Vec<u64> = (0..2)
        .map(|k| {
            fleet
                .submit(JobSpec::two_rail(20.0 + k as f64 * 2.0))
                .expect("submit")
        })
        .collect();

    for &id in &ids {
        let events = stream_events(server.addr(), id);
        assert_stream_contract(&events, id);
        // Worker stage frames fan in over the protocol and reappear as
        // stage events — the fleet stream is not just wave-granular.
        assert!(
            events.iter().any(|(k, _)| k == "stage"),
            "job {id}: fleet stream carried no stage events"
        );
    }
    fleet.drain(Duration::from_secs(30));
}

#[test]
fn since_long_poll_replay_is_idempotent() {
    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let id = svc.submit(JobSpec::two_rail(22.0)).expect("submit");
    assert!(
        svc.wait_idle(Duration::from_secs(120)),
        "job did not settle"
    );

    let first = get(server.addr(), &format!("/jobs/{id}/events?since=0"));
    let second = get(server.addr(), &format!("/jobs/{id}/events?since=0"));
    assert_eq!(status_code(&first), 200);
    assert_eq!(
        body_of(&first),
        body_of(&second),
        "same cursor must replay the same events"
    );
    assert!(first.contains("X-Stream-Terminal: true"));
    assert!(!body_of(&first).trim().is_empty());

    // A cursor past the end returns an empty page, still terminal.
    let last_seq = body_of(&first)
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter_map(|j| j.get("seq").and_then(Json::as_u64))
        .max()
        .expect("at least one event");
    let tail = get(
        server.addr(),
        &format!("/jobs/{id}/events?since={last_seq}"),
    );
    assert!(
        body_of(&tail).trim().is_empty(),
        "past-the-end replay: {tail}"
    );
    assert!(tail.contains("X-Stream-Terminal: true"));

    svc.shutdown(true);
}

#[test]
fn metrics_negotiates_prometheus_and_the_exposition_lints() {
    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let id = svc.submit(JobSpec::two_rail(22.0)).expect("submit");
    assert!(
        svc.wait_idle(Duration::from_secs(120)),
        "job did not settle"
    );
    let _ = id;

    // Default stays JSON.
    let json = get(server.addr(), "/metrics");
    assert!(body_of(&json).trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"events_published\""));

    // ?format=prometheus and Accept: text/plain both negotiate text.
    for req in [
        "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    ] {
        let response = request(server.addr(), req);
        assert_eq!(status_code(&response), 200);
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "{response}"
        );
        let body = body_of(&response);
        sprout_telemetry::prom::lint(body)
            .unwrap_or_else(|e| panic!("exposition failed lint: {e}\n{body}"));
        assert!(body.contains("sprout_serve_completed_total 1"), "{body}");
        assert!(
            body.contains("sprout_serve_events_published_total"),
            "{body}"
        );
        assert!(
            body.contains("sprout_serve_queue_wait_ms{quantile=\"0.99\"}"),
            "{body}"
        );
    }

    svc.shutdown(true);
}

#[test]
fn oversized_request_line_is_rejected_with_414() {
    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");

    let long_path = "a".repeat(9 * 1024);
    let response = request(
        server.addr(),
        &format!("GET /{long_path} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert_eq!(status_code(&response), 414, "{response}");

    // The server is still healthy afterwards.
    assert_eq!(status_code(&get(server.addr(), "/healthz")), 200);
    svc.shutdown(true);
}

#[test]
fn slowloris_mid_request_times_out_with_408() {
    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");

    // Send half a request line and go silent; the read timeout must
    // reclaim the thread with a typed response rather than wait
    // forever.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /jo").expect("partial write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert_eq!(status_code(&response), 408, "{response}");

    assert_eq!(status_code(&get(server.addr(), "/healthz")), 200);
    svc.shutdown(true);
}

#[test]
fn client_disconnect_mid_stream_does_not_wedge_the_server() {
    let svc = Arc::new(
        RoutingService::start(ServiceConfig {
            // Slow every attempt down so the stream is still live when
            // the client walks away.
            fault: Some(ServeFaultPlan {
                seed: 1,
                panic_rate: 0.0,
                kill_rate: 0.0,
                slow_rate: 1.0,
                slow_ms: 300,
            }),
            ..service_config()
        })
        .expect("start"),
    );
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let id = svc.submit(JobSpec::two_rail(22.0)).expect("submit");

    // Open the stream, read only the response head, and hang up.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("write request");
        let mut head = [0u8; 64];
        let _ = stream.read(&mut head);
        // Dropped here: mid-stream disconnect.
    }

    // The abandoned writer must not wedge a connection slot: the
    // server keeps answering and the job still terminates cleanly.
    for _ in 0..3 {
        assert_eq!(status_code(&get(server.addr(), "/healthz")), 200);
    }
    assert!(
        svc.wait_idle(Duration::from_secs(120)),
        "job did not settle"
    );
    let full = stream_events(server.addr(), id);
    assert_stream_contract(&full, id);
    svc.shutdown(true);
}
