//! `sprout_served` — the routing-service daemon.
//!
//! Starts a [`RoutingService`] — or, with `--fleet N`, a
//! [`FleetCoordinator`] over N worker processes — and serves the same
//! HTTP/1.1 JSON API until interrupted (or until `--run-for-ms`
//! elapses, for scripted smoke tests). SIGTERM triggers a graceful
//! stop: the in-process service finishes its queue; the fleet stops
//! leasing, lets in-flight jobs finish, and leaves queued work
//! journaled for the next coordinator.
//!
//! ```text
//! sprout_served [--addr 127.0.0.1:7171] [--workers N] [--queue-capacity N]
//!               [--data-dir DIR] [--deadline-ms MS] [--run-for-ms MS]
//!               [--fleet N]
//! ```

#[path = "common/cli.rs"]
mod cli;

use cli::{or_exit, parse, take};
use sprout_serve::fleet::{sigterm_flag, FleetConfig, FleetCoordinator};
use sprout_serve::http::HttpServer;
use sprout_serve::ledger::{Executor, Ledger, ServeError};
use sprout_serve::service::{RoutingService, ServiceConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut config = ServiceConfig::default();
    let mut run_for_ms: Option<u64> = None;
    let mut fleet_workers: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&args, &mut i, "--addr"),
            "--workers" => config.workers = parse(&take(&args, &mut i, "--workers"), "--workers"),
            "--queue-capacity" => {
                config.queue_capacity =
                    parse(&take(&args, &mut i, "--queue-capacity"), "--queue-capacity")
            }
            "--data-dir" => config.data_dir = Some(take(&args, &mut i, "--data-dir").into()),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(parse(
                    &take(&args, &mut i, "--deadline-ms"),
                    "--deadline-ms",
                ))
            }
            "--run-for-ms" => {
                run_for_ms = Some(parse(&take(&args, &mut i, "--run-for-ms"), "--run-for-ms"))
            }
            "--fleet" => fleet_workers = Some(parse(&take(&args, &mut i, "--fleet"), "--fleet")),
            "--help" | "-h" => {
                println!(
                    "sprout_served [--addr A] [--workers N] [--queue-capacity N] \
                     [--data-dir DIR] [--deadline-ms MS] [--run-for-ms MS] [--fleet N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    match fleet_workers {
        Some(workers) => {
            let fleet = FleetCoordinator::start(FleetConfig {
                workers,
                queue_capacity: config.queue_capacity,
                data_dir: config.data_dir,
                default_deadline_ms: config.default_deadline_ms,
                worker_args: vec!["--router".into(), "fast".into()],
                ..FleetConfig::default()
            });
            serve(
                &addr,
                fleet,
                &format!("fleet, {workers} workers"),
                run_for_ms,
                |f| {
                    f.drain(Duration::from_secs(60));
                },
            )
        }
        None => {
            let service = RoutingService::start(config);
            serve(&addr, service, "in-process", run_for_ms, |s| {
                s.shutdown(true)
            })
        }
    }
}

/// Serves `backend` over HTTP until SIGTERM (or `--run-for-ms`), then
/// stops it with `stop`: the fleet drains its leases, the in-process
/// service drains its queue.
fn serve<E: Executor>(
    addr: &str,
    backend: Result<Ledger<E>, ServeError>,
    mode: &str,
    run_for_ms: Option<u64>,
    stop: impl FnOnce(&Ledger<E>),
) {
    let sigterm = sigterm_flag();
    let backend = Arc::new(or_exit(backend, "sprout_served"));
    let bound = HttpServer::bind(addr, Arc::clone(&backend));
    let mut server = or_exit(bound, &format!("sprout_served: bind {addr}"));
    println!(
        "sprout_served listening on http://{} ({mode})",
        server.addr()
    );

    let stop_at = run_for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if sigterm.load(Ordering::SeqCst) {
            eprintln!("sprout_served: SIGTERM — draining");
            break;
        }
        if stop_at.is_some_and(|t| Instant::now() >= t) {
            break;
        }
    }

    server.stop();
    stop(&backend);
    println!("sprout_served: drained; {}", backend.metrics().to_json());
}
