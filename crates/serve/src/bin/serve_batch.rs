//! `serve_batch` — batch client driving a [`RoutingService`] in
//! process.
//!
//! Submits a sweep of jobs (budget variants over a board preset),
//! waits for every terminal state, and reports throughput and latency.
//! Exits nonzero if any accepted job was lost (no terminal state) or
//! any terminal-state invariant broke — so the binary doubles as a
//! scriptable smoke check.
//!
//! ```text
//! serve_batch [--jobs N] [--workers N] [--queue-capacity N]
//!             [--deadline-ms MS] [--chaos-seed S] [--quiet]
//! ```

#[path = "common/batch.rs"]
mod batch;
#[path = "common/cli.rs"]
mod cli;

use batch::{submit_sweep, Tally};
use cli::{or_exit, parse, take};
use sprout_serve::chaos::ServeFaultPlan;
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker::fast_router;
use std::time::{Duration, Instant};

fn main() {
    let mut jobs = 8usize;
    let mut workers = 2usize;
    let mut queue_capacity = 64usize;
    let mut deadline_ms: Option<f64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut quiet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => jobs = parse(&take(&args, &mut i, "--jobs"), "--jobs"),
            "--workers" => workers = parse(&take(&args, &mut i, "--workers"), "--workers"),
            "--queue-capacity" => {
                queue_capacity = parse(&take(&args, &mut i, "--queue-capacity"), "--queue-capacity")
            }
            "--deadline-ms" => {
                deadline_ms = Some(parse(
                    &take(&args, &mut i, "--deadline-ms"),
                    "--deadline-ms",
                ))
            }
            "--chaos-seed" => {
                chaos_seed = Some(parse(&take(&args, &mut i, "--chaos-seed"), "--chaos-seed"))
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "serve_batch [--jobs N] [--workers N] [--queue-capacity N] \
                     [--deadline-ms MS] [--chaos-seed S] [--quiet]"
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

    let config = ServiceConfig {
        workers,
        queue_capacity,
        router: fast_router(),
        default_deadline_ms: deadline_ms,
        fault: chaos_seed.map(|seed| ServeFaultPlan {
            seed,
            panic_rate: 0.3,
            kill_rate: 0.0,
            slow_rate: 0.2,
            slow_ms: 10,
        }),
        ..ServiceConfig::default()
    };

    let service = or_exit(RoutingService::start(config), "serve_batch");

    let start = Instant::now();
    let ids = submit_sweep(&service, jobs, "serve_batch");

    if !service.wait_idle(Duration::from_secs(600)) {
        eprintln!("serve_batch: jobs did not settle within 600 s");
        std::process::exit(1);
    }
    service.shutdown(true);
    let wall_s = start.elapsed().as_secs_f64();

    let tally = Tally::of(&service, &ids);
    let m = service.metrics();
    let boards_per_s = ids.len() as f64 / wall_s.max(1e-9);
    if !quiet {
        println!(
            "serve_batch: {} jobs in {:.2} s ({:.2} boards/s) — {}",
            ids.len(),
            wall_s,
            boards_per_s,
            tally.summary(),
        );
        println!(
            "serve_batch: p50 {:.1} ms p99 {:.1} ms retries {} panics contained {}",
            m.latency_p50_ms, m.latency_p99_ms, m.retries, m.worker_panics
        );
    }
    if tally.lost > 0 || m.terminal_violations > 0 {
        eprintln!(
            "serve_batch: INVARIANT BROKEN — {} lost job(s), {} double finalize(s)",
            tally.lost, m.terminal_violations
        );
        std::process::exit(1);
    }
}
