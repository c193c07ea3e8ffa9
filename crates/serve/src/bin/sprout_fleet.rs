//! `sprout_fleet` — fleet-mode smoke driver and demo CLI.
//!
//! Starts a [`FleetCoordinator`] over N worker processes, submits a
//! budget sweep of jobs, waits for every terminal state, drains
//! gracefully, and reports throughput, latency, and fault counters.
//! Exits nonzero if any accepted job was lost or any exactly-once
//! invariant broke — so the binary doubles as the CI `fleet-smoke`
//! check. SIGTERM triggers a graceful drain.
//!
//! ```text
//! sprout_fleet [--jobs N] [--workers N] [--queue-capacity N]
//!              [--deadline-ms MS] [--data-dir PATH]
//!              [--chaos-seed S] [--kill-rate F] [--stall-rate F]
//!              [--stall-ms N] [--blackout-rate F] [--blackout-ms N]
//!              [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--quiet]
//! ```

#[path = "common/batch.rs"]
mod batch;
#[path = "common/cli.rs"]
mod cli;

use batch::{submit_sweep, Tally};
use cli::{or_exit, parse, take};
use sprout_serve::chaos::FleetFaultPlan;
use sprout_serve::fleet::{sigterm_flag, FleetConfig, FleetCoordinator};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn main() {
    let mut jobs = 8usize;
    let mut config = FleetConfig {
        worker_args: vec!["--router".into(), "fast".into()],
        ..FleetConfig::default()
    };
    let mut deadline_ms: Option<f64> = None;
    let mut fault = FleetFaultPlan {
        seed: 0,
        kill_rate: 0.0,
        stall_rate: 0.0,
        stall_ms: 20,
        blackout_rate: 0.0,
        blackout_ms: 800,
    };
    let mut have_fault = false;
    let mut quiet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => jobs = parse(&take(&args, &mut i, "--jobs"), "--jobs"),
            "--workers" => config.workers = parse(&take(&args, &mut i, "--workers"), "--workers"),
            "--queue-capacity" => {
                config.queue_capacity =
                    parse(&take(&args, &mut i, "--queue-capacity"), "--queue-capacity")
            }
            "--deadline-ms" => {
                deadline_ms = Some(parse(
                    &take(&args, &mut i, "--deadline-ms"),
                    "--deadline-ms",
                ))
            }
            "--data-dir" => config.data_dir = Some(take(&args, &mut i, "--data-dir").into()),
            flag if FleetFaultPlan::FLAGS.contains(&flag) => {
                let value = take(&args, &mut i, flag);
                if let Err(e) = fault.set_flag(flag, &value) {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                have_fault = true;
            }
            "--heartbeat-ms" => {
                config.heartbeat_ms =
                    parse(&take(&args, &mut i, "--heartbeat-ms"), "--heartbeat-ms")
            }
            "--heartbeat-timeout-ms" => {
                config.heartbeat_timeout_ms = parse(
                    &take(&args, &mut i, "--heartbeat-timeout-ms"),
                    "--heartbeat-timeout-ms",
                )
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "sprout_fleet [--jobs N] [--workers N] [--queue-capacity N] \
                     [--deadline-ms MS] [--data-dir PATH] [--chaos-seed S] [--kill-rate F] \
                     [--stall-rate F] [--stall-ms N] [--blackout-rate F] [--blackout-ms N] \
                     [--heartbeat-ms N] [--heartbeat-timeout-ms N] [--quiet]"
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
    config.default_deadline_ms = deadline_ms;
    if have_fault {
        config.fault = Some(fault);
    }

    // Use a scratch data dir when none was given: cross-process resume
    // needs shared checkpoints to be interesting at all.
    let scratch = config
        .data_dir
        .is_none()
        .then(|| std::env::temp_dir().join(format!("sprout-fleet-{}", std::process::id())));
    config.data_dir = config.data_dir.or_else(|| scratch.clone());

    let sigterm = sigterm_flag();
    let fleet = or_exit(FleetCoordinator::start(config), "sprout_fleet");

    let start = Instant::now();
    let ids = submit_sweep(&fleet, jobs, "sprout_fleet");

    // Wait for idle, watching for SIGTERM → graceful drain.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if fleet.wait_idle(Duration::from_millis(100)) {
            break;
        }
        if sigterm.load(Ordering::SeqCst) {
            eprintln!("sprout_fleet: SIGTERM — draining");
            fleet.drain(Duration::from_secs(60));
            std::process::exit(0);
        }
        if Instant::now() >= deadline {
            eprintln!("sprout_fleet: jobs did not settle within 600 s");
            std::process::exit(1);
        }
    }
    let drained = fleet.drain(Duration::from_secs(60));
    let wall_s = start.elapsed().as_secs_f64();

    let tally = Tally::of(&fleet, &ids);
    let m = fleet.metrics();
    if !quiet {
        println!(
            "sprout_fleet: {} jobs across {} workers in {:.2} s ({:.2} boards/s) — {}",
            ids.len(),
            m.workers_spawned,
            wall_s,
            ids.len() as f64 / wall_s.max(1e-9),
            tally.summary(),
        );
        println!(
            "sprout_fleet: p50 {:.1} ms p99 {:.1} ms — workers dead {} restarts {} \
             redispatches {} stale finalizes {}",
            m.latency_p50_ms,
            m.latency_p99_ms,
            m.workers_dead,
            m.worker_restarts,
            m.redispatches,
            m.stale_finalizes,
        );
    }
    drop(fleet);
    if let Some(scratch) = scratch {
        let _ = std::fs::remove_dir_all(scratch);
    }
    if tally.lost > 0 || m.terminal_violations > 0 || !drained {
        eprintln!(
            "sprout_fleet: INVARIANT BROKEN — {} lost job(s), {} double finalize(s), drained={drained}",
            tally.lost, m.terminal_violations
        );
        std::process::exit(1);
    }
}
