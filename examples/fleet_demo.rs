//! Fleet-mode walkthrough: multi-process sharded routing with worker
//! supervision, leases, and kill-resilient work redistribution.
//!
//! ```text
//! cargo build -p sprout-serve --bins   # the demo spawns real workers
//! cargo run -p sprout-examples --bin fleet_demo
//! ```
//!
//! Three acts, each exercising one robustness mechanism of
//! [`FleetCoordinator`]:
//!
//! 1. **Happy path** — jobs sharded across two worker processes, all
//!    complete, heartbeats keep everyone honest.
//! 2. **Kill chaos** — every job's first attempt `kill -9`s its own
//!    worker right after the wave-0 checkpoint; the coordinator expires
//!    the lease, respawns a worker, and the retry *resumes from the
//!    checkpoint* instead of re-routing.
//! 3. **Coordinator crash + restart** — the coordinator itself dies
//!    abruptly mid-flight; a second coordinator over the same data
//!    directory replays the journal and finishes every job exactly
//!    once.

use sprout_serve::chaos::FleetFaultPlan;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::JobSpec;
use std::path::PathBuf;
use std::time::Duration;

/// The worker binary next to this example's own executable — built by
/// `cargo build -p sprout-serve --bins`.
fn worker_path() -> PathBuf {
    let mut p = std::env::current_exe().expect("current exe");
    p.pop();
    p.push("sprout_fleet_worker");
    if !p.exists() {
        eprintln!(
            "fleet_demo: worker binary missing at {}\n\
             build it first: cargo build -p sprout-serve --bins",
            p.display()
        );
        std::process::exit(2);
    }
    p
}

fn demo_config(name: &str) -> FleetConfig {
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprout-fleet-demo-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    FleetConfig {
        workers: 2,
        worker_cmd: Some(worker_path()),
        worker_args: vec!["--router".into(), "fast".into()],
        data_dir: Some(dir),
        ..FleetConfig::default()
    }
}

fn submit_sweep(fleet: &FleetCoordinator, jobs: usize) -> Vec<u64> {
    (0..jobs)
        .map(|k| {
            let budget = 20.0 + (k % 3) as f64 * 2.0;
            fleet.submit(JobSpec::two_rail(budget)).expect("accepted")
        })
        .collect()
}

fn main() {
    // ---- Act 1: the happy path -----------------------------------------
    println!("=== 1. happy path: jobs sharded across processes ===");
    let fleet = FleetCoordinator::start(demo_config("happy")).expect("fleet starts");
    let ids = submit_sweep(&fleet, 4);
    assert!(fleet.wait_idle(Duration::from_secs(300)));
    for id in &ids {
        let snap = fleet.status(*id).expect("known");
        println!(
            "job {id}: {} after {} attempt(s), {:.1} ms, {:.1} mm2",
            snap.state, snap.attempts, snap.run_ms, snap.area_mm2
        );
    }
    let m = fleet.metrics();
    println!(
        "workers live {} — every job routed in a worker process, zero faults",
        m.workers_live
    );
    fleet.drain(Duration::from_secs(30));
    drop(fleet);

    // ---- Act 2: kill chaos ---------------------------------------------
    println!("\n=== 2. kill chaos: every first attempt dies mid-run ===");
    let mut config = demo_config("chaos");
    config.max_worker_restarts = 12;
    config.fault = Some(FleetFaultPlan {
        seed: 7,
        kill_rate: 1.0, // attempt 0 always killed, right after wave 0's checkpoint
        stall_rate: 0.0,
        stall_ms: 0,
        blackout_rate: 0.0,
        blackout_ms: 0,
    });
    let fleet = FleetCoordinator::start(config).expect("fleet starts");
    let ids = submit_sweep(&fleet, 4);
    assert!(fleet.wait_idle(Duration::from_secs(300)));
    for id in &ids {
        let snap = fleet.status(*id).expect("known");
        println!(
            "job {id}: {} — {} of {} rails restored from the checkpoint on retry",
            snap.state, snap.resumed, snap.rails_total
        );
    }
    let m = fleet.metrics();
    println!(
        "workers dead {} restarts {} redispatches {} — and still exactly one \
         terminal state per job (violations: {})",
        m.workers_dead, m.worker_restarts, m.redispatches, m.terminal_violations
    );
    fleet.drain(Duration::from_secs(30));
    drop(fleet);

    // ---- Act 3: coordinator crash + restart ----------------------------
    println!("\n=== 3. coordinator crash: journal replay finishes the work ===");
    let config = demo_config("restart");
    let fleet = FleetCoordinator::start(config.clone()).expect("fleet starts");
    let ids = submit_sweep(&fleet, 4);
    // Crash as soon as work is out with the workers.
    while fleet.metrics().leased == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    fleet.shutdown_abrupt(); // SIGKILL the workers, finalize nothing
    drop(fleet);
    println!("coordinator died with work in flight…");

    let fleet = FleetCoordinator::start(config).expect("fleet restarts");
    let m = fleet.metrics();
    println!(
        "…restart re-admitted {} unfinished job(s) from the journal",
        m.recovered
    );
    assert!(fleet.wait_idle(Duration::from_secs(300)));
    for id in &ids {
        if let Some(snap) = fleet.status(*id) {
            println!(
                "job {id}: {} (terminal transitions: {})",
                snap.state, snap.terminal_transitions
            );
        }
    }
    assert_eq!(fleet.metrics().terminal_violations, 0);
    fleet.drain(Duration::from_secs(30));
    println!("\nevery accepted job reached exactly one terminal state — fleet contract held");
}
