//! Process-level chaos sweep: the robustness acceptance gate for fleet
//! mode.
//!
//! The fleet contract, asserted under every fault schedule here —
//! seeded worker kills, real `SIGKILL`, `SIGSTOP` stalls, heartbeat
//! blackouts with zombie workers, coordinator crash + restart:
//! **every accepted job reaches exactly one terminal state, at any
//! worker count, and a re-dispatched job resumes from its last
//! completed wave rather than from scratch.**

use sprout_serve::chaos::FleetFaultPlan;
use sprout_serve::events::EventKind;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::{JobSpec, JobState};
use sprout_serve::ledger::JOURNAL_FILE;
use sprout_telemetry::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A per-test data directory under the system temp dir, wiped first.
fn data_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sprout-fleet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Fleet config pointing at the worker binary cargo built for this
/// test package.
fn fleet_config(name: &str, workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
        worker_args: vec!["--router".into(), "fast".into()],
        data_dir: Some(data_dir(name)),
        ..FleetConfig::default()
    }
}

fn submit_all(fleet: &FleetCoordinator, jobs: usize) -> Vec<u64> {
    (0..jobs)
        .map(|k| {
            let budget = 20.0 + (k % 3) as f64 * 2.0;
            fleet
                .submit(JobSpec::two_rail(budget))
                .expect("submit should be accepted")
        })
        .collect()
}

/// The fleet-level exactly-once contract over a settled coordinator.
fn assert_fleet_contract(fleet: &FleetCoordinator, ids: &[u64]) {
    let m = fleet.metrics();
    assert_eq!(m.terminal_violations, 0, "double finalize detected");
    for &id in ids {
        let snap = fleet.status(id).expect("accepted job must stay known");
        assert!(
            snap.state.is_terminal(),
            "job {id} stuck in {}",
            snap.state.name()
        );
        assert_eq!(
            snap.terminal_transitions, 1,
            "job {id} saw {} terminal transitions",
            snap.terminal_transitions
        );
    }
}

/// Every done record in the journal, as `(id, state)` — the on-disk
/// half of the exactly-once contract.
fn journal_dones(dir: &std::path::Path) -> Vec<(u64, String)> {
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let root = parse(line).ok()?;
            if root.get("kind").and_then(Json::as_str) != Some("done") {
                return None;
            }
            Some((
                root.get("id").and_then(Json::as_u64)?,
                root.get("state").and_then(Json::as_str)?.to_owned(),
            ))
        })
        .collect()
}

/// Blocks until `ready` holds, polling observable fleet state; fails
/// the test if that takes longer than any healthy run could.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// `true` once some job in `ids` has reported its wave-0 progress.
fn wave0_reported(fleet: &FleetCoordinator, ids: &[u64]) -> bool {
    let bus = fleet.events();
    ids.iter().any(|&id| {
        bus.snapshot_since(id, 0).events.iter().any(|e| {
            e.kind == EventKind::Progress
                && parse(&e.line)
                    .ok()
                    .and_then(|l| l.get("wave").and_then(Json::as_u64))
                    == Some(0)
        })
    })
}

#[test]
fn fleet_completes_at_every_worker_count() {
    for workers in [1usize, 2, 4] {
        let config = fleet_config(&format!("count{workers}"), workers);
        let fleet = FleetCoordinator::start(config).expect("fleet start");
        let ids = submit_all(&fleet, 5);
        assert!(
            fleet.wait_idle(Duration::from_secs(120)),
            "{workers} workers: jobs did not settle"
        );
        for &id in &ids {
            assert_eq!(
                fleet.status(id).map(|s| s.state),
                Some(JobState::Completed),
                "{workers} workers: job {id} not completed"
            );
        }
        assert_fleet_contract(&fleet, &ids);
        fleet.drain(Duration::from_secs(30));
    }
}

#[test]
fn seeded_kills_redispatch_and_resume_from_checkpoint() {
    // kill_rate 1.0: every job's first attempt SIGKILLs its own worker
    // right after the wave-0 checkpoint lands. Attempt 1 (kills fire on
    // attempt 0 only) must resume from that checkpoint.
    // One worker must be respawned before its job can go anywhere;
    // four spread the kills across more processes.
    for workers in [1, 2, 4] {
        let mut config = fleet_config(&format!("seededkill{workers}"), workers);
        config.max_worker_restarts = 16;
        config.fault = Some(FleetFaultPlan {
            seed: 7,
            kill_rate: 1.0,
            stall_rate: 0.0,
            stall_ms: 0,
            blackout_rate: 0.0,
            blackout_ms: 0,
        });
        let fleet = FleetCoordinator::start(config).expect("fleet start");
        let ids = submit_all(&fleet, 4);
        assert!(
            fleet.wait_idle(Duration::from_secs(120)),
            "{workers} workers: jobs did not settle under kill chaos"
        );
        let mut resumed_jobs = 0usize;
        for &id in &ids {
            let snap = fleet.status(id).expect("job known");
            assert_eq!(
                snap.state,
                JobState::Completed,
                "{workers} workers: job {id} not completed"
            );
            if snap.resumed > 0 {
                resumed_jobs += 1;
            }
        }
        let m = fleet.metrics();
        assert!(
            m.redispatches >= ids.len() as u64,
            "{workers} workers: every job should have been re-dispatched at least once, saw {}",
            m.redispatches
        );
        assert!(
            resumed_jobs > 0,
            "re-dispatched jobs should resume rails from the shared checkpoint, not re-route"
        );
        assert!(m.workers_dead >= ids.len() as u64);
        assert_fleet_contract(&fleet, &ids);
    }
}

#[cfg(unix)]
#[test]
fn real_sigkill_redistributes_leased_work() {
    let mut config = fleet_config("sigkill", 2);
    config.heartbeat_timeout_ms = 300;
    let fleet = FleetCoordinator::start(config).expect("fleet start");
    let ids = submit_all(&fleet, 4);

    // Once the dispatcher has leased work out (the first lease goes to
    // the first worker), kill that worker for real — kernel SIGKILL, no
    // injected cooperation.
    wait_until("a lease", || fleet.metrics().leased >= 1);
    let pids = fleet.worker_pids();
    assert!(!pids.is_empty(), "no live workers to kill");
    let status = Command::new("kill")
        .args(["-KILL", &pids[0].to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success(), "kill -KILL failed");

    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "jobs did not settle after SIGKILL"
    );
    for &id in &ids {
        assert_eq!(
            fleet.status(id).map(|s| s.state),
            Some(JobState::Completed),
            "job {id} lost to the SIGKILL"
        );
    }
    let m = fleet.metrics();
    assert!(
        m.workers_dead >= 1,
        "the SIGKILLed worker was never noticed"
    );
    assert_fleet_contract(&fleet, &ids);
}

#[cfg(unix)]
#[test]
fn sigstop_stall_times_out_heartbeats_and_redistributes() {
    // SIGSTOP freezes the worker wholesale — job thread *and* heartbeat
    // thread. The coordinator must notice the silence, declare it dead,
    // and re-dispatch its lease; `kill_dead_workers` reaps the frozen
    // process so it can never wake up and double-report.
    let mut config = fleet_config("sigstop", 2);
    config.heartbeat_timeout_ms = 300;
    let fleet = FleetCoordinator::start(config).expect("fleet start");
    let ids = submit_all(&fleet, 4);

    wait_until("a lease", || fleet.metrics().leased >= 1);
    let pids = fleet.worker_pids();
    assert!(!pids.is_empty(), "no live workers to stall");
    let status = Command::new("kill")
        .args(["-STOP", &pids[0].to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success(), "kill -STOP failed");

    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "jobs did not settle after SIGSTOP stall"
    );
    for &id in &ids {
        assert_eq!(
            fleet.status(id).map(|s| s.state),
            Some(JobState::Completed),
            "job {id} lost to the stall"
        );
    }
    let m = fleet.metrics();
    assert!(
        m.workers_dead >= 1,
        "the stalled worker was never timed out"
    );
    assert_fleet_contract(&fleet, &ids);
}

#[test]
fn heartbeat_blackout_zombie_cannot_double_finalize() {
    // Blackout: the worker stays alive and keeps routing but stops
    // heartbeating past the timeout. With `kill_dead_workers` off the
    // coordinator cannot reap it — the zombie eventually finishes and
    // reports under its expired lease. That report must be dropped as
    // stale: the replacement's result is the one that counts, once.
    let mut config = fleet_config("blackout", 1);
    config.heartbeat_timeout_ms = 250;
    config.kill_dead_workers = false;
    config.max_worker_restarts = 8;
    config.fault = Some(FleetFaultPlan {
        seed: 42,
        kill_rate: 0.0,
        stall_rate: 0.0,
        stall_ms: 0,
        blackout_rate: 1.0,
        blackout_ms: 900,
    });
    let fleet = FleetCoordinator::start(config).expect("fleet start");
    let ids = submit_all(&fleet, 2);
    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "jobs did not settle under blackout chaos"
    );
    for &id in &ids {
        assert_eq!(
            fleet.status(id).map(|s| s.state),
            Some(JobState::Completed),
            "job {id} not completed"
        );
    }
    // The zombies report after the replacements finish; wait for at
    // least one stale `done` to arrive and be rejected.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = fleet.metrics();
        if m.stale_finalizes >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no stale finalize was ever observed (redispatches {})",
            m.redispatches
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_fleet_contract(&fleet, &ids);
    // The event stream tells the same story: the zombie's defeated
    // double finalize must not leak a second terminal event.
    let bus = fleet.events();
    for &id in &ids {
        assert_eq!(
            bus.terminal_events(id),
            1,
            "job {id}: stream terminal events"
        );
    }
}

#[test]
fn coordinator_crash_and_restart_finishes_every_job_exactly_once() {
    let dir = data_dir("restart");
    let mut config = fleet_config("restart", 2);
    config.data_dir = Some(dir.clone());

    let fleet = FleetCoordinator::start(config.clone()).expect("fleet start");
    let ids = submit_all(&fleet, 6);
    // Crash the coordinator while work is in flight — once the first
    // wave-0 checkpoint is reported: SIGKILL every worker, finalize
    // nothing, leave journal + checkpoints as-is.
    wait_until("a wave-0 progress event", || wave0_reported(&fleet, &ids));
    fleet.shutdown_abrupt();
    drop(fleet);

    let done_before = journal_dones(&dir).len();
    assert!(
        done_before < ids.len(),
        "crash came too late to matter: all {} jobs already terminal",
        ids.len()
    );

    // The restarted coordinator replays the journal, re-admits every
    // admitted-but-unfinished job, and finishes it.
    let fleet = FleetCoordinator::start(config).expect("fleet restart");
    let m = fleet.metrics();
    assert_eq!(
        m.recovered as usize,
        ids.len() - done_before,
        "replay must re-admit exactly the unfinished jobs"
    );
    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "recovered jobs did not settle"
    );
    for snap in fleet.jobs() {
        assert!(
            snap.recovered,
            "restarted fleet should only hold recovered jobs"
        );
        assert!(snap.state.is_terminal());
        assert_eq!(snap.terminal_transitions, 1);
    }
    assert_eq!(fleet.metrics().terminal_violations, 0);
    fleet.drain(Duration::from_secs(30));

    // The on-disk exactly-once record: every admitted id has exactly
    // one terminal line across both coordinator lifetimes.
    let dones = journal_dones(&dir);
    for &id in &ids {
        let n = dones.iter().filter(|(d, _)| *d == id).count();
        assert_eq!(n, 1, "job {id} has {n} terminal journal records");
    }
}

#[test]
fn graceful_drain_hands_queued_work_to_the_next_coordinator() {
    let dir = data_dir("drain");
    let mut config = fleet_config("drain", 1);
    config.data_dir = Some(dir.clone());

    let fleet = FleetCoordinator::start(config.clone()).expect("fleet start");
    let ids = submit_all(&fleet, 5);
    // Drain immediately: the one worker finishes (at most a couple of)
    // leased jobs; everything still queued stays journaled, untouched.
    assert!(
        fleet.drain(Duration::from_secs(60)),
        "in-flight leases did not finish within the drain window"
    );
    assert!(matches!(
        fleet.ready(),
        sprout_serve::service::Readiness::Draining
    ));
    assert!(
        matches!(
            fleet.submit(JobSpec::two_rail(20.0)),
            Err(sprout_serve::service::SubmitError::Draining)
        ),
        "a draining coordinator must refuse new work"
    );
    drop(fleet);

    let done_before = journal_dones(&dir).len();
    assert!(
        done_before < ids.len(),
        "drain finished everything; nothing left to hand over"
    );

    let fleet = FleetCoordinator::start(config).expect("fleet restart");
    assert_eq!(fleet.metrics().recovered as usize, ids.len() - done_before);
    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "handed-over jobs did not settle"
    );
    fleet.drain(Duration::from_secs(30));
    let dones = journal_dones(&dir);
    for &id in &ids {
        let n = dones.iter().filter(|(d, _)| *d == id).count();
        assert_eq!(n, 1, "job {id} has {n} terminal journal records");
        assert!(dones.iter().any(|(d, s)| *d == id && s == "completed"));
    }
}
