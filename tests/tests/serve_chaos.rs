//! Service-level chaos sweep: the robustness acceptance gate for
//! `sprout-serve`.
//!
//! Under every injected fault — worker panics, slow jobs, queue
//! saturation, mid-job kills, deadline pressure — the service must
//! uphold one invariant: **every accepted job ends in exactly one
//! terminal state (completed, best-so-far, or a typed error), the
//! service never panics, and no accepted job is lost.** Killed jobs
//! are the one deliberate exception inside a single service lifetime:
//! they stay non-terminal until a restarted service recovers them from
//! their journal and checkpoint — which this suite also asserts.

use sprout_core::recovery::FaultPlan;
use sprout_serve::backoff::BackoffConfig;
use sprout_serve::chaos::ServeFaultPlan;
use sprout_serve::events::EventKind;
use sprout_serve::job::{JobSpec, JobState, Priority};
use sprout_serve::ledger::{replay_journal, JournalReplay, JOURNAL_FILE};
use sprout_serve::service::{RoutingService, ServiceConfig, SubmitError};
use sprout_serve::worker::fast_router;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        router: fast_router(),
        ..ServiceConfig::default()
    }
}

/// A per-test data directory under the system temp dir, wiped first.
fn data_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sprout-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The service's journal under `dir`, replayed.
fn journal(dir: &Path) -> JournalReplay {
    replay_journal(&std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap_or_default())
}

/// Asserts the service-level contract over a finished service: every
/// accepted job is in exactly one terminal state (or killed), and no
/// double finalize was recorded.
fn assert_terminal_contract(svc: &RoutingService) {
    let m = svc.metrics();
    assert_eq!(m.terminal_violations, 0, "double finalize detected");
    for snap in svc.jobs() {
        if snap.killed {
            assert!(
                !snap.state.is_terminal(),
                "job {} was killed mid-run yet reached {} in the same lifetime",
                snap.id,
                snap.state
            );
            continue;
        }
        assert!(
            snap.state.is_terminal(),
            "job {} lost in state {}",
            snap.id,
            snap.state
        );
        assert_eq!(
            snap.terminal_transitions, 1,
            "job {} transitioned {} times",
            snap.id, snap.terminal_transitions
        );
    }
}

#[test]
fn chaos_panics_and_stalls_every_job_terminal() {
    for seed in [1u64, 7, 42] {
        let svc = RoutingService::start(ServiceConfig {
            fault: Some(ServeFaultPlan {
                seed,
                panic_rate: 0.5,
                kill_rate: 0.0,
                slow_rate: 0.4,
                slow_ms: 5,
            }),
            ..service_config()
        })
        .expect("start");
        let mut accepted = 0;
        for k in 0..10 {
            // Budgets all comfortably routable: any non-completed job
            // below is the chaos plan's doing, not the budget's.
            let budget = 20.0 + (k % 3) as f64 * 2.0;
            if svc.submit(JobSpec::two_rail(budget)).is_ok() {
                accepted += 1;
            }
        }
        assert!(
            svc.wait_idle(Duration::from_secs(300)),
            "seed {seed}: jobs did not settle"
        );
        svc.shutdown(true);
        assert_terminal_contract(&svc);
        let m = svc.metrics();
        assert_eq!(m.accepted, accepted, "seed {seed}");
        assert_eq!(
            m.completed + m.best_so_far + m.failed + m.shed + m.expired + m.cancelled,
            accepted,
            "seed {seed}: terminal states must cover every accepted job"
        );
        // With a 50% panic rate over 10 jobs the boundary must have
        // caught at least one injected panic (seeds chosen to do so)
        // and retried it to completion.
        assert!(m.worker_panics > 0, "seed {seed}: no panic injected");
        assert!(m.retries > 0, "seed {seed}: no retry happened");
        assert_eq!(m.completed, accepted, "seed {seed}: retries must recover");
    }
}

#[test]
fn saturation_sheds_lowest_priority_first_and_rejects_with_hint() {
    // No workers: the queue can only fill.
    let svc = RoutingService::start(ServiceConfig {
        workers: 0,
        queue_capacity: 4,
        router: fast_router(),
        ..ServiceConfig::default()
    })
    .expect("start");

    let mut normals = Vec::new();
    for _ in 0..4 {
        normals.push(
            svc.submit(JobSpec::two_rail(20.0))
                .expect("normal accepted"),
        );
    }
    // Full queue, equal priority: typed rejection with a retry hint.
    match svc.submit(JobSpec::two_rail(20.0)) {
        Err(SubmitError::Saturated { retry_after_ms }) => assert!(retry_after_ms > 0.0),
        other => panic!("expected saturation, got {other:?}"),
    }
    // A *lower*-priority arrival cannot displace anything either.
    let mut low = JobSpec::two_rail(20.0);
    low.priority = Priority::Low;
    assert!(
        matches!(svc.submit(low), Err(SubmitError::Saturated { .. })),
        "a low-priority arrival must never shed normal work"
    );
    // Full queue, higher priority: the newest strictly-lower job is
    // shed to make room.
    let mut high = JobSpec::two_rail(20.0);
    high.priority = Priority::High;
    svc.submit(high).expect("high accepted by shedding");
    let shed = svc
        .status(*normals.last().unwrap())
        .expect("victim still known");
    assert_eq!(shed.state, JobState::Shed);
    assert_eq!(svc.metrics().shed, 1);
    svc.shutdown(false);
    assert_terminal_contract(&svc);
}

#[test]
fn deadline_expiry_is_typed_not_lost() {
    let svc = RoutingService::start(ServiceConfig {
        workers: 1,
        router: fast_router(),
        ..ServiceConfig::default()
    })
    .expect("start");
    let mut spec = JobSpec::two_rail(20.0);
    // A deadline no routing run can meet: expires while queued.
    spec.deadline_ms = Some(0.001);
    let id = svc.submit(spec).expect("accepted");
    assert!(svc.wait_idle(Duration::from_secs(60)));
    svc.shutdown(true);
    let snap = svc.status(id).expect("known");
    assert!(
        matches!(snap.state, JobState::Expired | JobState::BestSoFar),
        "expected expiry handling, got {}",
        snap.state
    );
    assert!(snap.error.is_some() || snap.state == JobState::BestSoFar);
    assert_terminal_contract(&svc);
}

#[test]
fn mid_job_kill_resumes_from_checkpoint_after_restart() {
    let dir = data_dir("kill-resume");

    // First service lifetime: the job's worker is killed right after
    // the first wave's checkpoint.
    let svc = RoutingService::start(ServiceConfig {
        workers: 1,
        data_dir: Some(dir.clone()),
        fault: Some(ServeFaultPlan {
            seed: 0,
            panic_rate: 0.0,
            kill_rate: 1.1, // every job's first attempt is killed
            slow_rate: 0.0,
            slow_ms: 0,
        }),
        ..service_config()
    })
    .expect("start");
    // Two rails on the same layer → two waves → the wave-0 checkpoint
    // holds exactly one completed rail when the kill lands.
    let id = svc.submit(JobSpec::two_rail(20.0)).expect("accepted");
    assert!(
        svc.wait_idle(Duration::from_secs(300)),
        "killed job should leave the service idle"
    );
    let snap = svc.status(id).expect("known");
    assert!(snap.killed, "the kill fault must have landed");
    assert!(
        !snap.state.is_terminal(),
        "a killed job must not reach a terminal state in the dead lifetime"
    );
    assert_eq!(svc.metrics().killed, 1);
    svc.shutdown(true);
    drop(svc);
    assert!(
        journal(&dir).pending.iter().any(|(j, _, _)| *j == id),
        "journal must survive the crash"
    );
    assert!(
        !journal(&dir).terminal.contains_key(&id),
        "no terminal record may exist for a killed job"
    );

    // Second lifetime: quiet fault plan, same data dir. Recovery must
    // re-admit the job and the supervisor must restore the completed
    // rail from the checkpoint instead of re-routing it.
    let svc2 = RoutingService::start(ServiceConfig {
        workers: 1,
        data_dir: Some(dir.clone()),
        ..service_config()
    })
    .expect("restart");
    assert!(
        svc2.wait_idle(Duration::from_secs(300)),
        "recovered job did not finish"
    );
    let snap2 = svc2.status(id).expect("recovered job is known");
    assert_eq!(snap2.state, JobState::Completed);
    assert!(snap2.recovered, "job must be flagged as recovered");
    assert!(
        snap2.resumed > 0,
        "at least one rail must restore from the checkpoint"
    );
    assert_eq!(svc2.metrics().recovered, 1);
    svc2.shutdown(true);
    assert_terminal_contract(&svc2);
    assert!(
        journal(&dir).terminal.contains_key(&id),
        "the recovered job must journal its terminal state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_rail_is_retried_by_the_ledger_alone() {
    // Rail 0 of two_rail panics on every route. The ledger is the one
    // retry layer: each of the 1 + max_job_retries attempts routes the
    // rail once (one panic event each), each re-queue is one retry
    // event, and the job ends best-so-far on the rail that completes.
    let dir = data_dir("ledger-retry");
    let seed = (0..10_000u64)
        .find(|&s| {
            let plan = FaultPlan {
                worker_panic_rate: 0.5,
                ..FaultPlan::quiet(s)
            };
            plan.worker_panics(0) && !plan.worker_panics(1)
        })
        .expect("a seed panicking rail 0 only");
    let mut router = fast_router();
    router.recovery.fault = Some(FaultPlan {
        worker_panic_rate: 0.5,
        ..FaultPlan::quiet(seed)
    });
    let svc = RoutingService::start(ServiceConfig {
        workers: 1,
        router,
        max_job_retries: 2,
        backoff: BackoffConfig {
            base_ms: 1.0,
            max_ms: 2.0,
            ..BackoffConfig::default()
        },
        data_dir: Some(dir.clone()),
        ..service_config()
    })
    .expect("start");
    let id = svc.submit(JobSpec::two_rail(20.0)).expect("accepted");
    assert!(
        svc.wait_idle(Duration::from_secs(300)),
        "job did not settle"
    );
    let snap = svc.status(id).expect("known");
    assert_eq!(snap.state, JobState::BestSoFar);
    assert_eq!(snap.attempts, 3);

    let page = svc.events().snapshot_since(id, 0);
    assert_eq!(page.dropped, 0, "the whole stream must be in the ring");
    assert!(page.terminal);
    let count = |kind| page.events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::Panic), 3, "one routed panic per attempt");
    assert_eq!(count(EventKind::Retry), 2, "one retry per re-queue");
    let last = page.events.last().expect("events");
    assert_eq!(last.kind, EventKind::Terminal);
    assert!(
        last.line.contains(r#""state":"best_so_far""#),
        "{}",
        last.line
    );
    svc.shutdown(true);
    assert_terminal_contract(&svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_without_crash_recovers_nothing() {
    let dir = data_dir("clean-restart");
    let svc = RoutingService::start(ServiceConfig {
        workers: 1,
        data_dir: Some(dir.clone()),
        ..service_config()
    })
    .expect("start");
    let id = svc.submit(JobSpec::two_rail(20.0)).expect("accepted");
    assert!(svc.wait_idle(Duration::from_secs(300)));
    svc.shutdown(true);
    assert_eq!(svc.status(id).expect("known").state, JobState::Completed);
    drop(svc);

    let svc2 = RoutingService::start(ServiceConfig {
        workers: 1,
        data_dir: Some(dir.clone()),
        ..service_config()
    })
    .expect("restart");
    assert_eq!(
        svc2.metrics().recovered,
        0,
        "a cleanly finished job must not be re-run"
    );
    // The finished job is remembered as terminal, once, and not re-run.
    let done = svc2.status(id).expect("finished job stays queryable");
    assert_eq!(done.state, JobState::Completed, "remembered as terminal");
    assert_eq!(done.terminal_transitions, 1);
    assert_eq!(done.attempts, 0, "a finished job is not re-run");
    // Ids keep increasing across restarts — no collision with journals.
    let id2 = svc2.submit(JobSpec::two_rail(18.0)).expect("accepted");
    assert!(id2 > id, "recovered id space must advance past {id}");
    assert!(svc2.wait_idle(Duration::from_secs(300)));
    svc2.shutdown(true);
    assert_terminal_contract(&svc2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_queued_and_running_jobs_is_typed() {
    // workers:0 → the job stays queued; cancel must finalize it.
    let svc = RoutingService::start(ServiceConfig {
        workers: 0,
        queue_capacity: 4,
        router: fast_router(),
        ..ServiceConfig::default()
    })
    .expect("start");
    let id = svc.submit(JobSpec::two_rail(20.0)).expect("accepted");
    assert!(svc.cancel(id), "queued job cancels");
    assert_eq!(svc.status(id).expect("known").state, JobState::Cancelled);
    assert!(!svc.cancel(id), "terminal job does not cancel twice");
    svc.shutdown(false);
    assert_terminal_contract(&svc);
}

#[test]
fn http_smoke_submit_status_metrics() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::Arc;

    let svc = Arc::new(RoutingService::start(service_config()).expect("start"));
    let server =
        sprout_serve::http::HttpServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let addr = server.addr();

    let request = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body.as_bytes()).expect("write body");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    };

    let (status, body) = request("POST", "/jobs", &JobSpec::two_rail(20.0).to_json());
    assert_eq!(status, 202, "submit: {body}");
    assert!(body.contains("\"id\""));

    let (status, _) = request("GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, body) = request("GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");

    assert!(svc.wait_idle(Duration::from_secs(300)));
    let (status, body) = request("GET", "/jobs/1", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"completed\""), "{body}");

    let (status, body) = request("GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"completed\":1"), "{body}");
    assert!(body.contains("\"uptime_seconds\""), "{body}");
    assert!(body.contains("\"events_published\""), "{body}");
    assert!(body.contains("\"events_dropped\""), "{body}");

    // Hostile inputs answer with typed statuses, never a hang or crash.
    let (status, _) = request("POST", "/jobs", "{not json");
    assert_eq!(status, 400);
    let (status, _) = request("GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request("POST", "/jobs/abc/cancel", "");
    assert_eq!(status, 400);

    drop(server);
    svc.shutdown(true);
    assert_terminal_contract(&svc);
}
