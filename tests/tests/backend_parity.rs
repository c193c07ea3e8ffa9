//! Backend parity: the in-process service and a one-worker fleet share
//! one job ledger, so the same specs must end the same way on both, and
//! `/metrics` must expose the same fields whichever executor runs. The
//! last spec repeats the first board, so each executor serves it from
//! its tiling cache and must still match the first, freshly tiled run.

use sprout_board::presets::TWO_RAIL_ROUTE_LAYER;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::{BoardSpec, JobSpec, JobState, RailSpec};
use sprout_serve::ledger::{Executor, Ledger};
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker::fast_router;
use sprout_serve::JobBackend;
use sprout_telemetry::json::parse;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

/// Retries accumulate solves, so both backends get the same budget.
const JOB_RETRIES: usize = 2;

fn specs() -> Vec<JobSpec> {
    let random = |seed| JobSpec {
        board: BoardSpec::Random { seed, nets: 1 },
        rails: vec![RailSpec {
            net: 0,
            layer: TWO_RAIL_ROUTE_LAYER,
            budget_mm2: 22.0,
        }],
        ..JobSpec::two_rail(0.0)
    };
    vec![
        JobSpec::two_rail(20.0),
        random(11),
        random(12),
        random(13),
        JobSpec::two_rail(20.0),
    ]
}

/// How a job ended: `(state, rails_complete, solves, area_mm2)`.
type Outcome = (JobState, usize, u64, f64);

/// Runs every spec to its terminal state; returns each job's outcome
/// and the `/metrics` JSON key set.
fn run<E: Executor>(backend: &Ledger<E>) -> (Vec<Outcome>, BTreeSet<String>) {
    let ids: Vec<u64> = specs()
        .into_iter()
        .map(|spec| backend.submit(spec).expect("accepted"))
        .collect();
    assert!(
        backend.wait_idle(Duration::from_secs(120)),
        "jobs did not settle"
    );
    let outcomes = ids
        .iter()
        .map(|&id| {
            let s = backend.status(id).expect("known job");
            assert_eq!(s.terminal_transitions, 1, "job {id}");
            (s.state, s.rails_complete, s.solves, s.area_mm2)
        })
        .collect();
    let metrics = parse(&backend.metrics_json()).expect("metrics are JSON");
    let keys = metrics
        .as_object()
        .expect("metrics are an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    (outcomes, keys)
}

#[test]
fn service_and_fleet_end_every_job_alike() {
    let service = RoutingService::start(ServiceConfig {
        workers: 1,
        router: fast_router(),
        max_job_retries: JOB_RETRIES,
        ..ServiceConfig::default()
    })
    .expect("service start");
    let (in_process, service_keys) = run(&service);
    service.shutdown(true);

    let fleet = FleetCoordinator::start(FleetConfig {
        workers: 1,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
        worker_args: vec!["--router".into(), "fast".into()],
        max_job_retries: JOB_RETRIES,
        ..FleetConfig::default()
    })
    .expect("fleet start");
    let (in_fleet, fleet_keys) = run(&fleet);
    fleet.drain(Duration::from_secs(30));

    let repeat = in_process.len() - 1;
    assert_eq!(in_process[repeat], in_process[0], "service repeat differs");
    assert_eq!(in_fleet[repeat], in_fleet[0], "fleet repeat differs");
    assert_eq!(in_process, in_fleet, "per-job outcomes differ");
    assert_eq!(service_keys, fleet_keys, "/metrics key sets differ");
}
