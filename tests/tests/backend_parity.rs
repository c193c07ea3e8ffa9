//! Backend parity: the in-process service and a one-worker fleet share
//! one job ledger, so the same specs must end the same way on both, and
//! `/metrics` must expose the same fields whichever executor runs. The
//! last spec repeats the first board, so each executor serves it from
//! its tiling cache and must still match the first, freshly tiled run.
//!
//! Both executors also feed each job's `GET /jobs/<id>/events` stream
//! from one attempt-event path, so the streams must match event for
//! event — kind, stage or point name, every non-timing field — once
//! the `*_ms` timings are stripped. Every stage and residual event
//! names its rail, and each completed rail's stages run in pipeline
//! order.

use sprout_board::presets::TWO_RAIL_ROUTE_LAYER;
use sprout_core::report::STAGE_ORDER;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::{BoardSpec, JobSpec, JobState, RailSpec};
use sprout_serve::ledger::{Executor, Ledger};
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker::fast_router;
use sprout_serve::JobBackend;
use sprout_telemetry::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
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

/// One stream event with its timings stripped: every member except the
/// `*_ms` ones (wall times, `latency_ms` included).
type Untimed = Vec<(String, Json)>;

fn untimed(line: &str) -> Untimed {
    let event = parse(line).expect("event line is JSON");
    let members = event.as_object().expect("event line is an object");
    let keys: BTreeSet<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys.len(), members.len(), "repeated key in {line}");
    members
        .iter()
        .filter(|(k, _)| !k.ends_with("_ms"))
        .cloned()
        .collect()
}

fn member<'a>(event: &'a Untimed, key: &str) -> Option<&'a Json> {
    event.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Every stage and residual event of `stream` names its rail; grouped
/// by `(net, layer)`, each rail that shipped (one `backconv`) ran its
/// stages in [`STAGE_ORDER`] and sent one `route_final`.
fn assert_rail_attribution(job: u64, stream: &[Untimed]) {
    let mut rails: BTreeMap<(u64, u64), Vec<&Untimed>> = BTreeMap::new();
    for event in stream {
        let kind = member(event, "event").and_then(Json::as_str);
        if !matches!(kind, Some("stage" | "residual")) {
            continue;
        }
        let tag = |key| member(event, key).and_then(Json::as_u64);
        let (Some(net), Some(layer)) = (tag("net"), tag("layer")) else {
            panic!("job {job}: {kind:?} event without its rail: {event:?}");
        };
        rails.entry((net, layer)).or_default().push(event);
    }
    assert!(!rails.is_empty(), "job {job}: no stage events");
    for (rail, events) in &rails {
        let named = |key| {
            events
                .iter()
                .filter_map(move |e| member(e, key).and_then(Json::as_str))
        };
        let stages: Vec<usize> = named("stage")
            .map(|s| {
                STAGE_ORDER
                    .iter()
                    .position(|&o| o == s)
                    .expect("known stage")
            })
            .collect();
        let backconvs = named("stage").filter(|&s| s == "backconv").count();
        if backconvs == 0 {
            continue;
        }
        assert_eq!(backconvs, 1, "job {job} rail {rail:?}: {stages:?}");
        assert!(
            stages.windows(2).all(|w| w[0] < w[1]),
            "job {job} rail {rail:?}: stages out of order {stages:?}"
        );
        let finals = named("point").filter(|&p| p == "route_final").count();
        assert_eq!(finals, 1, "job {job} rail {rail:?}: route_final count");
    }
}

/// What one backend did with the specs: each job's outcome and its
/// untimed event stream, plus the `/metrics` JSON key set.
struct Run {
    outcomes: Vec<Outcome>,
    streams: Vec<Vec<Untimed>>,
    metric_keys: BTreeSet<String>,
}

/// Runs every spec to its terminal state and collects what it left.
fn run<E: Executor>(backend: &Ledger<E>) -> Run {
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
    let bus = backend.events();
    let streams = ids
        .iter()
        .map(|&id| {
            let page = bus.snapshot_since(id, 0);
            assert!(page.terminal, "job {id}: stream not terminal");
            assert_eq!(page.dropped, 0, "job {id}: stream dropped events");
            let stream: Vec<Untimed> = page.events.iter().map(|e| untimed(&e.line)).collect();
            assert_rail_attribution(id, &stream);
            stream
        })
        .collect();
    let metrics = parse(&backend.metrics_json()).expect("metrics are JSON");
    let metric_keys = metrics
        .as_object()
        .expect("metrics are an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    Run {
        outcomes,
        streams,
        metric_keys,
    }
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
    let in_process = run(&service);
    service.shutdown(true);

    let fleet = FleetCoordinator::start(FleetConfig {
        workers: 1,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
        worker_args: vec!["--router".into(), "fast".into()],
        max_job_retries: JOB_RETRIES,
        ..FleetConfig::default()
    })
    .expect("fleet start");
    let in_fleet = run(&fleet);
    fleet.drain(Duration::from_secs(30));

    let (threads, processes) = (&in_process.outcomes, &in_fleet.outcomes);
    let repeat = threads.len() - 1;
    assert_eq!(threads[repeat], threads[0], "service repeat differs");
    assert_eq!(processes[repeat], processes[0], "fleet repeat differs");
    assert_eq!(threads, processes, "per-job outcomes differ");
    assert_eq!(
        in_process.metric_keys, in_fleet.metric_keys,
        "/metrics key sets differ"
    );
    for (job, (a, b)) in in_process.streams.iter().zip(&in_fleet.streams).enumerate() {
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            assert_eq!(a, b, "job {}: event {i} differs", job + 1);
        }
        assert_eq!(a.len(), b.len(), "job {}: stream lengths differ", job + 1);
    }
}
