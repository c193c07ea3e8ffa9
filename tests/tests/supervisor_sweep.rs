//! Supervisor fault sweep: the robustness acceptance gate for the
//! routing job supervisor.
//!
//! Every scenario here — injected worker panics, deadline expiry,
//! cooperative cancellation, mid-run kill with checkpoint/resume,
//! resume after a failed rail, corrupt or stale checkpoints — must end
//! with a
//! [`JobReport`] in which each rail is either complete (connected,
//! budget-respecting, DRC-clean against the claims of earlier same-layer
//! rails) or carries a typed [`SproutError`]. A panic that escapes the
//! supervisor, or any process abort, fails the harness outright.

use sprout_board::presets;
use sprout_core::backconv::RoutedShape;
use sprout_core::drc::check_route;
use sprout_core::recovery::{FaultPlan, RecoveryConfig};
use sprout_core::router::{Router, RouterConfig};
use sprout_core::supervisor::{verify_checkpoint, RailOutcome, Supervisor, SupervisorConfig};
use sprout_core::{CancelToken, JobReport, NodeId, SproutError};
use sprout_telemetry::sinks::MemorySink;
use sprout_telemetry::RecorderScope;
use std::path::PathBuf;
use std::sync::Arc;

const BUDGET_MM2: f64 = 20.0;

fn fast_config() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        ..RouterConfig::default()
    }
}

fn faulted_config(plan: FaultPlan) -> RouterConfig {
    RouterConfig {
        recovery: RecoveryConfig {
            fault: Some(plan),
            ..RecoveryConfig::default()
        },
        ..fast_config()
    }
}

fn two_rail_requests(board: &sprout_board::Board) -> Vec<(sprout_board::NetId, usize, f64)> {
    board
        .power_nets()
        .map(|(id, _)| (id, presets::TWO_RAIL_ROUTE_LAYER, BUDGET_MM2))
        .collect()
}

/// A per-test checkpoint path in the system temp directory; any stale
/// file from a previous run is removed.
fn checkpoint_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sprout-supervisor-{}-{name}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Exact shape equality: same contours (points and holes), fragments,
/// and area bits — the "bit-identical" claim of checkpoint/resume.
fn same_shape(a: &RoutedShape, b: &RoutedShape) -> bool {
    a.area_mm2().to_bits() == b.area_mm2().to_bits()
        && a.contours.len() == b.contours.len()
        && a.contours
            .iter()
            .zip(&b.contours)
            .all(|(x, y)| x.is_hole == y.is_hole && x.points == y.points)
        && a.fragments.len() == b.fragments.len()
        && a.fragments
            .iter()
            .zip(&b.fragments)
            .all(|(x, y)| x.vertices() == y.vertices())
}

/// The contract every job outcome must satisfy: complete rails are
/// connected, within budget, and DRC-clean against the claims of the
/// earlier same-layer rails; failed rails carry a typed error that
/// formats.
fn assert_job_contract(board: &sprout_board::Board, report: &JobReport) {
    let mut claimed: Vec<(usize, Vec<sprout_geom::Polygon>)> = Vec::new();
    for rail in &report.rails {
        let blockers: Vec<sprout_geom::Polygon> = claimed
            .iter()
            .filter(|(l, _)| *l == rail.layer)
            .flat_map(|(_, p)| p.iter().cloned())
            .collect();
        match &rail.outcome {
            RailOutcome::Routed(results) => {
                for r in results {
                    let nodes: Vec<NodeId> = r.terminals.iter().map(|t| t.node).collect();
                    assert!(
                        r.subgraph.connects(&r.graph, &nodes),
                        "rail {:?}: shipped subgraph disconnects terminals",
                        rail.net
                    );
                    assert!(
                        r.shape.area_mm2() <= rail.budget_mm2 + 1.0,
                        "rail {:?}: {} mm2 against a {} mm2 budget",
                        rail.net,
                        r.shape.area_mm2(),
                        rail.budget_mm2
                    );
                    let violations =
                        check_route(board, r.net, r.layer, &r.shape, &blockers).unwrap();
                    assert!(violations.is_empty(), "rail {:?}: {violations:?}", rail.net);
                    claimed.push((rail.layer, r.shape.blocker_polygons()));
                }
            }
            RailOutcome::Restored(rr) => {
                let violations =
                    check_route(board, rail.net, rail.layer, &rr.shape, &blockers).unwrap();
                assert!(violations.is_empty(), "restored rail: {violations:?}");
                claimed.push((rail.layer, rr.shape.blocker_polygons()));
            }
            RailOutcome::Failed(e) => {
                let _ = format!("{e}");
                let _ = std::error::Error::source(e);
            }
            RailOutcome::Skipped { reason } => assert!(!reason.is_empty()),
        }
    }
}

/// The lowest seed whose fault plan panics rail `panicking` and no
/// other of the job's `rails` rails — deterministic, so every run of
/// the harness picks the same one.
fn seed_panicking_only(panicking: usize, rails: usize) -> u64 {
    (0..10_000u64)
        .find(|&s| {
            let plan = FaultPlan {
                worker_panic_rate: 0.5,
                ..FaultPlan::quiet(s)
            };
            (0..rails).all(|i| plan.worker_panics(i) == (i == panicking))
        })
        .expect("a panic-splitting seed exists")
}

/// Asserts that `report`'s shapes, restored and routed alike, equal
/// `baseline`'s bit for bit, rail by rail.
fn assert_same_shapes(baseline: &JobReport, report: &JobReport) {
    let (base, got) = (baseline.shapes(), report.shapes());
    assert_eq!(base.len(), got.len());
    for ((net_a, layer_a, a), (net_b, layer_b, b)) in base.iter().zip(got.iter()) {
        assert_eq!((net_a, layer_a), (net_b, layer_b));
        assert!(same_shape(a, b), "shape diverged for {net_a:?}");
    }
}

#[test]
fn worker_panic_is_contained_and_the_other_rail_completes() {
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let seed = seed_panicking_only(0, 2);
    let plan = FaultPlan {
        worker_panic_rate: 0.5,
        ..FaultPlan::quiet(seed)
    };

    let report = Router::new(&board, faulted_config(plan)).route_all(&requests);
    assert_job_contract(&board, &report);
    assert!(!report.is_complete());
    assert!(
        matches!(
            report.rails[0].outcome,
            RailOutcome::Failed(SproutError::WorkerPanicked { .. })
        ),
        "{:?}",
        report.rails[0].outcome
    );
    assert!(report.rails[1].outcome.is_complete());

    // The panicked rail claimed nothing, so the surviving rail's shape
    // must equal a solo route of that net.
    let solo = Router::new(&board, fast_config())
        .route_net(requests[1].0, requests[1].1, requests[1].2)
        .unwrap();
    let RailOutcome::Routed(results) = &report.rails[1].outcome else {
        unreachable!()
    };
    assert!(
        same_shape(&results[0].shape, &solo.shape),
        "surviving rail diverged from its solo route"
    );
}

#[test]
fn panicked_rail_reports_the_panic_once() {
    // The supervisor routes each rail once: an injected panic is caught,
    // emitted as one `worker_panic` point and reported as one typed
    // outcome, and the sibling rail still completes. Another try is the
    // caller's call (the service's job ledger re-runs the whole job).
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let seed = seed_panicking_only(0, 2);
    let plan = FaultPlan {
        worker_panic_rate: 0.5,
        ..FaultPlan::quiet(seed)
    };
    let sink = Arc::new(MemorySink::new());
    let report = {
        let _scope = RecorderScope::install(sink.clone());
        Supervisor::new(&board, faulted_config(plan), SupervisorConfig::sequential()).run(&requests)
    };
    let panics = sink
        .names()
        .iter()
        .filter(|&&n| n == "worker_panic")
        .count();
    assert_eq!(panics, 1, "the panicked rail must route exactly once");
    assert!(matches!(
        report.rails[0].outcome,
        RailOutcome::Failed(SproutError::WorkerPanicked { .. })
    ));
    assert_eq!(report.failures().count(), 1);
    assert!(report.rails[1].outcome.is_complete());
}

#[test]
fn mid_run_kill_and_resume_reproduce_the_sequential_shapes() {
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let path = checkpoint_path("kill-resume");

    // The uninterrupted sequential baseline.
    let baseline = Router::new(&board, fast_config()).route_all(&requests);
    assert!(baseline.is_complete(), "{:?}", baseline.warnings);

    // Run A: killed right after wave 0's checkpoint — rail 0 lands in
    // the checkpoint, rail 1 never runs.
    let killed = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            kill_after_wave: Some(0),
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert!(killed.rails[0].outcome.is_complete());
    assert!(matches!(
        killed.rails[1].outcome,
        RailOutcome::Failed(SproutError::Cancelled)
    ));
    assert!(
        killed.warnings.iter().any(|w| w.contains("killed")),
        "{:?}",
        killed.warnings
    );

    // Run B: a fresh supervisor over the same board and requests resumes
    // from the checkpoint and completes the remaining rail.
    let resumed = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert_job_contract(&board, &resumed);
    assert_eq!(resumed.resumed, 1);
    assert!(matches!(resumed.rails[0].outcome, RailOutcome::Restored(_)));
    assert!(matches!(resumed.rails[1].outcome, RailOutcome::Routed(_)));

    // Shapes — restored and freshly routed alike — match the
    // uninterrupted sequential run exactly.
    assert_same_shapes(&baseline, &resumed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_of_one_worker_then_restart_completes_the_job_identically() {
    // The acceptance scenario end to end, for either rail of two_rail:
    // run A suffers an injected worker panic in one rail (typed
    // outcome, the other rail checkpointed); run B models the
    // post-crash restart — no fault plan — and the final shapes are
    // identical to an uninterrupted sequential route_all. When rail 1
    // panicked, run B restores rail 0 and routes rail 1. When rail 0
    // panicked, rail 1 completed without rail 0's copper, so run B
    // restores nothing and routes both in order.
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let baseline = Router::new(&board, fast_config()).route_all(&requests);
    assert!(baseline.is_complete());

    for panicking in [1, 0] {
        let path = checkpoint_path(&format!("crash-restart-{panicking}"));
        let plan = FaultPlan {
            worker_panic_rate: 0.5,
            ..FaultPlan::quiet(seed_panicking_only(panicking, 2))
        };
        let crashed = Supervisor::new(
            &board,
            faulted_config(plan),
            SupervisorConfig {
                threads: 1,
                checkpoint: Some(path.clone()),
                ..SupervisorConfig::default()
            },
        )
        .run(&requests);
        assert!(crashed.rails[1 - panicking].outcome.is_complete());
        assert!(matches!(
            crashed.rails[panicking].outcome,
            RailOutcome::Failed(SproutError::WorkerPanicked { .. })
        ));

        let restarted = Supervisor::new(
            &board,
            fast_config(),
            SupervisorConfig {
                threads: 1,
                checkpoint: Some(path.clone()),
                ..SupervisorConfig::default()
            },
        )
        .run(&requests);
        assert_job_contract(&board, &restarted);
        assert!(restarted.is_complete(), "{:?}", restarted.warnings);
        assert_eq!(restarted.resumed, panicking, "rail {panicking} panicked");
        assert_same_shapes(&baseline, &restarted);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resume_restores_only_each_layers_completed_prefix() {
    // Six rails on one layer; run A panics rail 0 only, so rails 1–5
    // complete without rail 0's copper and land in the checkpoint. Run
    // B (no faults) re-routes rail 0, so it must re-route every later
    // rail of the layer too: a restored rail 1 would overlap the new
    // rail 0 (two power nets sharing copper).
    let board = presets::six_rail();
    let layer = presets::TEN_LAYER_ROUTE_LAYER;
    let requests: Vec<_> = board
        .power_nets()
        .map(|(id, _)| (id, layer, 15.0))
        .collect();
    assert_eq!(requests.len(), 6);
    let config = RouterConfig {
        tile_pitch_mm: 0.25,
        ..fast_config()
    };
    let plan = FaultPlan {
        worker_panic_rate: 0.5,
        ..FaultPlan::quiet(seed_panicking_only(0, requests.len()))
    };
    let path = checkpoint_path("prefix-resume");
    let job = || SupervisorConfig {
        threads: 1,
        checkpoint: Some(path.clone()),
        ..SupervisorConfig::default()
    };

    let baseline = Router::new(&board, config).route_all(&requests);
    assert!(baseline.is_complete(), "{:?}", baseline.warnings);

    let faulted = RouterConfig {
        recovery: RecoveryConfig {
            fault: Some(plan),
            ..config.recovery
        },
        ..config
    };
    let crashed = Supervisor::new(&board, faulted, job()).run(&requests);
    assert!(matches!(
        crashed.rails[0].outcome,
        RailOutcome::Failed(SproutError::WorkerPanicked { .. })
    ));
    assert!(crashed.rails[1..].iter().all(|r| r.outcome.is_complete()));
    // Run A writes only what can be restored: rail 0 failed, so no
    // rail of the layer gets a record.
    let text = std::fs::read_to_string(&path).expect("run A checkpoints");
    let records = text.lines().filter(|l| l.starts_with("rail ")).count();
    assert_eq!(records, 0, "{records} unrestorable rail record(s) written");
    let restorable = verify_checkpoint(&path, &board, &requests);

    let restarted = Supervisor::new(&board, config, job()).run(&requests);
    assert_job_contract(&board, &restarted);
    assert!(restarted.is_complete(), "{:?}", restarted.warnings);
    assert_eq!(restarted.resumed, 0);
    assert_eq!(restorable, Ok(Some(0)), "the checkpoint loader agrees");
    assert_same_shapes(&baseline, &restarted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn expired_deadline_fails_rails_with_a_typed_outcome() {
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let report = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            deadline_ms: Some(0.0),
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert!(!report.is_complete());
    for rail in &report.rails {
        assert!(
            matches!(
                rail.outcome,
                RailOutcome::Failed(SproutError::DeadlineExpired { .. })
            ),
            "{:?}",
            rail.outcome
        );
    }
    // A generous deadline must not perturb the job at all.
    let relaxed = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            deadline_ms: Some(600_000.0),
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert!(relaxed.is_complete(), "{:?}", relaxed.warnings);
}

#[test]
fn pre_cancelled_job_reports_every_rail_cancelled() {
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let cancel = CancelToken::new();
    cancel.cancel();
    let report = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            cancel,
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert!(!report.is_complete());
    for rail in &report.rails {
        assert!(matches!(
            rail.outcome,
            RailOutcome::Failed(SproutError::Cancelled)
        ));
    }
}

#[test]
fn corrupt_and_stale_checkpoints_are_ignored_with_a_warning() {
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    let path = checkpoint_path("corrupt");
    std::fs::write(&path, "sprout-checkpoint v1\nboard 0000000000000000\n").unwrap();
    let report = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert_eq!(report.resumed, 0);
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("checkpoint ignored")),
        "{:?}",
        report.warnings
    );
    assert!(report.is_complete());

    // The file just written belongs to this job; a different request
    // list must reject it (stale-job fingerprint) and still complete.
    let other_requests = vec![requests[0], (requests[1].0, requests[1].1, 33.0)];
    let stale = Supervisor::new(
        &board,
        fast_config(),
        SupervisorConfig {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..SupervisorConfig::default()
        },
    )
    .run(&other_requests);
    assert_eq!(stale.resumed, 0);
    assert!(
        stale.warnings.iter().any(|w| w.contains("fingerprint")),
        "{:?}",
        stale.warnings
    );
    assert!(stale.is_complete());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn seeded_scenario_sweep_never_panics() {
    // ≥ 16 seeded scenarios mixing injected faults (solver failures,
    // NaN conductances, degenerate polygons, stage timeouts, worker
    // panics), thread counts, deadlines, and checkpoint/resume.
    // Every job must satisfy the rail contract; resumed jobs must end
    // complete or with the same typed outcomes.
    let board = presets::two_rail();
    let requests = two_rail_requests(&board);
    for seed in 0..16u64 {
        let plan = FaultPlan::for_scenario(seed);
        let use_checkpoint = seed % 4 == 0;
        let path = checkpoint_path(&format!("sweep-{seed}"));
        let supervisor_config = || SupervisorConfig {
            threads: [1, 2, 4][(seed % 3) as usize],
            deadline_ms: if seed % 5 == 0 { Some(0.0) } else { None },
            checkpoint: use_checkpoint.then(|| path.clone()),
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::new(&board, faulted_config(plan), supervisor_config());
        let report = supervisor.run(&requests);
        assert_job_contract(&board, &report);
        assert_eq!(report.rails.len(), requests.len());

        if use_checkpoint {
            let resumed =
                Supervisor::new(&board, faulted_config(plan), supervisor_config()).run(&requests);
            assert_job_contract(&board, &resumed);
            // Whatever completed the first time must stay complete.
            for (a, b) in report.rails.iter().zip(resumed.rails.iter()) {
                if a.outcome.is_complete() {
                    assert!(
                        b.outcome.is_complete(),
                        "seed {seed}: completed rail regressed on resume"
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
