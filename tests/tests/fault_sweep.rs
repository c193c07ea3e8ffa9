//! Fault-injection sweep: the robustness acceptance gate.
//!
//! For a range of deterministic [`FaultPlan`] scenarios — forced solver
//! failures, NaN conductances, degenerate polygons, stage timeouts, and
//! mixtures — `Router::route_net` against the `two_rail` preset must
//! return either a connected, DRC-clean `RouteResult` whose diagnostics
//! record every degradation taken, or a typed `SproutError`. Panics are
//! the one outcome that is never acceptable; any panic fails the test
//! harness outright.

use sprout_board::presets;
use sprout_core::drc::check_route;
use sprout_core::recovery::{FaultPlan, RecoveryConfig, Stage};
use sprout_core::router::{RouteResult, Router, RouterConfig};
use sprout_core::{NodeId, RailRunRecord, RunReport, SproutError};
use std::io::Write as _;
use std::path::PathBuf;

const SWEEP_SEEDS: u64 = 24;
const BUDGET_MM2: f64 = 20.0;

fn sweep_config(plan: FaultPlan) -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        recovery: RecoveryConfig {
            fault: Some(plan),
            ..RecoveryConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// The contract every outcome must satisfy: a connected, DRC-clean
/// result with honest diagnostics, or a typed error.
fn assert_route_contract(result: Result<RouteResult, SproutError>, plan: FaultPlan) {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    match result {
        Ok(r) => {
            // Terminals stay connected in the shipped subgraph.
            let nodes: Vec<NodeId> = r.terminals.iter().map(|t| t.node).collect();
            assert!(
                r.subgraph.connects(&r.graph, &nodes),
                "plan {plan:?}: shipped subgraph disconnects terminals"
            );
            // The shipped metal respects the area budget (one grow-step
            // of slack): a recovery path must never ship the transient
            // overshoot that reheat builds before shrinking back.
            assert!(
                r.shape.area_mm2() <= BUDGET_MM2 + 1.0,
                "plan {plan:?}: shipped {} mm2 against a {BUDGET_MM2} mm2 budget",
                r.shape.area_mm2()
            );
            // The shape is DRC-clean (the injected sliver, if any, must
            // have been sanitized away before this point).
            let violations = check_route(&board, r.net, layer, &r.shape, &[]).unwrap();
            assert!(
                violations.is_empty(),
                "plan {plan:?}: DRC violations {violations:?}"
            );
            // Honest diagnostics: a sliver injection must be visible as
            // a FragmentsDropped degradation.
            if plan.degenerate_polygon {
                assert!(
                    r.diagnostics
                        .degradations
                        .iter()
                        .any(|d| matches!(d, sprout_core::Degradation::FragmentsDropped { .. })),
                    "plan {plan:?}: injected sliver left no diagnostic trace"
                );
            }
            // A forced timeout must be visible as a budget overrun: the
            // sweep config runs grow, refine, and reheat on every
            // successful route, and each checks its guard on entry.
            if let Some(stage) = plan.timeout_stage {
                assert!(
                    r.diagnostics.budget_overruns > 0,
                    "plan {plan:?}: forced {stage} timeout left no overrun record"
                );
            }
            // Under heavy solver-failure injection the run cannot be
            // pristine: something must have been recorded.
            if plan.solver_failure_rate > 0.5 {
                assert!(
                    !r.diagnostics.is_clean(),
                    "plan {plan:?}: heavy faults but clean diagnostics"
                );
            }
        }
        Err(e) => {
            // A typed error is acceptable; make sure it formats (Display
            // is part of the contract) and carries a source chain where
            // applicable.
            let _ = format!("{e}");
            let _ = std::error::Error::source(&e);
        }
    }
}

#[test]
fn fault_sweep_scenarios_never_panic() {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();
    for seed in 0..SWEEP_SEEDS {
        let plan = FaultPlan::for_scenario(seed);
        let router = Router::new(&board, sweep_config(plan));
        let result = router.route_net(net, layer, BUDGET_MM2);
        assert_route_contract(result, plan);
    }
}

/// Runs a compact version of the sweep and writes one [`RunReport`]
/// JSONL line per scenario to `target/experiments/` — the artifact CI
/// uploads so every pipeline run leaves a queryable robustness record.
#[test]
fn fault_sweep_writes_run_report_artifact() {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();
    let mut lines = Vec::new();
    for seed in 0..8 {
        let plan = FaultPlan::for_scenario(seed);
        let router = Router::new(&board, sweep_config(plan));
        let label = format!("fault_sweep seed={seed}");
        let mut report = match router.route_net(net, layer, BUDGET_MM2) {
            Ok(r) => RunReport::from_results(&label, std::slice::from_ref(&r)),
            Err(e) => RunReport {
                label,
                rails: vec![RailRunRecord {
                    net: net.0,
                    layer,
                    outcome: "failed",
                    error: Some(e.to_string()),
                    ..RailRunRecord::default()
                }],
                ..RunReport::default()
            },
        };
        for rail in &mut report.rails {
            rail.budget_mm2 = BUDGET_MM2;
        }
        let json = report.to_json();
        assert!(!json.contains('\n'), "one line per scenario");
        lines.push(json);
    }
    // Tests run with the package dir as cwd; the workspace target/ is
    // one level up.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join("fault_sweep_report.jsonl");
    let mut f = std::fs::File::create(&path).expect("create artifact");
    for line in &lines {
        writeln!(f, "{line}").expect("write artifact");
    }
    assert_eq!(lines.len(), 8);
}

#[test]
fn quiet_plan_matches_fault_free_run() {
    // A FaultPlan that injects nothing must not perturb the pipeline:
    // same subgraph, same objective, clean diagnostics.
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();

    let mut plain_cfg = sweep_config(FaultPlan::quiet(0));
    plain_cfg.recovery.fault = None;
    let plain = Router::new(&board, plain_cfg)
        .route_net(net, layer, BUDGET_MM2)
        .unwrap();

    let quiet = Router::new(&board, sweep_config(FaultPlan::quiet(0)))
        .route_net(net, layer, BUDGET_MM2)
        .unwrap();

    assert!(plain.diagnostics.is_clean());
    assert!(quiet.diagnostics.is_clean());
    assert_eq!(plain.subgraph.order(), quiet.subgraph.order());
    assert_eq!(plain.final_resistance_sq, quiet.final_resistance_sq);
}

#[test]
fn certain_solver_failure_still_ships_the_seed() {
    // With every metric evaluation failing, the router must still return
    // a connected result built from the seed, with an infinite objective
    // and a diagnostics trail.
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();
    let certain = FaultPlan {
        solver_failure_rate: 1.0,
        ..FaultPlan::quiet(11)
    };

    let r = Router::new(&board, sweep_config(certain))
        .route_net(net, layer, BUDGET_MM2)
        .expect("stage failures revert, they do not propagate");
    assert!(r.final_resistance_sq.is_infinite());
    assert!(!r.diagnostics.is_clean());
    let nodes: Vec<NodeId> = r.terminals.iter().map(|t| t.node).collect();
    assert!(r.subgraph.connects(&r.graph, &nodes));
}

#[test]
fn stage_budget_truncates_work() {
    // A forced timeout in each solve-heavy stage truncates that stage
    // on entry while still producing a valid shape.
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();
    for stage in [Stage::Grow, Stage::Refine, Stage::Reheat] {
        let plan = FaultPlan {
            timeout_stage: Some(stage),
            ..FaultPlan::quiet(0)
        };
        let r = Router::new(&board, sweep_config(plan))
            .route_net(net, layer, BUDGET_MM2)
            .expect("budget truncation is not an error");
        assert_eq!(r.diagnostics.budget_overruns, 1, "{stage}");
        assert!(
            r.diagnostics.degradations.iter().any(|d| matches!(
                d,
                sprout_core::Degradation::BudgetOverrun { stage: s, .. } if *s == stage
            )),
            "{stage}: {:?}",
            r.diagnostics.degradations
        );
        let nodes: Vec<NodeId> = r.terminals.iter().map(|t| t.node).collect();
        assert!(r.subgraph.connects(&r.graph, &nodes));
        let violations = check_route(&board, r.net, layer, &r.shape, &[]).unwrap();
        assert!(violations.is_empty(), "{stage}: {violations:?}");
    }
}

#[test]
fn degenerate_polygon_is_sanitized_before_drc() {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().unwrap();
    let plan = FaultPlan {
        degenerate_polygon: true,
        ..FaultPlan::quiet(5)
    };
    let r = Router::new(&board, sweep_config(plan))
        .route_net(net, layer, BUDGET_MM2)
        .unwrap();
    assert!(r
        .diagnostics
        .degradations
        .iter()
        .any(|d| matches!(d, sprout_core::Degradation::FragmentsDropped { count } if *count >= 1)));
    let violations = check_route(&board, r.net, layer, &r.shape, &[]).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
}
