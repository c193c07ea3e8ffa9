//! Fault-injection walkthrough: the recovery subsystem in action.
//!
//! ```text
//! cargo run -p sprout-examples --bin faults
//! ```
//!
//! Routes the two-rail board under increasingly hostile deterministic
//! [`FaultPlan`]s — solver failures, NaN conductances, a degenerate
//! polygon, a stage timeout — and prints one line per scenario: the
//! shipped objective and the diagnostics trail (a failed stage reverts
//! to the best evaluated subgraph), or the typed error. The final two
//! sections move up a level to the job
//! supervisor: a worker panic contained to its rail, and a mid-run
//! kill followed by a checkpoint resume.

use sprout_board::presets;
use sprout_core::recovery::{FaultPlan, RecoveryConfig, Stage};
use sprout_core::router::Router;
use sprout_core::supervisor::{RailOutcome, Supervisor, SupervisorConfig};
use sprout_examples::example_config;

fn main() {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (net, _) = board.power_nets().next().expect("two_rail has power nets");

    let scenarios: [(&str, FaultPlan); 5] = [
        ("quiet (no faults)", FaultPlan::quiet(0)),
        (
            "flaky solver (30% failures)",
            FaultPlan {
                solver_failure_rate: 0.3,
                ..FaultPlan::quiet(7)
            },
        ),
        (
            "NaN conductances + degenerate polygon",
            FaultPlan {
                nan_conductance_rate: 0.005,
                degenerate_polygon: true,
                ..FaultPlan::quiet(3)
            },
        ),
        (
            "refine stage timeout",
            FaultPlan {
                timeout_stage: Some(Stage::Refine),
                ..FaultPlan::quiet(5)
            },
        ),
        (
            "certain solver failure",
            FaultPlan {
                solver_failure_rate: 1.0,
                ..FaultPlan::quiet(11)
            },
        ),
    ];

    for (label, plan) in scenarios {
        println!("=== {label} ===");
        let mut config = example_config();
        config.recovery = RecoveryConfig {
            fault: Some(plan),
            ..RecoveryConfig::default()
        };
        let router = Router::new(&board, config);
        match router.route_net(net, layer, 22.0) {
            Ok(r) => {
                let d = &r.diagnostics;
                println!(
                    "  ok: R = {:>9.4} sq, area {:>5.1} mm², \
                     {} fallback(s), {} sanitized edge-batch(es), \
                     {} revert(s), {} overrun(s)",
                    r.final_resistance_sq,
                    r.shape.area_mm2(),
                    d.solver_fallbacks,
                    d.edges_sanitized,
                    d.stages_skipped,
                    d.budget_overruns,
                );
                for w in &d.warnings {
                    println!("      warn: {w}");
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }

    supervisor_panic_demo(&board);
    supervisor_resume_demo(&board);
}

/// Prints one line per rail of a [`sprout_core::supervisor::JobReport`].
fn print_rails(report: &sprout_core::supervisor::JobReport) {
    for rail in &report.rails {
        let verdict = match &rail.outcome {
            RailOutcome::Routed(results) => format!(
                "routed, R = {:.4} sq",
                results
                    .last()
                    .map(|r| r.final_resistance_sq)
                    .unwrap_or(f64::INFINITY)
            ),
            RailOutcome::Restored(r) => {
                format!(
                    "restored from checkpoint, R = {:.4} sq",
                    r.final_resistance_sq
                )
            }
            RailOutcome::Failed(e) => format!("failed: {e}"),
            RailOutcome::Skipped { reason } => format!("skipped: {reason}"),
        };
        println!(
            "    {:?} layer {} (wave {}): {verdict}",
            rail.net, rail.layer, rail.wave
        );
    }
    for w in &report.warnings {
        println!("    warn: {w}");
    }
}

/// One worker panics mid-route; the supervisor reports it as a typed
/// per-rail failure while the sibling rail completes untouched.
fn supervisor_panic_demo(board: &sprout_board::Board) {
    println!("=== supervisor: worker panic contained to its rail ===");
    println!("  (the panic printed below is injected; the supervisor catches it)");
    // Panic injection is a deterministic per-rail-index draw, so scan
    // for a seed that fells exactly the first rail.
    let plan = (0..10_000)
        .map(|seed| FaultPlan {
            worker_panic_rate: 0.5,
            ..FaultPlan::quiet(seed)
        })
        .find(|p| p.worker_panics(0) && !p.worker_panics(1))
        .expect("a seed splitting the rails");
    let mut config = example_config();
    config.recovery = RecoveryConfig {
        fault: Some(plan),
        ..RecoveryConfig::default()
    };
    let requests: Vec<_> = board
        .power_nets()
        .map(|(id, _)| (id, presets::TWO_RAIL_ROUTE_LAYER, 22.0))
        .collect();
    let report = Supervisor::new(board, config, SupervisorConfig::default()).run(&requests);
    print_rails(&report);
}

/// The job is killed right after wave 0's checkpoint lands; the rerun
/// restores the finished rail bit-identically and routes only the rest.
fn supervisor_resume_demo(board: &sprout_board::Board) {
    println!("=== supervisor: mid-run kill, then checkpoint resume ===");
    let checkpoint =
        std::env::temp_dir().join(format!("sprout-faults-demo-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);
    let requests: Vec<_> = board
        .power_nets()
        .map(|(id, _)| (id, presets::TWO_RAIL_ROUTE_LAYER, 22.0))
        .collect();

    println!("  first run (killed after wave 0):");
    let killed = Supervisor::new(
        board,
        example_config(),
        SupervisorConfig {
            checkpoint: Some(checkpoint.clone()),
            kill_after_wave: Some(0),
            ..SupervisorConfig::sequential()
        },
    )
    .run(&requests);
    print_rails(&killed);

    println!("  resumed run:");
    let resumed = Supervisor::new(
        board,
        example_config(),
        SupervisorConfig {
            checkpoint: Some(checkpoint.clone()),
            ..SupervisorConfig::sequential()
        },
    )
    .run(&requests);
    print_rails(&resumed);
    println!(
        "  {} rail(s) restored without rerouting; job complete: {}",
        resumed.resumed,
        resumed.is_complete()
    );
    let _ = std::fs::remove_file(&checkpoint);
}
