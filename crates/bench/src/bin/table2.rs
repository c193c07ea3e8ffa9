//! Table II reproduction: the two-rail system, manual vs SPROUT.
//!
//! ```text
//! cargo run -p sprout-bench --release --bin table2 [--svg] [--json] [--quiet]
//! ```
//!
//! Routes both rails of the §III-A board with SPROUT and with the
//! regular-geometry manual baseline at equal area budgets, extracts both
//! with the same engine, and prints the comparison normalized the way
//! the paper normalizes (manual V_DD1 anchors the scales: 100 pH and
//! 10.0 mΩ).

use sprout_baseline::ManualRouter;
use sprout_bench::{
    experiments_dir, extract_row, outln, print_comparison, settings, svg_requested, BenchOutput,
    ExtractedRow,
};
use sprout_board::presets;
use sprout_core::drc::check_route;
use sprout_core::router::Router;
use sprout_core::RunReport;
use sprout_render::SvgScene;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = BenchOutput::from_args();
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let config = settings::table2_router();
    let router = Router::new(&board, config);
    let manual = ManualRouter::new(&board, settings::manual_for(&config));

    let mut rows: Vec<ExtractedRow> = Vec::new();
    let mut sprout_routes = Vec::new();
    let mut route_budgets = Vec::new();
    let mut claimed_sprout = Vec::new();
    let mut claimed_manual = Vec::new();
    let mut scene = SvgScene::new(&board, layer);
    for ((net_id, net), budget) in board.power_nets().zip(settings::TABLE2_BUDGETS_MM2) {
        let s = router.route_net_with(net_id, layer, budget, &claimed_sprout, &[])?;
        let m = manual.route_net_with(net_id, layer, budget, &claimed_manual)?;
        for (engine, route) in [("manual", &m), ("SPROUT", &s)] {
            let blockers = if engine == "manual" {
                &claimed_manual
            } else {
                &claimed_sprout
            };
            let drc = check_route(&board, net_id, layer, &route.shape, blockers)?;
            assert!(drc.is_empty(), "{engine} {} has DRC violations", net.name);
            rows.push(extract_row(&board, &net.name, engine, route)?);
        }
        scene.add_route(format!("{} SPROUT", net.name), &s.shape);
        claimed_sprout.extend(s.shape.blocker_polygons());
        claimed_manual.extend(m.shape.blocker_polygons());
        sprout_routes.push(s);
        route_budgets.push(budget);
    }

    let mut report = RunReport::from_results("table2", &sprout_routes);
    for (rec, budget) in report.rails.iter_mut().zip(&route_budgets) {
        rec.budget_mm2 = *budget;
    }
    out.emit_report("table2", &report);

    outln!(out, "=== Table II: two-rail system, manual vs SPROUT ===");
    outln!(
        out,
        "(normalization anchored at manual VDD1: L = 100, R = 10.0 mΩ, as the paper)"
    );
    print_comparison(&out, &rows, 10.0, 100.0);
    outln!(out);
    outln!(
        out,
        "paper reference (normalized): VDD1 manual L=100 R=10.0 | SPROUT L=87.5 R=10.1"
    );
    outln!(
        out,
        "                              VDD2 manual L=136 R=12.7 | SPROUT L=138  R=13.1"
    );
    outln!(
        out,
        "expected agreement: SPROUT within ~±15 % of manual per rail;"
    );
    outln!(
        out,
        "inductance trend favours SPROUT, resistance roughly equal or slightly higher."
    );

    if svg_requested() {
        let path = experiments_dir().join("fig9_two_rail.svg");
        std::fs::write(&path, scene.to_svg())?;
        outln!(out, "Fig. 9-style layout written to {}", path.display());
    }
    out.finish("table2")?;
    Ok(())
}
