//! Figs. 11/12 + Table IV reproduction: the three-rail area/impedance
//! trade-off.
//!
//! ```text
//! cargo run -p sprout-bench --release --bin fig12 [--svg] [--quick] [--json] [--quiet]
//! ```
//!
//! Generates the nine prototype layouts of Table IV (modem/CPU/DSP area
//! schedule), extracts each rail, simulates the load-voltage droop, and
//! prints the four series of Fig. 12: effective resistance, effective
//! inductance, minimum load voltage, and relative FinFET propagation
//! delay. `--quick` runs layouts {1, 5, 9} only.

use sprout_bench::{experiments_dir, outln, svg_requested, BenchOutput};
use sprout_board::presets;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::RunReport;
use sprout_extract::ac::ac_impedance_25mhz;
use sprout_extract::delay::FinFetModel;
use sprout_extract::network::RailNetwork;
use sprout_extract::pdn::RailPdn;
use sprout_extract::resistance::dc_resistance;
use sprout_observe::{build_heatmaps, heatmap_svg, hotspots};
use sprout_render::SvgScene;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = BenchOutput::from_args();
    let board = presets::three_rail();
    let layer = presets::TEN_LAYER_ROUTE_LAYER;
    let quick = std::env::args().any(|a| a == "--quick");
    let config = RouterConfig {
        tile_pitch_mm: 0.3,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    };
    let router = Router::new(&board, config);
    let finfet = FinFetModel::paper_32nm();
    let schedule = presets::table_iv_area_schedule();
    // One normalized area unit of Table IV maps to 1.5 mm² on our
    // synthetic board: the smallest schedule entry (CPU 15 units) must still hold a
    // connected seed for the 33-terminal CPU rail (see EXPERIMENTS.md).
    const AREA_UNIT_MM2: f64 = 1.7;
    let picks: Vec<usize> = if quick {
        vec![0, 4, 8]
    } else {
        (0..9).collect()
    };

    outln!(out, "=== Table IV schedule (normalized units = mm²) ===");
    for (k, (m, c, d)) in schedule.iter().enumerate() {
        outln!(
            out,
            "layout {}: modem {:>5.1}, CPU {:>5.1}, DSP {:>5.2}",
            k + 1,
            m,
            c,
            d
        );
    }
    outln!(out);
    outln!(out, "=== Fig. 12 series ===");
    outln!(
        out,
        "{:<7} {:<6} {:>9} {:>10} {:>10} {:>9} {:>11}",
        "layout",
        "rail",
        "area mm²",
        "R_eff mΩ",
        "L_eff pH",
        "Vmin V",
        "delay rel"
    );

    let nets: Vec<(sprout_board::NetId, sprout_board::Net)> =
        board.power_nets().map(|(id, n)| (id, n.clone())).collect();
    for &k in &picks {
        let (a_modem, a_cpu, a_dsp) = schedule[k];
        let budgets = [
            a_modem * AREA_UNIT_MM2,
            a_cpu * AREA_UNIT_MM2,
            a_dsp * AREA_UNIT_MM2,
        ];
        let mut claimed = Vec::new();
        let mut routes = Vec::new();
        let mut scene = SvgScene::new(&board, layer);
        for ((net_id, net), budget) in nets.iter().zip(budgets) {
            let route = router.route_net_with(*net_id, layer, budget, &claimed, &[])?;
            let network = RailNetwork::build(&board, &route)?;
            let dc = dc_resistance(&network)?;
            let ac = ac_impedance_25mhz(&network)?;
            let pdn = RailPdn {
                supply_v: net.supply_v,
                resistance_ohm: dc.total_ohm,
                inductance_h: ac.inductance_h,
                decaps: board.decaps_for(*net_id).cloned().collect(),
                load_a: net.current_a,
                slew_a_per_s: net.slew_a_per_s,
            };
            let droop = pdn.simulate_droop()?;
            let v_for_delay = droop.v_min.max(finfet.vth_v + 0.05);
            outln!(
                out,
                "{:<7} {:<6} {:>9.1} {:>10.2} {:>10.1} {:>9.4} {:>11.4}",
                k + 1,
                net.name,
                route.shape.area_mm2(),
                dc.total_ohm * 1e3,
                ac.inductance_h * 1e12,
                droop.v_min,
                finfet.relative_delay(v_for_delay)
            );
            scene.add_route(net.name.clone(), &route.shape);
            claimed.extend(route.shape.blocker_polygons());
            routes.push(route);
        }
        let mut report = RunReport::from_results(&format!("fig12 layout={}", k + 1), &routes);
        for (rec, budget) in report.rails.iter_mut().zip(budgets) {
            rec.budget_mm2 = budget;
        }
        // Spatial observability: per-rail current/voltage/IR-drop maps.
        // Top-5 hotspots ride along in the report; the full rasters are
        // written as CSV (+ SVG overlay with --svg) for the last layout
        // of the sweep only, keeping artifact count bounded.
        let last_pick = k == *picks.last().expect("picks is non-empty");
        for route in &routes {
            let maps = build_heatmaps(&route.graph, &route.subgraph, &route.pairs)?;
            report
                .hotspots
                .extend(hotspots(&maps, route.net.0, route.layer, 5));
            if last_pick {
                for map in [&maps.current, &maps.voltage, &maps.ir_drop] {
                    let csv = experiments_dir().join(format!(
                        "fig12_heatmap_net{}_{}.csv",
                        route.net.0, map.quantity
                    ));
                    map.write_csv(&csv)?;
                    outln!(out, "  → {}", csv.display());
                }
                if svg_requested() {
                    let svg = experiments_dir()
                        .join(format!("fig12_heatmap_net{}_ir_drop.svg", route.net.0));
                    std::fs::write(&svg, heatmap_svg(&board, layer, &maps.ir_drop))?;
                    outln!(out, "  → {}", svg.display());
                }
            }
        }
        out.emit_report("fig12", &report);
        if svg_requested() {
            let path = experiments_dir().join(format!("fig11_layout{}.svg", k + 1));
            std::fs::write(&path, scene.to_svg())?;
            outln!(out, "  → {}", path.display());
        }
    }
    outln!(out);
    outln!(out, "expected shapes (paper Fig. 12):");
    outln!(
        out,
        "  a) resistance falls with area at a diminishing rate for all rails;"
    );
    outln!(
        out,
        "  b) DSP inductance falls with area; modem/CPU inductance is flattened by decaps;"
    );
    outln!(
        out,
        "  c) V_min rises with area; modem/CPU droop larger than DSP;"
    );
    outln!(
        out,
        "  d) delay falls as V_min rises (≈7 % per 36 mV around 1 V)."
    );
    out.finish("fig12")?;
    Ok(())
}
