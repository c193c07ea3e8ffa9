//! Decap-count sweep — the paper's motivating example, quantified.
//!
//! ```text
//! cargo run -p sprout-bench --release --bin decap_sweep [--json] [--quiet]
//! ```
//!
//! §I motivates SPROUT with exactly this question: "adding decoupling
//! capacitors would likely reduce the inductive noise while adding
//! cost. Quantifying these effects prior to floorplanning and routing
//! is however difficult." With automated prototyping it is a loop: fix
//! the CPU rail of the three-rail board, vary the number of mounted
//! decaps from zero to five, and extract the 25 MHz inductance and the
//! minimum load voltage for each count.

use sprout_bench::{outln, BenchOutput};
use sprout_board::presets;
use sprout_board::Decap;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::RunReport;
use sprout_extract::ac::ac_impedance_25mhz;
use sprout_extract::network::RailNetwork;
use sprout_extract::pdn::RailPdn;
use sprout_extract::resistance::dc_resistance;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = BenchOutput::from_args();
    let board = presets::three_rail();
    let layer = presets::TEN_LAYER_ROUTE_LAYER;
    let config = RouterConfig {
        tile_pitch_mm: 0.3,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    };
    let router = Router::new(&board, config);
    let (cpu_id, cpu) = board
        .power_nets()
        .find(|(_, n)| n.name == "CPU")
        .expect("preset has a CPU rail");

    // One synthesis; the decap population varies only on the electrical
    // model (the pads stay mounted — exactly how a designer would stuff
    // or omit parts on a fixed layout).
    let route = router.route_net(cpu_id, layer, 40.0)?;
    let mut report = RunReport::from_results("decap_sweep", std::slice::from_ref(&route));
    report.rails[0].budget_mm2 = 40.0;
    out.emit_report("decap_sweep", &report);
    let mut network = RailNetwork::build(&board, &route)?;
    let all_decaps: Vec<Decap> = board.decaps_for(cpu_id).cloned().collect();
    let all_taps = network.decaps.clone();
    let dc = dc_resistance(&network)?;

    outln!(
        out,
        "=== decap sweep: CPU rail, {:.1} mm² of copper ===",
        route.shape.area_mm2()
    );
    outln!(
        out,
        "{:>7} {:>12} {:>10} {:>9}",
        "decaps",
        "L@25MHz pH",
        "Vmin V",
        "ΔV gain"
    );
    let mut v_bare = None;
    for count in 0..=all_decaps.len() {
        network.decaps = all_taps[..count].to_vec();
        let ac = ac_impedance_25mhz(&network)?;
        let pdn = RailPdn {
            supply_v: cpu.supply_v,
            resistance_ohm: dc.total_ohm,
            inductance_h: ac.inductance_h,
            decaps: all_decaps[..count].to_vec(),
            load_a: cpu.current_a,
            slew_a_per_s: cpu.slew_a_per_s,
        };
        let droop = pdn.simulate_droop()?;
        let base = *v_bare.get_or_insert(droop.v_min);
        outln!(
            out,
            "{:>7} {:>12.1} {:>10.4} {:>8.1}mV",
            count,
            ac.inductance_h * 1e12,
            droop.v_min,
            (droop.v_min - base) * 1e3
        );
    }
    outln!(out);
    outln!(
        out,
        "expected: effective inductance and droop both fall as capacitors are"
    );
    outln!(
        out,
        "added, with diminishing returns — the §I intuition, now with numbers"
    );
    outln!(out, "attached before any floorplan is committed.");
    out.finish("decap_sweep")?;
    Ok(())
}
