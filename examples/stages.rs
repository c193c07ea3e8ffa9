//! Stage-by-stage visualization of the SPROUT optimizer (Fig. 8).
//!
//! ```text
//! cargo run -p sprout-examples --bin stages
//! ```
//!
//! Runs the pipeline manually — seed, growth, refinement — dumping an
//! SVG snapshot and the objective value after each stage, reproducing
//! the montage of Fig. 8 on the two-rail board.

use sprout_board::presets;
use sprout_core::current::{injection_pairs, node_current, PairPolicy};
use sprout_core::grow::grow_to_area;
use sprout_core::refine::smart_refine;
use sprout_core::seed::{seed_subgraph, SeedOptions};
use sprout_core::space::SpaceSpec;
use sprout_core::tile::{identify_terminals, space_to_graph, TileOptions};
use sprout_core::{NodalSession, NodeId};
use sprout_examples::out_dir;
use sprout_render::SvgScene;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (vdd1, net) = board.power_nets().next().expect("preset has rails");
    println!("reproducing Fig. 8 on {} / {}", board.name(), net.name);

    let spec = SpaceSpec::build(&board, vdd1, layer, &[])?;
    let graph = space_to_graph(&spec, TileOptions::square(0.5))?;
    let terminals = identify_terminals(&graph, &spec, vdd1)?;
    let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, net.current_a);
    let protected: Vec<NodeId> = terminals.iter().flat_map(|t| t.covered.clone()).collect();
    let terminal_nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();

    let dir = out_dir();
    let snapshot = |name: &str, sub: &sprout_core::Subgraph| {
        let mut scene = SvgScene::new(&board, layer);
        scene.add_subgraph(&graph, sub, "#d95f02");
        let path = dir.join(format!("stage_{name}.svg"));
        std::fs::write(&path, scene.to_svg()).expect("write snapshot");
        path.display().to_string()
    };

    // (a/b) Seed subgraph — pairwise shortest paths + void filling.
    let mut sub = seed_subgraph(&graph, &terminals, vdd1, layer, SeedOptions::default())?;
    let r_seed = node_current(&graph, &sub, &pairs)?.resistance_sq();
    println!(
        "seed:    {:>4} tiles, {:.2} mm², R = {:.3} sq  → {}",
        sub.order(),
        sub.area_mm2(),
        r_seed,
        snapshot("a_seed", &sub)
    );

    // (c/d) SmartGrow to the budget.
    let budget = 25.0;
    let mid_budget = (sub.area_mm2() + budget) / 2.0;
    grow_to_area(&graph, &mut sub, &pairs, 20, mid_budget)?;
    let r_mid = node_current(&graph, &sub, &pairs)?.resistance_sq();
    println!(
        "grow ½:  {:>4} tiles, {:.2} mm², R = {:.3} sq  → {}",
        sub.order(),
        sub.area_mm2(),
        r_mid,
        snapshot("b_grow_mid", &sub)
    );
    grow_to_area(&graph, &mut sub, &pairs, 20, budget)?;
    let r_grown = node_current(&graph, &sub, &pairs)?.resistance_sq();
    println!(
        "grow:    {:>4} tiles, {:.2} mm², R = {:.3} sq  → {}",
        sub.order(),
        sub.area_mm2(),
        r_grown,
        snapshot("c_grown", &sub)
    );

    // (e/f) SmartRefine until the improvement stalls.
    let mut last = r_grown;
    let mut session = NodalSession::new();
    for i in 0..6 {
        let out = smart_refine(
            &mut session,
            &graph,
            &mut sub,
            &pairs,
            &protected,
            &terminal_nodes,
            10,
        )?;
        println!(
            "refine {}: moved {:>2}, R {:.3} → {:.3} sq",
            i + 1,
            out.moved,
            out.resistance_before_sq,
            out.resistance_after_sq
        );
        if (last - out.resistance_after_sq).abs() < 1e-4 * last {
            println!("negligible reduction — terminating as §II-E prescribes");
            break;
        }
        last = out.resistance_after_sq;
    }
    println!("final:   → {}", snapshot("d_refined", &sub));
    println!(
        "total reduction: {:.1} % of the seed resistance",
        (1.0 - last / r_seed) * 100.0
    );
    Ok(())
}
