//! Stage-by-stage visualization of the SPROUT optimizer (Fig. 8).
//!
//! ```text
//! cargo run -p sprout-examples --bin stages
//! cargo run --release -p sprout-examples --bin stages -- six_rail
//! cargo run --release -p sprout-examples --bin stages -- three_rail
//! ```
//!
//! Runs the pipeline manually — seed, growth, refinement — dumping an
//! SVG snapshot and the objective value after each stage, reproducing
//! the montage of Fig. 8 on the two-rail board. It also prints where
//! the tiling and the metric evaluations spent their work: lattice
//! cells by clip outcome (no blocker, proven empty without the
//! subtraction chain, chained), and the nodal session's time in
//! planning, factoring, substituting, reducing and waiting for its
//! helper threads, with the number of evaluations that split across
//! threads.
//!
//! With a board name it prints, for whole `route_all` runs instead, the
//! space stage's time with the blocker pieces it buffered against those
//! it took from the job's blocker store, then the same two splits.
//! `six_rail` routes the Table III board (0.25 mm pitch,
//! budgets `16 + 1.8·I` mm²), `three_rail` the nine Table IV layouts
//! (0.3 mm pitch, 1 normalized unit = 1.7 mm², as `fig12` maps them).

use sprout_board::{presets, Board};
use sprout_core::current::{injection_pairs, node_current, PairPolicy};
use sprout_core::grow::grow_to_area;
use sprout_core::refine::smart_refine;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::seed::{seed_subgraph, SeedOptions};
use sprout_core::space::SpaceSpec;
use sprout_core::tile::{identify_terminals, space_to_graph, TileOptions};
use sprout_core::{NodalSession, NodeId};
use sprout_examples::out_dir;
use sprout_render::SvgScene;
use sprout_telemetry::metrics::{self, Snapshot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    match std::env::args().nth(1).as_deref() {
        None | Some("two_rail") => fig8(),
        Some("six_rail") => {
            let board = presets::six_rail();
            let budgets: Vec<f64> = board
                .power_nets()
                .map(|(_, net)| 16.0 + 1.8 * net.current_a)
                .collect();
            router_split("six_rail", &board, 0.25, &[budgets])
        }
        Some("three_rail") => {
            let layouts: Vec<Vec<f64>> = presets::table_iv_area_schedule()
                .iter()
                .map(|&(a, b, c)| vec![a * 1.7, b * 1.7, c * 1.7])
                .collect();
            router_split("three_rail", &presets::three_rail(), 0.3, &layouts)
        }
        Some(other) => {
            Err(format!("unknown board {other:?}: two_rail, six_rail or three_rail").into())
        }
    }
}

/// Lattice cells by clip outcome since `before`.
fn print_tile_split(before: &Snapshot) {
    let now = metrics::global().snapshot();
    let [free, empty, chained] = ["tile.cells_free", "tile.cells_empty", "tile.cells_chained"]
        .map(|name| now.counter_delta(before, name));
    let total = (free + empty + chained).max(1) as f64;
    println!(
        "tiling:  {} cells — no blocker {free} ({:.1} %), proven empty {empty} ({:.1} %), chained {chained} ({:.1} %)",
        free + empty + chained,
        100.0 * free as f64 / total,
        100.0 * empty as f64 / total,
        100.0 * chained as f64 / total,
    );
}

/// A nodal session's time split, in ms: the calling thread's phases,
/// which sum to its evaluation wall.
fn print_eval_split(evals: u64, splits: u64, [plan, factor, substitute, reduce, wait]: [u64; 5]) {
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "evaluation: {evals} evals ({splits} split) — plan {:.1} ms, factor {:.1} ms, substitute {:.1} ms, reduce {:.1} ms, wait {:.1} ms (sum {:.1} ms)",
        ms(plan),
        ms(factor),
        ms(substitute),
        ms(reduce),
        ms(wait),
        ms(plan + factor + substitute + reduce + wait),
    );
}

/// Routes each of `layouts` (one budget per power net) with one
/// `route_all` and prints both splits.
fn router_split(
    name: &str,
    board: &Board,
    pitch_mm: f64,
    layouts: &[Vec<f64>],
) -> Result<(), Box<dyn std::error::Error>> {
    let layer = presets::TEN_LAYER_ROUTE_LAYER;
    let config = RouterConfig {
        tile_pitch_mm: pitch_mm,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    };
    let before = metrics::global().snapshot();
    let (mut rails, mut tile_ms, mut optimize_ms) = (0, 0.0, 0.0);
    let (mut space_ms, mut buffered, mut served) = (0.0, 0, 0);
    let router = Router::new(board, config);
    for budgets in layouts {
        let requests: Vec<_> = board
            .power_nets()
            .zip(budgets)
            .map(|((net, _), &budget)| (net, layer, budget))
            .collect();
        for r in router.route_all(&requests).into_results()? {
            rails += 1;
            space_ms += r.timings.space_ms;
            buffered += r.timings.space_buffered;
            served += r.timings.space_served;
            tile_ms += r.timings.tile_ms;
            optimize_ms += r.timings.grow_ms + r.timings.refine_ms + r.timings.reheat_ms;
        }
    }
    println!(
        "{name}: {} layouts, {rails} rails at {pitch_mm} mm — tile {tile_ms:.1} ms, grow + refine + reheat {optimize_ms:.1} ms",
        layouts.len()
    );
    println!(
        "space:   {space_ms:.1} ms — {} blocker pieces, buffered {buffered} ({:.1} %), served from the store {served} ({:.1} %)",
        buffered + served,
        100.0 * buffered as f64 / (buffered + served).max(1) as f64,
        100.0 * served as f64 / (buffered + served).max(1) as f64,
    );
    print_tile_split(&before);
    let now = metrics::global().snapshot();
    let split = [
        "session.plan_ns",
        "session.factor_ns",
        "session.substitute_ns",
        "session.reduce_ns",
        "session.wait_ns",
    ]
    .map(|counter| now.counter_delta(&before, counter));
    print_eval_split(
        now.counter_delta(&before, "metric.evaluations"),
        now.counter_delta(&before, "session.split_evals"),
        split,
    );
    Ok(())
}

/// The Fig. 8 montage on the two-rail board.
fn fig8() -> Result<(), Box<dyn std::error::Error>> {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let (vdd1, net) = board.power_nets().next().expect("preset has rails");
    println!("reproducing Fig. 8 on {} / {}", board.name(), net.name);

    let spec = SpaceSpec::build(&board, vdd1, layer, &[])?;
    let before = metrics::global().snapshot();
    let graph = space_to_graph(&spec, TileOptions::square(0.5))?;
    print_tile_split(&before);
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
    let stats = session.stats();
    print!("refine ");
    print_eval_split(
        stats.evals as u64,
        stats.split_evals as u64,
        [
            stats.plan_ns,
            stats.factor_ns,
            stats.substitute_ns,
            stats.reduce_ns,
            stats.wait_ns,
        ],
    );
    println!(
        "total reduction: {:.1} % of the seed resistance",
        (1.0 - last / r_seed) * 100.0
    );
    Ok(())
}
