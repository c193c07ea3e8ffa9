//! Multilayer routing demo (Appendix, Fig. 13).
//!
//! ```text
//! cargo run -p sprout-examples --bin multilayer
//! ```
//!
//! Builds a board whose routing layer is split by a full-height wall,
//! shows that single-layer routing fails, then plans vias through a
//! second layer and routes each region. Exits non-zero if a layer
//! fails.

use sprout_board::{Board, DesignRules, Element, ElementRole, Net, Stackup};
use sprout_core::multilayer::{plan_multilayer, route_multilayer, MultilayerConfig};
use sprout_core::router::{Router, RouterConfig};
use sprout_core::SproutError;
use sprout_examples::out_dir;
use sprout_geom::{Point, Polygon, Rect};
use sprout_render::SvgScene;

fn walled_board() -> Result<(Board, sprout_board::NetId), Box<dyn std::error::Error>> {
    let outline = Rect::new(Point::new(0.0, 0.0), Point::new(12.0, 8.0))?;
    let mut board = Board::new(
        "walled-demo",
        outline,
        Stackup::eight_layer(),
        DesignRules::default(),
    );
    let vdd = board.add_net(Net::power("VDD", 2.0, 1e9, 1.0)?);
    let pad = |c: Point| -> Result<Polygon, sprout_geom::GeomError> {
        Polygon::rectangle(
            Point::new(c.x - 0.25, c.y - 0.25),
            Point::new(c.x + 0.25, c.y + 0.25),
        )
    };
    board.add_element(Element::terminal(
        vdd,
        6,
        pad(Point::new(2.0, 4.0))?,
        ElementRole::Source,
    ))?;
    board.add_element(Element::terminal(
        vdd,
        6,
        pad(Point::new(10.0, 4.0))?,
        ElementRole::Sink,
    ))?;
    board.add_element(Element::blockage(
        6,
        Polygon::rectangle(Point::new(5.5, 0.0), Point::new(6.5, 8.0))?,
    ))?;
    Ok((board, vdd))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (board, vdd) = walled_board()?;
    let config = RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        ..RouterConfig::default()
    };
    let router = Router::new(&board, config);

    // Single-layer routing cannot cross the wall (Fig. 5b situation).
    match router.route_net(vdd, 6, 15.0) {
        Err(SproutError::DisjointSpace { .. }) => {
            println!("single-layer routing on layer 7 fails: space is disjoint (expected)")
        }
        other => println!("unexpected single-layer outcome: {other:?}"),
    }

    // Multilayer: descend to layer 5 (index 4) and come back.
    let ml = MultilayerConfig::default();
    let plan = plan_multilayer(&board, vdd, &[4, 6], ml)?;
    println!("planned {} vias:", plan.vias.len());
    for v in &plan.vias {
        println!(
            "  via at ({:.2}, {:.2}) joining layers {} and {}",
            v.location.x,
            v.location.y,
            v.layers.0 + 1,
            v.layers.1 + 1
        );
    }

    let (_, report) = route_multilayer(&router, &board, vdd, &[4, 6], 10.0, ml)?;
    for (rail, e) in report.failures() {
        println!("layer {} failed: {e}", rail.layer + 1);
    }
    let results: Vec<_> = report.results().collect();
    println!("routed {} shapes:", results.len());
    let dir = out_dir();
    for (k, r) in results.iter().enumerate() {
        println!(
            "  layer {}: {:.1} mm² over {} tiles (R = {:.3} sq)",
            r.layer + 1,
            r.shape.area_mm2(),
            r.subgraph.order(),
            r.final_resistance_sq
        );
        let mut scene = SvgScene::new(&board, r.layer);
        scene.add_route(format!("region {k}"), &r.shape);
        let path = dir.join(format!("multilayer_l{}_r{}.svg", r.layer + 1, k));
        std::fs::write(&path, scene.to_svg())?;
    }
    println!("snapshots written to {}", dir.display());
    if report.failures().next().is_some() {
        return Err("a layer failed to route".into());
    }
    Ok(())
}
