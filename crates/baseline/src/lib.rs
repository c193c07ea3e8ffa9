//! # sprout-baseline
//!
//! A regular-geometry "manual" router standing in for the human expert
//! layouts the paper compares against (Tables II/III).
//!
//! The paper observes that "regular geometries are utilized primarily in
//! the manual layout whereas the automatically generated layout exhibits
//! greater diversity in the shape of the geometries" (§III-A). This
//! router reproduces that style deterministically: a rectangular pour
//! over the BGA ball group plus a straight or L-shaped trunk back to the
//! PMIC output, sized to the same metal-area budget the SPROUT run gets.
//! The result is packaged as a [`sprout_core::RouteResult`] so the same
//! extraction pipeline measures both layouts — the apples-to-apples
//! discipline the paper's comparison relies on.

use sprout_board::{Board, ElementRole, NetId};
use sprout_core::current::{injection_pairs, node_current, PairPolicy};
use sprout_core::graph::{NodeId, Subgraph};
use sprout_core::router::{RouteResult, StageTimings};
use sprout_core::space::SpaceSpec;
use sprout_core::tile::{identify_terminals, space_to_graph, TileOptions};
use sprout_core::SproutError;
use sprout_geom::{Point, Polygon, Rect};

/// Configuration for the manual-style router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManualConfig {
    /// Tile pitch used to discretize the shape for extraction (match
    /// the SPROUT run's pitch for a fair comparison).
    pub tile_pitch_mm: f64,
    /// Pair policy used when evaluating the objective.
    pub pair_policy: PairPolicy,
}

impl Default for ManualConfig {
    fn default() -> Self {
        ManualConfig {
            tile_pitch_mm: 0.4,
            pair_policy: PairPolicy::SourceToSinks,
        }
    }
}

/// The manual-style router.
#[derive(Debug, Clone)]
pub struct ManualRouter<'b> {
    board: &'b Board,
    config: ManualConfig,
}

impl<'b> ManualRouter<'b> {
    /// Creates a manual router over `board`.
    pub fn new(board: &'b Board, config: ManualConfig) -> Self {
        ManualRouter { board, config }
    }

    /// Routes `net` on `layer` with regular geometries under the area
    /// budget (mm²).
    ///
    /// # Errors
    ///
    /// * [`SproutError::InvalidConfig`] — non-positive budget/pitch.
    /// * [`SproutError::NoTerminals`] / [`SproutError::DisjointSpace`] —
    ///   the same failure modes as the SPROUT router.
    pub fn route_net(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
    ) -> Result<RouteResult, SproutError> {
        self.route_net_with(net, layer, area_budget_mm2, &[])
    }

    /// Routes with extra blockers (previously routed nets).
    ///
    /// # Errors
    ///
    /// See [`ManualRouter::route_net`].
    pub fn route_net_with(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
        extra_blockers: &[Polygon],
    ) -> Result<RouteResult, SproutError> {
        if area_budget_mm2 <= 0.0 || self.config.tile_pitch_mm <= 0.0 {
            return Err(SproutError::InvalidConfig(
                "budget and pitch must be positive",
            ));
        }
        let spec = SpaceSpec::build(self.board, net, layer, extra_blockers)?;
        let graph = space_to_graph(&spec, TileOptions::square(self.config.tile_pitch_mm))?;
        let terminals = identify_terminals(&graph, &spec, net)?;
        let terminal_nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        if !graph.connects(&terminal_nodes) {
            return Err(SproutError::DisjointSpace { net, layer });
        }

        // Geometry skeleton: the source point and the sink-group box.
        let sources: Vec<Point> = terminals
            .iter()
            .filter(|t| t.role == ElementRole::Source)
            .map(|t| graph.node(t.node).center())
            .collect();
        let sinks: Vec<Point> = terminals
            .iter()
            .filter(|t| t.role != ElementRole::Source)
            .map(|t| graph.node(t.node).center())
            .collect();
        if sources.is_empty() || sinks.is_empty() {
            return Err(SproutError::InvalidConfig(
                "manual routing needs a source and sinks",
            ));
        }
        let source = sources[0];
        let sink_box = bounding_box(&sinks, self.config.tile_pitch_mm);

        // Scan a ladder of trunk widths and keep the best (widest
        // connected corridor that still fits the budget). A plain
        // bisection would mis-handle dense BGA fields, where *thin*
        // corridors disconnect (via keep-outs sever them) while wide
        // ones blow the budget — feasibility is not monotone in width.
        let outline = self.board.outline();
        let w_max =
            (outline.width().min(outline.height()) / 2.0).max(self.config.tile_pitch_mm * 2.0);
        let steps = 24usize;
        let mut best: Option<Subgraph> = None;
        for k in 0..steps {
            let w = self.config.tile_pitch_mm
                + (w_max - self.config.tile_pitch_mm) * k as f64 / (steps - 1) as f64;
            if let Some(sub) =
                self.try_width(&graph, &terminals, source, sink_box, w, area_budget_mm2)
            {
                if best.as_ref().is_none_or(|b| sub.area_mm2() > b.area_mm2()) {
                    best = Some(sub);
                }
            }
        }
        let mut sub = match best {
            Some(s) => s,
            None => {
                // Fall back to the thinnest corridors.
                self.try_width(
                    &graph,
                    &terminals,
                    source,
                    sink_box,
                    self.config.tile_pitch_mm,
                    area_budget_mm2,
                )
                .ok_or(SproutError::AreaBudgetTooSmall {
                    budget_mm2: area_budget_mm2,
                    seed_mm2: 0.0,
                })?
            }
        };

        // Trunk widths quantize in whole tile rows, which can leave a
        // sizeable chunk of the budget unused. A human pours the leftover
        // copper along the existing shape: dilate uniformly, preferring
        // tiles that keep the outline straight (2+ member neighbours).
        loop {
            let cell = graph.frame().dx * graph.frame().dy;
            let mut boundary: Vec<(usize, NodeId)> = sub
                .boundary(&graph)
                .into_iter()
                .map(|c| {
                    let member_neighbors = graph
                        .neighbors(c)
                        .iter()
                        .filter(|(n, _)| sub.contains(*n))
                        .count();
                    (member_neighbors, c)
                })
                .collect();
            boundary.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let mut added = 0usize;
            for &(_, c) in &boundary {
                if sub.area_mm2() + cell > area_budget_mm2 {
                    break;
                }
                sub.insert(&graph, c);
                added += 1;
            }
            if added == 0 || sub.area_mm2() + cell > area_budget_mm2 {
                break;
            }
        }

        let rail_current = self.board.net(net)?.current_a.max(1e-3);
        let pairs = injection_pairs(&terminals, self.config.pair_policy, rail_current);
        let nc = node_current(&graph, &sub, &pairs)?;
        let final_resistance_sq = nc.resistance_sq();
        let shape = sprout_core::backconv::back_convert(&graph, &sub);
        Ok(RouteResult {
            net,
            layer,
            shape,
            graph: std::sync::Arc::new(graph),
            subgraph: sub,
            terminals,
            pairs,
            resistance_history_sq: vec![final_resistance_sq],
            final_resistance_sq,
            timings: StageTimings::default(),
            diagnostics: sprout_core::recovery::RouteDiagnostics::default(),
        })
    }

    /// Builds the subgraph covered by a straight-or-L corridor of width
    /// `w` plus the sink pour, returning `None` when the terminals do
    /// not connect (e.g. a blockage cuts the corridor) or when no shape
    /// variant fits the budget.
    fn try_width(
        &self,
        graph: &sprout_core::RoutingGraph,
        terminals: &[sprout_core::tile::Terminal],
        source: Point,
        sink_box: Rect,
        w: f64,
        budget: f64,
    ) -> Option<Subgraph> {
        let variants = corridor_variants(source, sink_box, w);
        let terminal_nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        for rects in variants {
            let mut sub = Subgraph::new(graph);
            for t in terminals {
                sub.insert(graph, t.node);
                for &c in &t.covered {
                    sub.insert(graph, c);
                }
            }
            for (idx, node) in graph.nodes().iter().enumerate() {
                let c = node.center();
                if rects.iter().any(|r| r.contains_point(c)) {
                    sub.insert(graph, NodeId(idx as u32));
                }
            }
            if sub.area_mm2() <= budget && sub.connects(graph, &terminal_nodes) {
                return Some(sub);
            }
        }
        None
    }
}

fn bounding_box(points: &[Point], pad: f64) -> Rect {
    let mut min = points[0];
    let mut max = points[0];
    for &p in points {
        min = min.min(p);
        max = max.max(p);
    }
    Rect::new(min - Point::new(pad, pad), max + Point::new(pad, pad))
        .expect("padded box is non-degenerate")
}

/// The candidate regular shapes: sink pour + straight trunk, then the
/// two L-bend trunks.
fn corridor_variants(source: Point, sink_box: Rect, w: f64) -> Vec<Vec<Rect>> {
    let target = sink_box.center();
    let half = w / 2.0;
    let hband = |x0: f64, x1: f64, y: f64| {
        Rect::from_corners(
            Point::new(x0.min(x1) - half, y - half),
            Point::new(x0.max(x1) + half, y + half),
        )
        .ok()
    };
    let vband = |y0: f64, y1: f64, x: f64| {
        Rect::from_corners(
            Point::new(x - half, y0.min(y1) - half),
            Point::new(x + half, y0.max(y1) + half),
        )
        .ok()
    };
    let mut out = Vec::new();
    // Straight (dog-leg along the dominant axis then snap): horizontal
    // trunk at the source's y, then a vertical jog at the target's x.
    if let (Some(h), Some(v)) = (
        hband(source.x, target.x, source.y),
        vband(source.y, target.y, target.x),
    ) {
        out.push(vec![sink_box, h, v]);
    }
    // Vertical first, then horizontal.
    if let (Some(v), Some(h)) = (
        vband(source.y, target.y, source.x),
        hband(source.x, target.x, target.y),
    ) {
        out.push(vec![sink_box, v, h]);
    }
    // Diagonal-ish fallback: one wide horizontal band at the average y.
    let mid_y = 0.5 * (source.y + target.y);
    if let Some(h) = hband(source.x, target.x, mid_y) {
        if let (Some(v1), Some(v2)) = (
            vband(source.y, mid_y, source.x),
            vband(mid_y, target.y, target.x),
        ) {
            out.push(vec![sink_box, h, v1, v2]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_board::presets;
    use sprout_core::drc::check_route;

    fn config() -> ManualConfig {
        ManualConfig {
            tile_pitch_mm: 0.5,
            ..ManualConfig::default()
        }
    }

    #[test]
    fn manual_route_connects_and_fits_budget() {
        let board = presets::two_rail();
        let router = ManualRouter::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 20.0)
            .unwrap();
        assert!(result.shape.area_mm2() <= 20.0);
        assert!(result.shape.area_mm2() > 5.0, "{}", result.shape.area_mm2());
        let nodes: Vec<NodeId> = result.terminals.iter().map(|t| t.node).collect();
        assert!(result.subgraph.connects(&result.graph, &nodes));
    }

    #[test]
    fn manual_route_is_drc_clean() {
        let board = presets::two_rail();
        let router = ManualRouter::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 20.0)
            .unwrap();
        let v = check_route(
            &board,
            vdd1,
            presets::TWO_RAIL_ROUTE_LAYER,
            &result.shape,
            &[],
        )
        .unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn manual_shape_is_regular() {
        // Manual layouts use few, large rectangles: far fewer vertices
        // than a SPROUT shape of the same area.
        let board = presets::two_rail();
        let router = ManualRouter::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 20.0)
            .unwrap();
        // Blocker polygons (run-merged rows + fragments) should compress
        // well for rectangle-based shapes.
        let blockers = result.shape.blocker_polygons().len();
        assert!(
            blockers < result.subgraph.order() / 2,
            "{blockers} polygons for {} tiles",
            result.subgraph.order()
        );
    }

    #[test]
    fn budget_validation() {
        let board = presets::two_rail();
        let router = ManualRouter::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        assert!(router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, -1.0)
            .is_err());
    }

    #[test]
    fn objective_reported() {
        let board = presets::two_rail();
        let router = ManualRouter::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 22.0)
            .unwrap();
        assert!(result.final_resistance_sq > 0.0);
        assert!(result.final_resistance_sq.is_finite());
    }
}
