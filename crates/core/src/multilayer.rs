//! Multilayer routing (Appendix, Algorithm 6; Fig. 13).
//!
//! When a net's available space is disjoint within a layer, routing must
//! hop layers through vias. A three-dimensional graph is built — one
//! coarse tile graph per candidate layer, with vertically aligned tiles
//! joined by via edges of elevated cost — and shortest paths between the
//! terminals place the vias. Each via becomes a terminal on both layers
//! it joins, decomposing the problem into single-layer routing runs.

use crate::graph::{NodeId, RoutingGraph};
use crate::router::Router;
use crate::space::SpaceSpec;
use crate::supervisor::{JobReport, RailOutcome, RailReport};
use crate::tile::{space_to_graph, TileOptions};
use crate::SproutError;
use sprout_board::{Board, ElementRole, NetId};
use sprout_geom::Point;
use sprout_telemetry as telemetry;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Multilayer planning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilayerConfig {
    /// Coarse tile pitch for the 3-D planning graph (Algorithm 6 tiles
    /// at the via pitch).
    pub via_pitch_mm: f64,
    /// Cost of traversing one via, in equivalent millimetres of lateral
    /// routing (the elevated vertical-edge weight of Algorithm 6).
    pub via_cost_mm: f64,
}

impl Default for MultilayerConfig {
    fn default() -> Self {
        MultilayerConfig {
            via_pitch_mm: 0.5,
            via_cost_mm: 5.0,
        }
    }
}

/// One planned via.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaPlacement {
    /// Via barrel location.
    pub location: Point,
    /// The two board layers it joins (by stackup index).
    pub layers: (usize, usize),
}

/// The output of the multilayer planner.
#[derive(Debug, Clone)]
pub struct MultilayerPlan {
    /// Planned vias.
    pub vias: Vec<ViaPlacement>,
    /// For each candidate layer: via landing points that become extra
    /// terminals for the single-layer router.
    pub layer_terminals: HashMap<usize, Vec<Point>>,
    /// Candidate layers, in stack order, that ended up carrying routing.
    pub layers_used: Vec<usize>,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| self.node.cmp(&other.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Plans vias for `net` across `layers` (Algorithm 6).
///
/// Terminals are gathered from every candidate layer; the returned plan
/// places vias and assigns per-layer terminal points.
///
/// # Errors
///
/// * [`SproutError::InvalidConfig`] — no candidate layers or no
///   terminals anywhere.
/// * [`SproutError::NoMultilayerPath`] — the 3-D graph does not connect
///   the terminals.
pub fn plan_multilayer(
    board: &Board,
    net: NetId,
    layers: &[usize],
    config: MultilayerConfig,
) -> Result<MultilayerPlan, SproutError> {
    plan_multilayer_impl(board, net, layers, config, |spec, opts| {
        space_to_graph(spec, opts).map(Arc::new)
    })
}

/// The planner body, generic over how per-layer graphs are produced so
/// [`route_multilayer`] can share them from the router's tiling
/// cache while the free-standing [`plan_multilayer`] stays a one-shot
/// scratch build.
fn plan_multilayer_impl<F>(
    board: &Board,
    net: NetId,
    layers: &[usize],
    config: MultilayerConfig,
    mut tile: F,
) -> Result<MultilayerPlan, SproutError>
where
    F: FnMut(&SpaceSpec, TileOptions) -> Result<Arc<RoutingGraph>, SproutError>,
{
    if layers.is_empty() {
        return Err(SproutError::InvalidConfig("no candidate layers"));
    }

    // Per-layer coarse graphs and terminal nodes.
    let mut graphs: Vec<Arc<RoutingGraph>> = Vec::with_capacity(layers.len());
    let mut terminal_nodes: Vec<(usize, NodeId)> = Vec::new(); // (layer pos, node)
    for (pos, &layer) in layers.iter().enumerate() {
        let spec = SpaceSpec::build_transit(board, net, layer, &[])?;
        let graph = tile(&spec, TileOptions::square(config.via_pitch_mm))?;
        for (t_idx, t) in spec.terminals.iter().enumerate() {
            match graph.node_near(t.shape.centroid(), 3) {
                Some(node) => terminal_nodes.push((pos, node)),
                None => {
                    return Err(SproutError::TerminalBlocked {
                        net,
                        terminal: t_idx,
                    })
                }
            }
        }
        graphs.push(graph);
    }
    if terminal_nodes.len() < 2 {
        return Err(SproutError::InvalidConfig(
            "multilayer routing needs at least two terminals",
        ));
    }

    // Combined 3-D indexing.
    let offsets: Vec<usize> = graphs
        .iter()
        .scan(0usize, |acc, g| {
            let here = *acc;
            *acc += g.node_count();
            Some(here)
        })
        .collect();
    let total: usize = graphs.iter().map(|g| g.node_count()).sum();
    let global = |pos: usize, node: NodeId| offsets[pos] + node.index();

    // Vertical adjacency: same lattice cell present in both layers.
    let mut via_edges: HashMap<usize, Vec<usize>> = HashMap::new();
    for pos in 0..graphs.len().saturating_sub(1) {
        let upper = &graphs[pos];
        let lower = &graphs[pos + 1];
        for (idx, node) in upper.nodes().iter().enumerate() {
            if let Some(other) = lower.node_at_cell(node.cell) {
                via_edges
                    .entry(global(pos, NodeId(idx as u32)))
                    .or_default()
                    .push(global(pos + 1, other));
                via_edges
                    .entry(global(pos + 1, other))
                    .or_default()
                    .push(global(pos, NodeId(idx as u32)));
            }
        }
    }

    // Shortest path in 3-D from each terminal to the nearest later one
    // (the seed discipline of Algorithm 2 lifted to three dimensions).
    let locate = |g: usize| -> (usize, NodeId) {
        let pos = offsets
            .iter()
            .rposition(|&o| o <= g)
            .expect("offsets cover indices");
        (pos, NodeId((g - offsets[pos]) as u32))
    };
    let mut vias: Vec<ViaPlacement> = Vec::new();
    let mut layer_terminals: HashMap<usize, Vec<Point>> = HashMap::new();
    let mut any_path = false;

    for i in 0..terminal_nodes.len() - 1 {
        let source = global(terminal_nodes[i].0, terminal_nodes[i].1);
        let targets: Vec<usize> = terminal_nodes[i + 1..]
            .iter()
            .map(|&(p, n)| global(p, n))
            .collect();
        let path = dijkstra_3d(
            &graphs, &offsets, &via_edges, config, total, source, &targets,
        );
        let path = match path {
            Some(p) => p,
            None => continue,
        };
        any_path = true;
        for w in path.windows(2) {
            let (pos_a, node_a) = locate(w[0]);
            let (pos_b, node_b) = locate(w[1]);
            if pos_a != pos_b {
                let cell_center = graphs[pos_a].node(node_a).center();
                let _ = node_b;
                let layer_pair = (layers[pos_a.min(pos_b)], layers[pos_a.max(pos_b)]);
                if !vias
                    .iter()
                    .any(|v| v.location.approx_eq(cell_center, 1e-9) && v.layers == layer_pair)
                {
                    vias.push(ViaPlacement {
                        location: cell_center,
                        layers: layer_pair,
                    });
                    layer_terminals
                        .entry(layer_pair.0)
                        .or_default()
                        .push(cell_center);
                    layer_terminals
                        .entry(layer_pair.1)
                        .or_default()
                        .push(cell_center);
                }
            }
        }
    }
    if !any_path {
        return Err(SproutError::NoMultilayerPath);
    }

    let mut layers_used: Vec<usize> = layers
        .iter()
        .copied()
        .filter(|l| {
            layer_terminals.contains_key(l)
                || terminal_nodes.iter().any(|&(pos, _)| layers[pos] == *l)
        })
        .collect();
    layers_used.dedup();

    Ok(MultilayerPlan {
        vias,
        layer_terminals,
        layers_used,
    })
}

#[allow(clippy::too_many_arguments)]
fn dijkstra_3d(
    graphs: &[Arc<RoutingGraph>],
    offsets: &[usize],
    via_edges: &HashMap<usize, Vec<usize>>,
    config: MultilayerConfig,
    total: usize,
    source: usize,
    targets: &[usize],
) -> Option<Vec<usize>> {
    let locate = |g: usize| -> (usize, NodeId) {
        let pos = offsets
            .iter()
            .rposition(|&o| o <= g)
            .expect("offsets cover indices");
        (pos, NodeId((g - offsets[pos]) as u32))
    };
    let mut dist = vec![f64::INFINITY; total];
    let mut prev: Vec<Option<usize>> = vec![None; total];
    let mut is_target = vec![false; total];
    for &t in targets {
        is_target[t] = true;
    }
    if is_target[source] {
        return Some(vec![source]);
    }
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        if is_target[node] {
            // Reconstruct.
            let mut path = vec![node];
            let mut cur = node;
            while let Some(p) = prev[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        let (pos, local) = locate(node);
        // Lateral moves.
        for &(next_local, _) in graphs[pos].neighbors(local) {
            let next = offsets[pos] + next_local.index();
            let step = graphs[pos]
                .node(local)
                .center()
                .distance(graphs[pos].node(next_local).center());
            let c = cost + step;
            if c < dist[next] {
                dist[next] = c;
                prev[next] = Some(node);
                heap.push(HeapEntry {
                    cost: c,
                    node: next,
                });
            }
        }
        // Via moves.
        if let Some(verticals) = via_edges.get(&node) {
            for &next in verticals {
                let c = cost + config.via_cost_mm;
                if c < dist[next] {
                    dist[next] = c;
                    prev[next] = Some(node);
                    heap.push(HeapEntry {
                        cost: c,
                        node: next,
                    });
                }
            }
        }
    }
    None
}

/// Executes a multilayer plan and reports every layer's outcome. The
/// net is routed on every used layer, via landing points acting as
/// extra sink terminals, and each layer's shape blocking nothing on
/// other layers (layers are independent copper).
///
/// `budget_per_layer_mm2` applies to each layer that carries routing.
///
/// Each used layer becomes one [`RailReport`] and every layer is
/// attempted: layers with fewer than two terminals (a via landing
/// directly on the only terminal) come back [`RailOutcome::Skipped`];
/// a failing layer comes back [`RailOutcome::Failed`] with its typed
/// error and costs no other layer its result.
///
/// # Errors
///
/// Only planning errors ([`plan_multilayer`]); per-layer routing
/// failures are in the report.
pub fn route_multilayer(
    router: &Router<'_>,
    board: &Board,
    net: NetId,
    layers: &[usize],
    budget_per_layer_mm2: f64,
    config: MultilayerConfig,
) -> Result<(MultilayerPlan, JobReport), SproutError> {
    let start = Instant::now();
    let mut plan_span = telemetry::span("plan")
        .field("net", net.0 as u64)
        .field("layers", layers.len())
        .field("budget_per_layer_mm2", budget_per_layer_mm2)
        .enter();
    let plan = plan_multilayer_impl(board, net, layers, config, |spec, opts| {
        router.cached_graph(spec, opts).map(|(g, _)| g)
    })?;
    plan_span.record("layers_used", plan.layers_used.len());
    plan_span.record("vias", plan.vias.len());
    drop(plan_span);
    let mut report = JobReport {
        waves: plan.layers_used.len(),
        ..JobReport::default()
    };
    for (wave, &layer) in plan.layers_used.iter().enumerate() {
        let extra: Vec<(Point, ElementRole)> = plan
            .layer_terminals
            .get(&layer)
            .map(|pts| pts.iter().map(|&p| (p, ElementRole::Sink)).collect())
            .unwrap_or_default();
        // A layer with fewer than two terminals total has nothing to
        // route (e.g. a via lands directly on the only terminal).
        let own_terminals = board.terminals(net, layer).len();
        let outcome = if own_terminals + extra.len() < 2 {
            RailOutcome::Skipped {
                reason: "fewer than two terminals on this layer".into(),
            }
        } else {
            // Within a layer the terminals may sit in disjoint space
            // regions (that is exactly why vias were needed); route
            // each region.
            match router.route_net_components(net, layer, budget_per_layer_mm2, &[], &extra) {
                Ok(layer_results) => RailOutcome::Routed(layer_results),
                Err(e) => RailOutcome::Failed(e),
            }
        };
        report.rails.push(RailReport {
            net,
            layer,
            budget_mm2: budget_per_layer_mm2,
            wave,
            outcome,
        });
    }
    report.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use sprout_board::{Board, DesignRules, Element, ElementRole, Net, Stackup};
    use sprout_geom::{Polygon, Rect};

    /// A board where layer 6 is split by a full-height wall, forcing the
    /// route through layer 4 (Fig. 13's situation).
    fn walled_board() -> (Board, NetId) {
        let outline = Rect::new(Point::new(0.0, 0.0), Point::new(12.0, 8.0)).unwrap();
        let mut board = Board::new(
            "walled",
            outline,
            Stackup::eight_layer(),
            DesignRules::default(),
        );
        let vdd = board.add_net(Net::power("VDD", 2.0, 1e9, 1.0).unwrap());
        let pad = |c: Point| {
            Polygon::rectangle(
                Point::new(c.x - 0.25, c.y - 0.25),
                Point::new(c.x + 0.25, c.y + 0.25),
            )
            .unwrap()
        };
        // Terminals on layer 6, left and right of the wall.
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(Point::new(2.0, 4.0)),
                ElementRole::Source,
            ))
            .unwrap();
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(Point::new(10.0, 4.0)),
                ElementRole::Sink,
            ))
            .unwrap();
        // Full-height wall on layer 6 only.
        board
            .add_element(Element::blockage(
                6,
                Polygon::rectangle(Point::new(5.5, 0.0), Point::new(6.5, 8.0)).unwrap(),
            ))
            .unwrap();
        (board, vdd)
    }

    #[test]
    fn single_layer_routing_fails_on_walled_board() {
        let (board, vdd) = walled_board();
        let router = Router::new(
            &board,
            RouterConfig {
                tile_pitch_mm: 0.5,
                ..RouterConfig::default()
            },
        );
        assert!(matches!(
            router.route_net(vdd, 6, 15.0),
            Err(SproutError::DisjointSpace { .. })
        ));
    }

    #[test]
    fn planner_places_vias_around_the_wall() {
        let (board, vdd) = walled_board();
        let plan = plan_multilayer(&board, vdd, &[4, 6], MultilayerConfig::default()).unwrap();
        // The path must descend to layer 4 and come back: two vias.
        assert_eq!(plan.vias.len(), 2, "{:?}", plan.vias);
        for v in &plan.vias {
            assert_eq!(v.layers, (4, 6));
        }
        // One via on each side of the wall.
        let xs: Vec<f64> = plan.vias.iter().map(|v| v.location.x).collect();
        assert!(xs.iter().any(|&x| x < 5.5));
        assert!(xs.iter().any(|&x| x > 6.5));
        // Layer 4 gets both via terminals.
        assert_eq!(plan.layer_terminals[&4].len(), 2);
    }

    #[test]
    fn full_multilayer_route_succeeds() {
        let (board, vdd) = walled_board();
        let router = Router::new(
            &board,
            RouterConfig {
                tile_pitch_mm: 0.5,
                grow_iterations: 8,
                refine_iterations: 2,
                reheat: None,
                ..RouterConfig::default()
            },
        );
        let (plan, report) = route_multilayer(
            &router,
            &board,
            vdd,
            &[4, 6],
            10.0,
            MultilayerConfig::default(),
        )
        .unwrap();
        let results: Vec<_> = report.results().collect();
        assert_eq!(plan.vias.len(), 2);
        // Layer 6 splits into two regions (source→via, via→sink) and
        // layer 4 carries the via-to-via transit: three routed shapes.
        assert_eq!(results.len(), 3);
        let on_layer = |l: usize| results.iter().filter(|r| r.layer == l).count();
        assert_eq!(on_layer(4), 1);
        assert_eq!(on_layer(6), 2);
        for r in &results {
            assert!(r.shape.area_mm2() > 0.0);
            // Each region's terminals are connected in its subgraph.
            let nodes: Vec<crate::graph::NodeId> = r.terminals.iter().map(|t| t.node).collect();
            assert!(r.subgraph.connects(&r.graph, &nodes));
        }
    }

    #[test]
    fn report_surfaces_per_layer_outcomes() {
        let (board, vdd) = walled_board();
        let router = Router::new(
            &board,
            RouterConfig {
                tile_pitch_mm: 0.5,
                grow_iterations: 8,
                refine_iterations: 2,
                reheat: None,
                ..RouterConfig::default()
            },
        );
        let (plan, report) = route_multilayer(
            &router,
            &board,
            vdd,
            &[4, 6],
            10.0,
            MultilayerConfig::default(),
        )
        .unwrap();
        assert_eq!(report.rails.len(), plan.layers_used.len());
        assert!(report.is_complete(), "{:?}", report.warnings);
        assert_eq!(report.results().count(), 3);
    }

    #[test]
    fn each_routed_layer_builds_its_space_once() {
        use sprout_telemetry::sinks::MemorySink;
        use sprout_telemetry::{Event, RecorderScope};

        let (board, vdd) = walled_board();
        let router = Router::new(
            &board,
            RouterConfig {
                tile_pitch_mm: 0.5,
                grow_iterations: 8,
                refine_iterations: 2,
                reheat: None,
                ..RouterConfig::default()
            },
        );
        let sink = Arc::new(MemorySink::new());
        let (_, report) = {
            let _scope = RecorderScope::install(sink.clone());
            route_multilayer(
                &router,
                &board,
                vdd,
                &[4, 6],
                10.0,
                MultilayerConfig::default(),
            )
            .unwrap()
        };
        let routed = report
            .rails
            .iter()
            .filter(|r| matches!(r.outcome, RailOutcome::Routed(_)))
            .count();
        assert_eq!(routed, 2, "{:?}", report.warnings);
        let spaces = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::SpanEnd { name: "space", .. }))
            .count();
        assert_eq!(spaces, routed, "one space span per routed layer");
        // The space stage is timed and attributed to each layer's first
        // region only.
        for rail in &report.rails {
            let RailOutcome::Routed(results) = &rail.outcome else {
                continue;
            };
            assert!(results[0].timings.space_ms > 0.0, "layer {}", rail.layer);
            assert!(results[1..].iter().all(|r| r.timings.space_ms == 0.0));
        }
    }

    #[test]
    fn report_isolates_each_failing_layer() {
        let (board, vdd) = walled_board();
        let router = Router::new(
            &board,
            RouterConfig {
                tile_pitch_mm: 0.5,
                grow_iterations: 8,
                refine_iterations: 2,
                reheat: None,
                ..RouterConfig::default()
            },
        );
        // A budget below any connected seed fails every layer.
        let (plan, report) = route_multilayer(
            &router,
            &board,
            vdd,
            &[4, 6],
            0.05,
            MultilayerConfig::default(),
        )
        .unwrap();
        assert!(!report.is_complete());
        // Every used layer is attempted, and each fails with its own
        // typed error; none is skipped.
        assert_eq!(report.rails.len(), plan.layers_used.len());
        assert_eq!(report.rails.len(), 2);
        for rail in &report.rails {
            assert!(
                matches!(
                    rail.outcome,
                    RailOutcome::Failed(SproutError::AreaBudgetTooSmall { .. })
                ),
                "layer {}: {:?}",
                rail.layer,
                rail.outcome
            );
        }
    }

    #[test]
    fn via_cost_discourages_unnecessary_hops() {
        // On an open board (no wall), planning across two layers should
        // place no vias at all: the lateral path is cheaper.
        let outline = Rect::new(Point::new(0.0, 0.0), Point::new(12.0, 8.0)).unwrap();
        let mut board = Board::new(
            "open",
            outline,
            Stackup::eight_layer(),
            DesignRules::default(),
        );
        let vdd = board.add_net(Net::power("VDD", 2.0, 1e9, 1.0).unwrap());
        let pad = |c: Point| {
            Polygon::rectangle(
                Point::new(c.x - 0.25, c.y - 0.25),
                Point::new(c.x + 0.25, c.y + 0.25),
            )
            .unwrap()
        };
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(Point::new(2.0, 4.0)),
                ElementRole::Source,
            ))
            .unwrap();
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(Point::new(10.0, 4.0)),
                ElementRole::Sink,
            ))
            .unwrap();
        let plan = plan_multilayer(&board, vdd, &[4, 6], MultilayerConfig::default()).unwrap();
        assert!(plan.vias.is_empty(), "{:?}", plan.vias);
    }

    #[test]
    fn terminals_on_different_layers_force_one_via() {
        // Source on layer 5 (index 4), sink on layer 7 (index 6), no
        // walls: the only route crosses layers once.
        let outline = Rect::new(Point::new(0.0, 0.0), Point::new(12.0, 8.0)).unwrap();
        let mut board = Board::new(
            "cross-layer",
            outline,
            Stackup::eight_layer(),
            DesignRules::default(),
        );
        let vdd = board.add_net(Net::power("VDD", 2.0, 1e9, 1.0).unwrap());
        let pad = |c: Point| {
            Polygon::rectangle(
                Point::new(c.x - 0.25, c.y - 0.25),
                Point::new(c.x + 0.25, c.y + 0.25),
            )
            .unwrap()
        };
        board
            .add_element(Element::terminal(
                vdd,
                4,
                pad(Point::new(2.0, 4.0)),
                ElementRole::Source,
            ))
            .unwrap();
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(Point::new(10.0, 4.0)),
                ElementRole::Sink,
            ))
            .unwrap();
        let plan = plan_multilayer(&board, vdd, &[4, 6], MultilayerConfig::default()).unwrap();
        assert_eq!(plan.vias.len(), 1, "{:?}", plan.vias);
        assert_eq!(plan.vias[0].layers, (4, 6));
        // Both layers participate.
        assert!(plan.layers_used.contains(&4));
        assert!(plan.layers_used.contains(&6));
    }

    #[test]
    fn planner_validates_inputs() {
        let (board, vdd) = walled_board();
        assert!(matches!(
            plan_multilayer(&board, vdd, &[], MultilayerConfig::default()),
            Err(SproutError::InvalidConfig(_))
        ));
    }
}
