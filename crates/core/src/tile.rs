//! `SpaceToGraph` — Algorithm 1 of the paper.
//!
//! The available space is divided into `Δx × Δy` tiles; every tile with
//! usable area becomes a node, and adjacent tiles are connected by edges
//! whose weight is proportional to the width of the contact between them
//! (Fig. 6). Boundary tiles intersected by buffers or the board outline
//! become irregular polygons (Fig. 7).

use crate::graph::{NodeId, RoutingGraph};
use crate::space::SpaceSpec;
use crate::tile_session::build_graph;
use crate::SproutError;
use sprout_board::{ElementRole, NetId};

/// Tiling options for [`space_to_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileOptions {
    /// Tile pitch Δx (mm).
    pub dx: f64,
    /// Tile pitch Δy (mm).
    pub dy: f64,
    /// Cells whose usable area falls below this fraction of `Δx·Δy` are
    /// discarded (slivers conduct poorly and inflate the graph).
    pub min_cell_fraction: f64,
}

impl TileOptions {
    /// Square tiles with the given pitch and the default 5 % sliver
    /// threshold.
    pub fn square(pitch_mm: f64) -> Self {
        TileOptions {
            dx: pitch_mm,
            dy: pitch_mm,
            min_cell_fraction: 0.05,
        }
    }
}

/// Converts the available space into the equivalent graph Γ_n
/// (Algorithm 1).
///
/// This is the from-scratch, single-threaded build: the oracle the
/// routers' cached graphs are checked against. Routers tile through a
/// [`TileCache`](crate::tile_cache::TileCache), which shares one
/// finished graph per exact space and builds it with the same kernel
/// ([`build_graph`]).
///
/// # Errors
///
/// Returns [`SproutError::InvalidConfig`] for non-positive pitches or a
/// threshold outside `[0, 1)`.
pub fn space_to_graph(spec: &SpaceSpec, opts: TileOptions) -> Result<RoutingGraph, SproutError> {
    build_graph(spec.design_space, &spec.blockers, opts, 1)
}

/// A routing terminal mapped onto the graph.
#[derive(Debug, Clone)]
pub struct Terminal {
    /// Representative node (used for path finding and current
    /// injections).
    pub node: NodeId,
    /// All nodes whose tiles the terminal pad touches (Fig. 7 treats
    /// them as one node; they are force-included in the seed).
    pub covered: Vec<NodeId>,
    /// Electrical role.
    pub role: ElementRole,
}

/// Maps each terminal shape of the spec onto graph nodes
/// (`identifyTerminals` of Algorithm 6).
///
/// # Errors
///
/// Returns [`SproutError::TerminalBlocked`] when a terminal's pad covers
/// no routable tile.
pub fn identify_terminals(
    graph: &RoutingGraph,
    spec: &SpaceSpec,
    net: NetId,
) -> Result<Vec<Terminal>, SproutError> {
    let mut out = Vec::with_capacity(spec.terminals.len());
    for (t_idx, t) in spec.terminals.iter().enumerate() {
        let bounds = t.shape.bounds();
        let frame = graph.frame();
        let i0 = ((bounds.min().x - frame.origin.x) / frame.dx).floor() as i64;
        let i1 = ((bounds.max().x - frame.origin.x) / frame.dx).floor() as i64;
        let j0 = ((bounds.min().y - frame.origin.y) / frame.dy).floor() as i64;
        let j1 = ((bounds.max().y - frame.origin.y) / frame.dy).floor() as i64;
        let mut covered: Vec<NodeId> = Vec::new();
        for i in i0..=i1 {
            for j in j0..=j1 {
                if let Some(id) = graph.node_at_cell((i, j)) {
                    let node = graph.node(id);
                    // The tile must actually touch the pad.
                    if node.rect.intersects(&bounds)
                        && (t.shape.contains_point(node.center())
                            || node.contains_point(t.shape.centroid())
                            || node
                                .rect
                                .intersection(&bounds)
                                .map(|r| t.shape.contains_point(r.center()))
                                .unwrap_or(false))
                    {
                        covered.push(id);
                    }
                }
            }
        }
        let representative = covered
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let da = graph.node(a).center().distance(t.shape.centroid());
                let db = graph.node(b).center().distance(t.shape.centroid());
                da.total_cmp(&db)
            })
            .or_else(|| graph.node_near(t.shape.centroid(), 2));
        match representative {
            Some(node) => {
                if covered.is_empty() {
                    covered.push(node);
                }
                out.push(Terminal {
                    node,
                    covered,
                    role: t.role,
                });
            }
            None => {
                return Err(SproutError::TerminalBlocked {
                    net,
                    terminal: t_idx,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceSpec;
    use sprout_board::presets;
    use sprout_geom::Point;

    fn two_rail_graph() -> (RoutingGraph, SpaceSpec, NetId) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        (graph, spec, vdd1)
    }

    #[test]
    fn options_validate() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        assert!(space_to_graph(
            &spec,
            TileOptions {
                dx: 0.0,
                dy: 0.4,
                min_cell_fraction: 0.05
            }
        )
        .is_err());
        assert!(space_to_graph(
            &spec,
            TileOptions {
                dx: 0.4,
                dy: 0.4,
                min_cell_fraction: 1.5
            }
        )
        .is_err());
    }

    #[test]
    fn graph_covers_most_of_the_board() {
        let (graph, spec, _) = two_rail_graph();
        // 24×16 board at 0.4 mm pitch: 60×40 = 2400 candidate cells.
        assert!(graph.node_count() > 1500, "{}", graph.node_count());
        // Edge/node ratio approaches 2 for a full grid (§II-H).
        let ratio = graph.edge_count() as f64 / graph.node_count() as f64;
        assert!(ratio > 1.6 && ratio < 2.1, "ratio {ratio}");
        // The graph area is at most the design space and near it minus
        // blocked area.
        let total = graph.total_area_mm2();
        assert!(total < spec.design_space.area());
        assert!(total > spec.design_space.area() * 0.7);
    }

    #[test]
    fn blocked_cells_are_missing() {
        let (graph, _, _) = two_rail_graph();
        // Centre of the mechanical blockage (9.5..13, 6..10).
        assert!(graph.node_near(Point::new(11.2, 8.0), 0).is_none());
    }

    #[test]
    fn boundary_cells_are_irregular() {
        let (graph, _, _) = two_rail_graph();
        let irregular = graph.nodes().iter().filter(|n| n.pieces.is_some()).count();
        let full = graph.nodes().iter().filter(|n| n.pieces.is_none()).count();
        assert!(irregular > 0, "buffers must clip some cells");
        assert!(full > irregular, "most of the board is open");
        // Irregular tiles have less area than the pitch square.
        for n in graph.nodes().iter().filter(|n| n.pieces.is_some()) {
            assert!(n.area_mm2 <= 0.4 * 0.4 + 1e-9);
        }
    }

    #[test]
    fn full_grid_edge_weights_are_unity() {
        // In open space with square tiles, contact width = pitch ⇒ w = 1.
        let (graph, _, _) = two_rail_graph();
        let full_weight_edges = graph
            .edges()
            .iter()
            .filter(|e| (e.weight - 1.0).abs() < 1e-6)
            .count();
        assert!(full_weight_edges * 2 > graph.edge_count());
        // No edge exceeds full contact.
        for e in graph.edges() {
            assert!(e.weight <= 1.0 + 1e-6);
            assert!(e.weight > 0.0);
        }
    }

    #[test]
    fn terminals_identified_and_connected() {
        let (graph, spec, net) = two_rail_graph();
        let terminals = identify_terminals(&graph, &spec, net).unwrap();
        assert_eq!(terminals.len(), 10);
        assert!(terminals.iter().any(|t| t.role == ElementRole::Source));
        let nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        assert!(graph.connects(&nodes), "terminals must share a component");
        // Every terminal pad covers at least one node.
        for t in &terminals {
            assert!(!t.covered.is_empty());
        }
    }

    #[test]
    fn finer_tiles_give_more_nodes() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let coarse = space_to_graph(&spec, TileOptions::square(0.8)).unwrap();
        let fine = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        assert!(fine.node_count() > 3 * coarse.node_count());
        // Area estimates agree within a few percent.
        let rel = (fine.total_area_mm2() - coarse.total_area_mm2()).abs() / fine.total_area_mm2();
        assert!(rel < 0.05, "rel {rel}");
    }
}
