//! SmartGrow (Algorithm 4, §II-D).
//!
//! Boundary nodes adjacent to the subgraph's highest-current regions are
//! added, maximizing the reduction in resistance per unit of added metal.

use crate::current::{InjectionPair, NodeCurrents};
use crate::graph::{NodeId, RoutingGraph, Subgraph};
use crate::session::NodalSession;
use crate::SproutError;

/// Outcome of one SmartGrow step.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowOutcome {
    /// Nodes actually added (may be less than requested at saturation).
    pub added: usize,
    /// Objective (mean effective resistance in squares) measured on the
    /// subgraph *before* the growth step.
    pub resistance_sq: f64,
    /// Largest node current seen in the pre-step metric (amperes) — the
    /// crowding hotspot this step grew toward.
    pub max_current_a: f64,
    /// Linear solves performed.
    pub solves: usize,
}

/// Adds up to `k` boundary nodes next to the highest node-current
/// regions (Algorithm 4). The metric is evaluated and the insertions
/// applied through `session`, so it sees every mutation.
///
/// # Errors
///
/// Propagates metric-evaluation errors ([`NodalSession::eval`]).
pub fn smart_grow(
    session: &mut NodalSession,
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    pairs: &[InjectionPair],
    k: usize,
) -> Result<GrowOutcome, SproutError> {
    let metric = session.eval(graph, sub, pairs)?;
    let added = grow_with_metric(session, graph, sub, &metric, k);
    let outcome = GrowOutcome {
        added,
        resistance_sq: metric.resistance_sq(),
        max_current_a: metric.max_current_a(),
        solves: metric.solves(),
    };
    session.recycle(metric);
    Ok(outcome)
}

/// Frontier expansion given an already-computed metric (shared with the
/// refinement and reheating stages), applying the insertions through
/// `session`. Returns the number of nodes added.
pub fn grow_with_metric(
    session: &mut NodalSession,
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    metric: &NodeCurrents,
    k: usize,
) -> usize {
    // Score boundary candidates: the sum of the node currents of their
    // in-subgraph neighbors (Algorithm 4 line 8).
    let mut scored: Vec<(f64, NodeId)> = sub
        .boundary(graph)
        .into_iter()
        .map(|c| {
            let score: f64 = graph
                .neighbors(c)
                .iter()
                .filter(|(n, _)| sub.contains(*n))
                .map(|(n, _)| metric.of(*n))
                .sum();
            (score, c)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let take = k.min(scored.len());
    for &(_, c) in scored.iter().take(take) {
        session.insert(graph, sub, c);
    }
    take
}

/// Grows the subgraph until its area reaches `area_budget_mm2`, in steps
/// of `k` nodes (the ΔV of Eq. 7), through one fresh [`NodalSession`].
/// Records the objective after each step.
///
/// # Errors
///
/// Propagates metric errors. Stops silently at graph saturation (no
/// boundary nodes left).
pub fn grow_to_area(
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    pairs: &[InjectionPair],
    k: usize,
    area_budget_mm2: f64,
) -> Result<Vec<GrowOutcome>, SproutError> {
    let mut session = NodalSession::new();
    let mut history = Vec::new();
    while sub.area_mm2() < area_budget_mm2 {
        // Don't overshoot by more than one step: shrink the last batch.
        let cell_area = {
            let f = graph.frame();
            f.dx * f.dy
        };
        let remaining = ((area_budget_mm2 - sub.area_mm2()) / cell_area).ceil() as usize;
        let step = k.min(remaining.max(1));
        let outcome = smart_grow(&mut session, graph, sub, pairs, step)?;
        let done = outcome.added == 0;
        history.push(outcome);
        if done {
            break; // saturated: every reachable node is in the subgraph
        }
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::current::{injection_pairs, PairPolicy};
    use crate::seed::{seed_subgraph, SeedOptions};
    use crate::space::SpaceSpec;
    use crate::tile::{identify_terminals, space_to_graph, TileOptions};
    use sprout_board::presets;

    fn setup() -> (RoutingGraph, Subgraph, Vec<InjectionPair>) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
        let sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        (graph, sub, pairs)
    }

    #[test]
    fn grow_adds_exactly_k() {
        let (graph, mut sub, pairs) = setup();
        let before = sub.order();
        let out = smart_grow(&mut NodalSession::new(), &graph, &mut sub, &pairs, 20).unwrap();
        assert_eq!(out.added, 20);
        assert_eq!(sub.order(), before + 20);
    }

    #[test]
    fn grow_reduces_resistance_over_iterations() {
        let (graph, mut sub, pairs) = setup();
        let budget = sub.area_mm2() * 3.0;
        let history = grow_to_area(&graph, &mut sub, &pairs, 24, budget).unwrap();
        assert!(history.len() >= 3);
        let first = history.first().unwrap().resistance_sq;
        let last = history.last().unwrap().resistance_sq;
        assert!(
            last < first * 0.9,
            "objective should fall markedly: {first} → {last}"
        );
        // The objective is monotonically non-increasing under pure
        // growth (Rayleigh monotonicity).
        for w in history.windows(2) {
            assert!(w[1].resistance_sq <= w[0].resistance_sq + 1e-12);
        }
    }

    #[test]
    fn grow_to_area_respects_budget() {
        let (graph, mut sub, pairs) = setup();
        let budget = sub.area_mm2() * 2.0;
        grow_to_area(&graph, &mut sub, &pairs, 16, budget).unwrap();
        assert!(sub.area_mm2() >= budget);
        // Overshoot bounded by one cell step.
        let cell = graph.frame().dx * graph.frame().dy;
        assert!(sub.area_mm2() <= budget + 17.0 * cell);
    }

    #[test]
    fn grow_keeps_subgraph_connected() {
        let (graph, mut sub, pairs) = setup();
        let terminal_nodes: Vec<NodeId> = pairs.iter().flat_map(|p| [p.source, p.sink]).collect();
        {
            let budget = sub.area_mm2() * 2.5;
            grow_to_area(&graph, &mut sub, &pairs, 16, budget)
        }
        .unwrap();
        assert!(sub.connects(&graph, &terminal_nodes));
    }

    #[test]
    fn growth_prefers_hot_regions() {
        // New nodes should touch the existing subgraph (frontier
        // property): every added node is adjacent to the old subgraph.
        let (graph, mut sub, pairs) = setup();
        let old = sub.clone();
        smart_grow(&mut NodalSession::new(), &graph, &mut sub, &pairs, 30).unwrap();
        for &m in sub.members() {
            if !old.contains(m) {
                assert!(
                    graph.neighbors(m).iter().any(|&(n, _)| old.contains(n)),
                    "added node must border the previous subgraph"
                );
            }
        }
    }

    #[test]
    fn saturation_stops_growth() {
        let (graph, mut sub, pairs) = setup();
        // Budget beyond the whole board: growth must stop at saturation
        // of the terminals' connected component rather than loop.
        let history =
            grow_to_area(&graph, &mut sub, &pairs, 500, graph.total_area_mm2() * 2.0).unwrap();
        assert!(!history.is_empty());
        let last = history.last().unwrap();
        assert_eq!(last.added, 0);
    }
}
