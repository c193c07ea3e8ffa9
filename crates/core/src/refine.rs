//! SmartRefine (Algorithm 5, §II-E).
//!
//! Nodes conducting the least current are removed and the vacated metal
//! budget is re-invested next to the hot spots, lowering the impedance
//! at constant area. The paper is silent on two hazards this module
//! guards against explicitly: terminal tiles must never be removed, and
//! a removal must not disconnect the terminals (checked per candidate).

use crate::current::InjectionPair;
use crate::graph::{NodeId, RemovalCheck, RoutingGraph, Subgraph};
use crate::grow::grow_with_metric;
use crate::session::NodalSession;
use crate::SproutError;

/// Outcome of one SmartRefine step.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOutcome {
    /// Nodes moved (removed then re-added elsewhere).
    pub moved: usize,
    /// Objective before the step (squares).
    pub resistance_before_sq: f64,
    /// Objective after the step (squares).
    pub resistance_after_sq: f64,
    /// Largest node current in the final metric evaluation (amperes);
    /// equals the pre-step maximum when nothing moved.
    pub max_current_a: f64,
    /// Linear solves performed.
    pub solves: usize,
}

/// Moves up to `k` nodes from quiescent zones to hot spots
/// (Algorithm 5), evaluating and mutating through `session`.
///
/// `protected` nodes (terminal pads) are never removed; removals that
/// would disconnect `terminal_nodes` are skipped.
///
/// # Errors
///
/// Propagates metric-evaluation errors.
pub fn smart_refine(
    session: &mut NodalSession,
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    pairs: &[InjectionPair],
    protected: &[NodeId],
    terminal_nodes: &[NodeId],
    k: usize,
) -> Result<RefineOutcome, SproutError> {
    let metric = session.eval(graph, sub, pairs)?;
    let mut solves = metric.solves();
    let resistance_before_sq = metric.resistance_sq();
    let mut max_current_a = metric.max_current_a();

    let mut protected_mask = vec![false; graph.node_count()];
    for &p in protected {
        protected_mask[p.index()] = true;
    }

    // Ascending node current: quiescent first (Algorithm 5 line 4).
    let mut candidates: Vec<NodeId> = sub.members().to_vec();
    candidates.sort_by(|&a, &b| {
        metric
            .of(a)
            .total_cmp(&metric.of(b))
            .then_with(|| a.cmp(&b))
    });
    session.recycle(metric);

    let mut check = RemovalCheck::new();
    let mut removed = 0usize;
    for id in candidates {
        if removed >= k {
            break;
        }
        if protected_mask[id.index()] {
            continue;
        }
        // Guard: keep the terminals electrically connected.
        if !check.keeps_connected(graph, sub, id, terminal_nodes) {
            continue;
        }
        session.remove(graph, sub, id);
        removed += 1;
    }

    // Reinvest next to the hot spots (Algorithm 5 line 7 calls
    // SmartGrow). A fresh metric reflects the removals.
    let mut resistance_after_sq = resistance_before_sq;
    if removed > 0 {
        let metric_after = session.eval(graph, sub, pairs)?;
        solves += metric_after.solves();
        grow_with_metric(session, graph, sub, &metric_after, removed);
        session.recycle(metric_after);
        let metric_final = session.eval(graph, sub, pairs)?;
        solves += metric_final.solves();
        resistance_after_sq = metric_final.resistance_sq();
        max_current_a = metric_final.max_current_a();
        session.recycle(metric_final);
    }

    Ok(RefineOutcome {
        moved: removed,
        resistance_before_sq,
        resistance_after_sq,
        max_current_a,
        solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::current::{injection_pairs, PairPolicy};
    use crate::grow::grow_to_area;
    use crate::seed::{seed_subgraph, SeedOptions};
    use crate::space::SpaceSpec;
    use crate::tile::{identify_terminals, space_to_graph, Terminal, TileOptions};
    use sprout_board::presets;

    fn setup() -> (RoutingGraph, Subgraph, Vec<InjectionPair>, Vec<Terminal>) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
        let mut sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        // Grow to a workable size first.
        let budget = sub.area_mm2() * 2.5;
        grow_to_area(&graph, &mut sub, &pairs, 24, budget).unwrap();
        (graph, sub, pairs, terminals)
    }

    fn protected(terminals: &[Terminal]) -> Vec<NodeId> {
        terminals.iter().flat_map(|t| t.covered.clone()).collect()
    }

    fn terminal_nodes(terminals: &[Terminal]) -> Vec<NodeId> {
        terminals.iter().map(|t| t.node).collect()
    }

    #[test]
    fn refine_preserves_area_and_order() {
        let (graph, mut sub, pairs, terminals) = setup();
        let order = sub.order();
        let out = smart_refine(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected(&terminals),
            &terminal_nodes(&terminals),
            10,
        )
        .unwrap();
        assert_eq!(out.moved, 10);
        assert_eq!(sub.order(), order, "moves preserve the node count");
    }

    #[test]
    fn refine_never_removes_terminals() {
        let (graph, mut sub, pairs, terminals) = setup();
        for _ in 0..3 {
            smart_refine(
                &mut NodalSession::new(),
                &graph,
                &mut sub,
                &pairs,
                &protected(&terminals),
                &terminal_nodes(&terminals),
                15,
            )
            .unwrap();
        }
        for t in &terminals {
            assert!(sub.contains(t.node), "terminal representative kept");
            for &c in &t.covered {
                assert!(sub.contains(c), "terminal pad tile kept");
            }
        }
    }

    #[test]
    fn refine_keeps_connectivity() {
        let (graph, mut sub, pairs, terminals) = setup();
        let tn = terminal_nodes(&terminals);
        for _ in 0..4 {
            smart_refine(
                &mut NodalSession::new(),
                &graph,
                &mut sub,
                &pairs,
                &protected(&terminals),
                &tn,
                20,
            )
            .unwrap();
            assert!(sub.connects(&graph, &tn));
        }
    }

    #[test]
    fn repeated_refinement_tends_to_lower_resistance() {
        let (graph, mut sub, pairs, terminals) = setup();
        let tn = terminal_nodes(&terminals);
        let prot = protected(&terminals);
        let first = smart_refine(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &prot,
            &tn,
            12,
        )
        .unwrap();
        let mut best = first.resistance_after_sq.min(first.resistance_before_sq);
        for _ in 0..5 {
            let out = smart_refine(
                &mut NodalSession::new(),
                &graph,
                &mut sub,
                &pairs,
                &prot,
                &tn,
                12,
            )
            .unwrap();
            best = best.min(out.resistance_after_sq);
        }
        assert!(
            best <= first.resistance_before_sq * 1.001,
            "refinement should not regress the best objective: {best} vs {}",
            first.resistance_before_sq
        );
    }

    #[test]
    fn zero_k_is_a_no_op() {
        let (graph, mut sub, pairs, terminals) = setup();
        let before = sub.order();
        let out = smart_refine(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected(&terminals),
            &terminal_nodes(&terminals),
            0,
        )
        .unwrap();
        assert_eq!(out.moved, 0);
        assert_eq!(sub.order(), before);
        assert_eq!(out.resistance_before_sq, out.resistance_after_sq);
    }
}
