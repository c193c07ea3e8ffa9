//! Subgraph reheating (§II-F).
//!
//! SmartGrow/SmartRefine descend a local gradient; reheating — dilation
//! beyond the area budget followed by current-guided erosion — lets the
//! optimizer escape local minima, in the spirit of simulated annealing.

use crate::current::InjectionPair;
use crate::graph::{NodeId, RemovalCheck, RoutingGraph, Subgraph};
use crate::session::NodalSession;
use crate::SproutError;

/// Reheating parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReheatConfig {
    /// Dilation iterations: each adds the entire boundary ring. More
    /// iterations explore a wider space at higher erosion cost (§II-F).
    pub dilate_iterations: usize,
    /// Nodes removed per erosion step (the ΔV of Eq. 10).
    pub erode_step: usize,
}

impl Default for ReheatConfig {
    fn default() -> Self {
        ReheatConfig {
            dilate_iterations: 2,
            erode_step: 16,
        }
    }
}

/// Outcome of a reheating pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ReheatOutcome {
    /// Nodes added by dilation.
    pub dilated: usize,
    /// Nodes removed by erosion.
    pub eroded: usize,
    /// Objective after the pass (squares).
    pub resistance_after_sq: f64,
    /// Largest node current in the final metric evaluation (amperes).
    pub max_current_a: f64,
    /// Linear solves performed.
    pub solves: usize,
}

/// Dilates the subgraph `config.dilate_iterations` rings beyond the area
/// budget, then erodes minimum-current nodes until the budget is
/// restored. Every dilation and erosion delta goes through `session`.
///
/// `protected` nodes are never eroded and removals that would disconnect
/// `terminal_nodes` are skipped.
///
/// # Errors
///
/// Propagates metric-evaluation errors.
#[allow(clippy::too_many_arguments)]
pub fn reheat(
    session: &mut NodalSession,
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    pairs: &[InjectionPair],
    protected: &[NodeId],
    terminal_nodes: &[NodeId],
    area_budget_mm2: f64,
    config: ReheatConfig,
) -> Result<ReheatOutcome, SproutError> {
    // Dilation: add whole boundary rings (cheap, no metric needed).
    let mut dilated = 0usize;
    for _ in 0..config.dilate_iterations {
        let ring = sub.boundary(graph);
        if ring.is_empty() {
            break;
        }
        for id in ring {
            session.insert(graph, sub, id);
            dilated += 1;
        }
    }

    let mut protected_mask = vec![false; graph.node_count()];
    for &p in protected {
        protected_mask[p.index()] = true;
    }

    // Erosion: repeatedly strip the lowest-current nodes (Eq. 10-11).
    let mut check = RemovalCheck::new();
    let mut eroded = 0usize;
    let mut solves = 0usize;
    let mut resistance_after_sq;
    let mut max_current_a;
    let mut candidates: Vec<NodeId> = Vec::new();
    loop {
        let metric = session.eval(graph, sub, pairs)?;
        solves += metric.solves();
        resistance_after_sq = metric.resistance_sq();
        max_current_a = metric.max_current_a();
        if sub.area_mm2() <= area_budget_mm2 {
            break;
        }
        let cmp = |a: &NodeId, b: &NodeId| {
            metric
                .of(*a)
                .total_cmp(&metric.of(*b))
                .then_with(|| a.cmp(b))
        };
        candidates.clear();
        candidates.extend_from_slice(sub.members());
        // Only the lowest-current prefix is ever visited; selecting it
        // first keeps the round linear in the member count. The
        // comparator is a strict total order (ties broken by id), so the
        // partition point is unambiguous and the visit order matches a
        // full sort exactly — the suffix is sorted lazily in the rare
        // round that exhausts the prefix on protected/critical nodes.
        let prefix = (config.erode_step * 4 + 32).min(candidates.len());
        if prefix < candidates.len() {
            candidates.select_nth_unstable_by(prefix - 1, cmp);
        }
        candidates[..prefix].sort_unstable_by(cmp);
        let mut removed_this_round = 0usize;
        let mut suffix_sorted = prefix == candidates.len();
        let mut idx = 0usize;
        while idx < candidates.len() {
            if removed_this_round >= config.erode_step || sub.area_mm2() <= area_budget_mm2 {
                break;
            }
            if idx == prefix && !suffix_sorted {
                candidates[prefix..].sort_unstable_by(cmp);
                suffix_sorted = true;
            }
            let id = candidates[idx];
            idx += 1;
            if protected_mask[id.index()] {
                continue;
            }
            if !check.keeps_connected(graph, sub, id, terminal_nodes) {
                continue;
            }
            session.remove(graph, sub, id);
            removed_this_round += 1;
            eroded += 1;
        }
        session.recycle(metric);
        if removed_this_round == 0 {
            break; // every remaining node is protected or critical
        }
    }

    Ok(ReheatOutcome {
        dilated,
        eroded,
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

    fn setup() -> (
        RoutingGraph,
        Subgraph,
        Vec<InjectionPair>,
        Vec<Terminal>,
        f64,
    ) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
        let mut sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let budget = sub.area_mm2() * 2.5;
        grow_to_area(&graph, &mut sub, &pairs, 24, budget).unwrap();
        let budget = sub.area_mm2(); // the achieved area becomes the budget
        (graph, sub, pairs, terminals, budget)
    }

    #[test]
    fn reheat_restores_area_budget() {
        let (graph, mut sub, pairs, terminals, budget) = setup();
        let protected: Vec<NodeId> = terminals.iter().flat_map(|t| t.covered.clone()).collect();
        let tn: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        let out = reheat(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected,
            &tn,
            budget,
            ReheatConfig::default(),
        )
        .unwrap();
        assert!(out.dilated > 0);
        assert!(out.eroded > 0);
        assert!(
            sub.area_mm2() <= budget + 1e-9,
            "area {} budget {}",
            sub.area_mm2(),
            budget
        );
    }

    #[test]
    fn reheat_keeps_terminals_and_connectivity() {
        let (graph, mut sub, pairs, terminals, budget) = setup();
        let protected: Vec<NodeId> = terminals.iter().flat_map(|t| t.covered.clone()).collect();
        let tn: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        reheat(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected,
            &tn,
            budget,
            ReheatConfig {
                dilate_iterations: 3,
                erode_step: 24,
            },
        )
        .unwrap();
        for t in &terminals {
            assert!(sub.contains(t.node));
        }
        assert!(sub.connects(&graph, &tn));
    }

    #[test]
    fn reheat_does_not_blow_up_objective() {
        let (graph, mut sub, pairs, terminals, budget) = setup();
        let protected: Vec<NodeId> = terminals.iter().flat_map(|t| t.covered.clone()).collect();
        let tn: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        let before = crate::current::node_current(&graph, &sub, &pairs)
            .unwrap()
            .resistance_sq();
        let out = reheat(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected,
            &tn,
            budget,
            ReheatConfig::default(),
        )
        .unwrap();
        // Reheating may wander, but the eroded result at equal area
        // should stay in the same ballpark (within 25 %).
        assert!(
            out.resistance_after_sq < before * 1.25,
            "{} vs {}",
            out.resistance_after_sq,
            before
        );
    }

    #[test]
    fn zero_dilation_erodes_nothing_when_within_budget() {
        let (graph, mut sub, pairs, terminals, budget) = setup();
        let protected: Vec<NodeId> = terminals.iter().flat_map(|t| t.covered.clone()).collect();
        let tn: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        let order = sub.order();
        let out = reheat(
            &mut NodalSession::new(),
            &graph,
            &mut sub,
            &pairs,
            &protected,
            &tn,
            budget,
            ReheatConfig {
                dilate_iterations: 0,
                erode_step: 16,
            },
        )
        .unwrap();
        assert_eq!(out.dilated, 0);
        assert_eq!(out.eroded, 0);
        assert_eq!(sub.order(), order);
    }
}
