//! The node-current metric (Algorithm 3, §II-D).
//!
//! Current is injected into terminal pairs with magnitudes proportional
//! to the expected rail currents; nodal analysis `V = L⁻¹E` on the
//! grounded subgraph Laplacian yields edge currents, and each node's
//! metric is the sum of the currents in its incident edges. Nodes with a
//! high metric mark current crowding — where SmartGrow adds metal — and
//! nodes with a low metric mark quiescent zones — where SmartRefine
//! reclaims metal.

use crate::graph::{NodeId, RoutingGraph, Subgraph};
use crate::recovery::{self, SolverEvent};
use crate::tile::Terminal;
use crate::SproutError;
use sprout_board::ElementRole;
use sprout_linalg::fallback::FallbackOptions;
use sprout_linalg::laplacian::{GraphLaplacian, GroundedFactor};
use sprout_linalg::LinalgError;
use sprout_telemetry as telemetry;

/// How terminal pairs are enumerated for current injection.
///
/// The paper's Algorithm 3 uses all 2-subsets `[Θ]²`, while its §II-D
/// text assigns large currents to PMIC↔BGA pairs and small ones to
/// BGA↔BGA pairs. With pair-current weighting the BGA↔BGA terms
/// contribute little, so the default enumerates only source→sink pairs —
/// one solve per sink instead of `O(k²)` — and `AllPairs` remains
/// available for fidelity experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairPolicy {
    /// Source terminals paired with every sink/decap terminal (default).
    #[default]
    SourceToSinks,
    /// Every unordered terminal pair, as written in Algorithm 3.
    AllPairs,
}

/// A current injection between two subgraph nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionPair {
    /// Node where `+current_a` enters.
    pub source: NodeId,
    /// Node where the current leaves.
    pub sink: NodeId,
    /// Injected current (A).
    pub current_a: f64,
}

/// Fraction of a sink's current share assigned to a decap pad (decaps
/// carry transient, not DC, current).
const DECAP_WEIGHT: f64 = 0.25;
/// Fraction of a sink's share assigned to sink↔sink pairs under
/// [`PairPolicy::AllPairs`].
const SINK_SINK_WEIGHT: f64 = 0.1;

/// Enumerates injection pairs for a terminal set carrying `rail_current_a`.
///
/// Sinks share the rail current equally; decap pads get
/// `DECAP_WEIGHT` (25 %) of a sink share.
pub fn injection_pairs(
    terminals: &[Terminal],
    policy: PairPolicy,
    rail_current_a: f64,
) -> Vec<InjectionPair> {
    let sources: Vec<&Terminal> = terminals
        .iter()
        .filter(|t| t.role == ElementRole::Source)
        .collect();
    let loads: Vec<&Terminal> = terminals
        .iter()
        .filter(|t| t.role != ElementRole::Source)
        .collect();
    let n_sinks = loads
        .iter()
        .filter(|t| t.role == ElementRole::Sink)
        .count()
        .max(1);
    let share = rail_current_a / n_sinks as f64;
    let mut pairs = Vec::new();
    for s in &sources {
        for l in &loads {
            if s.node == l.node {
                continue;
            }
            let i = if l.role == ElementRole::DecapPad {
                share * DECAP_WEIGHT
            } else {
                share
            };
            pairs.push(InjectionPair {
                source: s.node,
                sink: l.node,
                current_a: i / sources.len() as f64,
            });
        }
    }
    if policy == PairPolicy::AllPairs {
        for (a_idx, a) in loads.iter().enumerate() {
            for b in &loads[a_idx + 1..] {
                if a.node == b.node {
                    continue;
                }
                pairs.push(InjectionPair {
                    source: a.node,
                    sink: b.node,
                    current_a: share * SINK_SINK_WEIGHT,
                });
            }
        }
    }
    pairs
}

/// Result of one node-current evaluation.
#[derive(Debug, Clone)]
pub struct NodeCurrents {
    /// Per-node current metric, indexed by `NodeId::index()` (zero for
    /// nodes outside the subgraph).
    current: Vec<f64>,
    /// Current-weighted mean effective resistance between the injection
    /// pairs, in *squares* (multiply by the layer sheet resistance for
    /// ohms). This is the objective `R(Γ_n^s, Θ_n)` of Eq. 5.
    resistance_sq: f64,
    /// Number of linear solves performed (telemetry for §II-H).
    solves: usize,
}

impl NodeCurrents {
    /// Assembles a result from raw parts (the incremental nodal session
    /// produces the same fields through a different solve path).
    pub(crate) fn from_parts(current: Vec<f64>, resistance_sq: f64, solves: usize) -> Self {
        NodeCurrents {
            current,
            resistance_sq,
            solves,
        }
    }

    /// The per-node metric vector, for reuse by the session that
    /// produced it.
    pub(crate) fn into_current(self) -> Vec<f64> {
        self.current
    }

    /// The metric for a node (zero outside the subgraph).
    pub fn of(&self, id: NodeId) -> f64 {
        self.current[id.index()]
    }

    /// Current-weighted mean effective resistance in squares.
    pub fn resistance_sq(&self) -> f64 {
        self.resistance_sq
    }

    /// Linear solves performed.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// The largest per-node metric — the current-crowding hotspot that
    /// SmartGrow targets (amperes).
    pub fn max_current_a(&self) -> f64 {
        self.current.iter().fold(0.0f64, |m, &v| m.max(v))
    }
}

/// Validates an injection-pair list against a subgraph (shared by the
/// scratch and incremental metric evaluators).
pub(crate) fn validate_pairs(sub: &Subgraph, pairs: &[InjectionPair]) -> Result<(), SproutError> {
    if pairs.is_empty() {
        return Err(SproutError::InvalidConfig("no injection pairs"));
    }
    for p in pairs {
        if !sub.contains(p.source) || !sub.contains(p.sink) {
            return Err(SproutError::InvalidConfig(
                "injection pair endpoint outside the subgraph",
            ));
        }
    }
    Ok(())
}

/// A subgraph's nodal system, assembled and factored from scratch: the
/// shared preamble of [`node_current`] and [`node_voltages`].
pub(crate) struct NodalSystem {
    /// Sorted member list; position = compact index.
    pub members: Vec<NodeId>,
    /// `compact[NodeId::index()]` → compact index (`usize::MAX` outside).
    pub compact: Vec<usize>,
    /// Induced edges in graph-edge order, compact endpoints, sanitized.
    pub edges: Vec<(usize, usize, f64)>,
    /// Resilient grounded factor (grounded at the first pair's sink).
    pub factor: GroundedFactor,
}

/// Builds the compacted, sanitized, grounded-and-factored nodal system
/// for a subgraph. With `with_fault_hooks` the (test-only) fault
/// injection points fire and sanitize/fallback degradations are recorded
/// as solver events + telemetry — exactly the [`node_current`] pipeline
/// behavior; without it the assembly is silent ([`node_voltages`] is a
/// read-only observer and must not re-report degradations).
pub(crate) fn assemble_system(
    graph: &RoutingGraph,
    sub: &Subgraph,
    pairs: &[InjectionPair],
    with_fault_hooks: bool,
) -> Result<NodalSystem, SproutError> {
    // Compact index: sorted member list for determinism.
    let mut members: Vec<NodeId> = sub.members().to_vec();
    members.sort_unstable();
    let mut compact = vec![usize::MAX; graph.node_count()];
    for (k, &m) in members.iter().enumerate() {
        compact[m.index()] = k;
    }

    let mut edges: Vec<(usize, usize, f64)> = sub
        .induced_edges(graph)
        .map(|e| (compact[e.a.index()], compact[e.b.index()], e.weight))
        .collect();
    if with_fault_hooks {
        // Fault-injection hooks: no-ops unless a FaultScope is active.
        recovery::fault_corrupt_conductances(&mut edges);
        if recovery::fault_solver_failure() {
            return Err(SproutError::Linalg(LinalgError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            }));
        }
    }
    let mut lap = GraphLaplacian::from_edges(members.len(), &edges)?;
    let dropped = lap.sanitize_conductances();
    if dropped > 0 {
        if with_fault_hooks {
            recovery::note_event(SolverEvent::Sanitized(dropped));
            telemetry::counter!("solver.edges_sanitized", dropped as u64);
            telemetry::point("edges_sanitized")
                .field("count", dropped)
                .emit();
        }
        edges.retain(|&(_, _, g)| g.is_finite() && g > 0.0);
    }
    let ground = compact[pairs[0].sink.index()];
    let factor = lap.factor_grounded_resilient(ground, FallbackOptions::default())?;
    if with_fault_hooks {
        if let Some(report) = factor.fallback_report() {
            if report.degraded() {
                recovery::note_event(SolverEvent::Fallback(report.rung));
                telemetry::counter!("solver.fallbacks");
                telemetry::point("solver_fallback")
                    .field("rung", format!("{:?}", report.rung))
                    .field("attempts", report.factor_attempts)
                    .emit();
            }
        }
    }
    Ok(NodalSystem {
        members,
        compact,
        edges,
        factor,
    })
}

/// The Algorithm-3 metric loop against an already-factored system: one
/// solve per pair, edge-current accumulation, and the current-weighted
/// resistance. Shared by [`node_current`] and the incremental session's
/// resilient-ladder fallback so both report identical numbers and
/// telemetry.
pub(crate) fn metric_from_factor(
    graph: &RoutingGraph,
    members: &[NodeId],
    compact: &[usize],
    edges: &[(usize, usize, f64)],
    factor: &GroundedFactor,
    pairs: &[InjectionPair],
) -> Result<NodeCurrents, SproutError> {
    let mut node_metric = vec![0.0f64; graph.node_count()];
    let mut resistance_weighted = 0.0f64;
    let mut weight_total = 0.0f64;
    let mut solves = 0usize;
    let mut currents = vec![0.0f64; members.len()];
    for p in pairs {
        currents.fill(0.0);
        currents[compact[p.source.index()]] += p.current_a;
        currents[compact[p.sink.index()]] -= p.current_a;
        let v = factor.solve_currents(&currents)?;
        solves += 1;
        for (a, b, w) in edges {
            let i_edge = w * (v[*a] - v[*b]);
            node_metric[members[*a].index()] += i_edge.abs();
            node_metric[members[*b].index()] += i_edge.abs();
        }
        let drop = v[compact[p.source.index()]] - v[compact[p.sink.index()]];
        resistance_weighted += drop; // = R_eff · i_pair
        weight_total += p.current_a;
    }
    let resistance_sq = if weight_total > 0.0 {
        resistance_weighted / weight_total
    } else {
        0.0
    };

    telemetry::counter!("metric.evaluations");
    telemetry::histogram!("metric.solves_per_eval", solves as u64);

    Ok(NodeCurrents {
        current: node_metric,
        resistance_sq,
        solves,
    })
}

/// Evaluates the node-current metric on a subgraph (Algorithm 3).
///
/// # Errors
///
/// * [`SproutError::InvalidConfig`] — empty pair list or a pair endpoint
///   outside the subgraph.
/// * [`SproutError::Linalg`] — the subgraph is electrically disconnected
///   (singular grounded Laplacian).
pub fn node_current(
    graph: &RoutingGraph,
    sub: &Subgraph,
    pairs: &[InjectionPair],
) -> Result<NodeCurrents, SproutError> {
    validate_pairs(sub, pairs)?;
    let NodalSystem {
        members,
        compact,
        edges,
        factor,
    } = assemble_system(graph, sub, pairs, true)?;
    metric_from_factor(graph, &members, &compact, &edges, &factor, pairs)
}

/// Solves the superposed nodal voltages for an injection set: all pair
/// currents are injected at once and `V = L⁻¹E` is evaluated with one
/// solve, grounded at the first pair's sink (the same ground
/// [`node_current`] uses).
///
/// Returns a per-node vector indexed by `NodeId::index()`; nodes
/// outside the subgraph hold `NaN`. Voltages are in ampere-squares —
/// multiply by the layer sheet resistance for volts. The spatial
/// IR-drop map is `max(V) - V(node)` over the members.
///
/// # Errors
///
/// Same conditions as [`node_current`].
pub fn node_voltages(
    graph: &RoutingGraph,
    sub: &Subgraph,
    pairs: &[InjectionPair],
) -> Result<Vec<f64>, SproutError> {
    validate_pairs(sub, pairs)?;
    let NodalSystem {
        members,
        compact,
        factor,
        ..
    } = assemble_system(graph, sub, pairs, false)?;
    let mut currents = vec![0.0f64; members.len()];
    for p in pairs {
        currents[compact[p.source.index()]] += p.current_a;
        currents[compact[p.sink.index()]] -= p.current_a;
    }
    let v = factor.solve_currents(&currents)?;
    let mut out = vec![f64::NAN; graph.node_count()];
    for (k, &m) in members.iter().enumerate() {
        out[m.index()] = v[k];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{seed_subgraph, SeedOptions};
    use crate::space::SpaceSpec;
    use crate::tile::{identify_terminals, space_to_graph, TileOptions};
    use sprout_board::presets;

    fn setup() -> (RoutingGraph, Subgraph, Vec<Terminal>) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
        let sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
        (graph, sub, terminals)
    }

    #[test]
    fn pair_enumeration_source_to_sinks() {
        let (_, _, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        // 1 source × 9 sinks.
        assert_eq!(pairs.len(), 9);
        let total: f64 = pairs.iter().map(|p| p.current_a).sum();
        assert!((total - 3.0).abs() < 1e-9, "sinks share the rail current");
    }

    #[test]
    fn pair_enumeration_all_pairs() {
        let (_, _, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::AllPairs, 3.0);
        // 9 source-sink + C(9,2) = 36 sink-sink.
        assert_eq!(pairs.len(), 9 + 36);
        // Sink-sink currents are small.
        let max_ss = pairs[9..]
            .iter()
            .map(|p| p.current_a)
            .fold(0.0f64, f64::max);
        assert!(max_ss < pairs[0].current_a);
    }

    #[test]
    fn metric_positive_inside_zero_outside() {
        let (graph, sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let nc = node_current(&graph, &sub, &pairs).unwrap();
        assert_eq!(nc.solves(), pairs.len());
        // Terminal nodes carry current.
        for t in &terminals {
            assert!(nc.of(t.node) > 0.0, "terminal node must carry current");
        }
        // Nodes outside the subgraph have zero metric.
        let outside = (0..graph.node_count() as u32)
            .map(NodeId)
            .find(|&id| !sub.contains(id))
            .unwrap();
        assert_eq!(nc.of(outside), 0.0);
        assert!(nc.resistance_sq() > 0.0);
    }

    #[test]
    fn resistance_drops_when_subgraph_grows() {
        let (graph, sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let r_seed = node_current(&graph, &sub, &pairs).unwrap().resistance_sq();
        // Add the full boundary (a crude one-step dilation).
        let mut bigger = sub.clone();
        for b in sub.boundary(&graph) {
            bigger.insert(&graph, b);
        }
        let r_big = node_current(&graph, &bigger, &pairs)
            .unwrap()
            .resistance_sq();
        assert!(
            r_big < r_seed,
            "Rayleigh: growing the subgraph lowers resistance ({r_big} vs {r_seed})"
        );
    }

    #[test]
    fn rejects_pairs_outside_subgraph() {
        let (graph, sub, terminals) = setup();
        let outside = (0..graph.node_count() as u32)
            .map(NodeId)
            .find(|&id| !sub.contains(id))
            .unwrap();
        let bad = vec![InjectionPair {
            source: terminals[0].node,
            sink: outside,
            current_a: 1.0,
        }];
        assert!(matches!(
            node_current(&graph, &sub, &bad),
            Err(SproutError::InvalidConfig(_))
        ));
        assert!(matches!(
            node_current(&graph, &sub, &[]),
            Err(SproutError::InvalidConfig(_))
        ));
    }

    #[test]
    fn disconnected_subgraph_is_reported() {
        let (graph, _, terminals) = setup();
        // A subgraph of just the two far-apart terminal nodes, no path.
        let mut sub = Subgraph::new(&graph);
        sub.insert(&graph, terminals[0].node);
        sub.insert(&graph, terminals[5].node);
        let pairs = vec![InjectionPair {
            source: terminals[0].node,
            sink: terminals[5].node,
            current_a: 1.0,
        }];
        assert!(matches!(
            node_current(&graph, &sub, &pairs),
            Err(SproutError::Linalg(_))
        ));
    }

    #[test]
    fn voltages_ground_at_first_sink_and_peak_at_source() {
        let (graph, sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let v = node_voltages(&graph, &sub, &pairs).unwrap();
        // Ground reference: the first pair's sink sits at 0 V.
        assert!(v[pairs[0].sink.index()].abs() < 1e-12);
        // The source feeds every sink, so it holds the peak potential.
        let src = pairs[0].source;
        let peak = sub
            .members()
            .iter()
            .map(|m| v[m.index()])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((v[src.index()] - peak).abs() < 1e-9, "source is the peak");
        // Nodes outside the subgraph are NaN (empty tiles in the map).
        let outside = (0..graph.node_count() as u32)
            .map(NodeId)
            .find(|&id| !sub.contains(id))
            .unwrap();
        assert!(v[outside.index()].is_nan());
        // max_current_a matches a manual scan of the metric.
        let nc = node_current(&graph, &sub, &pairs).unwrap();
        let manual = (0..graph.node_count() as u32)
            .map(|i| nc.of(NodeId(i)))
            .fold(0.0f64, f64::max);
        assert!((nc.max_current_a() - manual).abs() < 1e-15);
    }

    #[test]
    fn hotspots_concentrate_near_terminals() {
        // In a seed (thin path), the metric along the path is roughly the
        // pair current; wide regions spread current thin. The maximum
        // metric node must lie inside the subgraph.
        let (graph, sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let nc = node_current(&graph, &sub, &pairs).unwrap();
        let best = (0..graph.node_count() as u32)
            .map(NodeId)
            .max_by(|&a, &b| nc.of(a).total_cmp(&nc.of(b)))
            .unwrap();
        assert!(sub.contains(best));
    }
}
