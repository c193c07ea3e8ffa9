//! Incremental-vs-scratch nodal-solver equivalence.
//!
//! Property sweep: randomized subgraph mutation sequences driven
//! through a persistent [`NodalSession`] must reproduce the
//! from-scratch [`node_current`] metric bit for bit. The sweep also
//! injects solver faults to prove the session recovers to exact
//! agreement once the fault scope ends.
//!
//! Seeded deterministic sweeps (the offline crate set has no
//! `proptest`); each case prints its seed on failure.

use sprout_board::presets;
use sprout_core::current::{injection_pairs, node_current, InjectionPair, PairPolicy};
use sprout_core::graph::RemovalCheck;
use sprout_core::recovery::{FaultPlan, FaultScope};
use sprout_core::seed::{seed_subgraph, SeedOptions};
use sprout_core::space::SpaceSpec;
use sprout_core::tile::{identify_terminals, space_to_graph, TileOptions};
use sprout_core::{NodalSession, NodeId, RoutingGraph, Subgraph};
use sprout_rng::SproutRng;

fn setup() -> (RoutingGraph, Subgraph, Vec<InjectionPair>, Vec<NodeId>) {
    let board = presets::two_rail();
    let (vdd1, _) = board.power_nets().next().unwrap();
    let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
    let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
    let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
    let sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
    let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
    let tnodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
    (graph, sub, pairs, tnodes)
}

/// One randomized mutation round: a few boundary insertions and a few
/// connectivity-safe removals, all applied through the session.
fn mutate(
    rng: &mut SproutRng,
    graph: &RoutingGraph,
    sub: &mut Subgraph,
    session: &mut NodalSession,
    tnodes: &[NodeId],
    check: &mut RemovalCheck,
) {
    let ring = sub.boundary(graph);
    if !ring.is_empty() {
        let inserts = 1 + rng.usize_below(6);
        for _ in 0..inserts {
            let id = ring[rng.usize_below(ring.len())];
            if !sub.contains(id) {
                session.insert(graph, sub, id);
            }
        }
    }
    let removals = rng.usize_below(4);
    let members: Vec<NodeId> = sub.members().to_vec();
    let mut done = 0;
    for _ in 0..members.len() {
        if done >= removals {
            break;
        }
        let id = members[rng.usize_below(members.len())];
        if !sub.contains(id) || tnodes.contains(&id) {
            continue;
        }
        if check.keeps_connected(graph, sub, id, tnodes) {
            session.remove(graph, sub, id);
            done += 1;
        }
    }
}

fn assert_bitwise(
    case: u64,
    graph: &RoutingGraph,
    sub: &Subgraph,
    pairs: &[InjectionPair],
    session: &mut NodalSession,
) {
    let scratch = node_current(graph, sub, pairs).unwrap();
    let incr = session.eval(graph, sub, pairs).unwrap();
    assert_eq!(
        scratch.resistance_sq().to_bits(),
        incr.resistance_sq().to_bits(),
        "case {case}: resistance must match bit for bit"
    );
    for i in 0..graph.node_count() as u32 {
        let id = NodeId(i);
        assert_eq!(
            scratch.of(id).to_bits(),
            incr.of(id).to_bits(),
            "case {case}: metric mismatch at node {i}"
        );
    }
}

/// 24 seeded mutation sequences: the session is
/// bit-identical to from-scratch evaluation at every step, across
/// factor reuse, numeric refactorization, and resyncs.
#[test]
fn randomized_mutation_sequences_match_scratch_bitwise() {
    let (graph, seed_sub, pairs, tnodes) = setup();
    for case in 0..24u64 {
        let mut rng = SproutRng::seed_from_u64(0x50_1e9 + case);
        let mut sub = seed_sub.clone();
        let mut session = NodalSession::new();
        let mut check = RemovalCheck::new();
        assert_bitwise(case, &graph, &sub, &pairs, &mut session);
        for _ in 0..5 {
            mutate(
                &mut rng,
                &graph,
                &mut sub,
                &mut session,
                &tnodes,
                &mut check,
            );
            assert_bitwise(case, &graph, &sub, &pairs, &mut session);
        }
        let stats = session.stats();
        assert_eq!(
            stats.evals,
            stats.full_factors
                + stats.numeric_refactors
                + stats.factor_reuses
                + stats.ladder_fallbacks,
            "case {case}: every eval must land in exactly one backend"
        );
    }
}

/// Fault legs: under an active fault scope the session fails and
/// degrades exactly like the scratch path (same draws, same verdicts);
/// once the scope ends, bitwise agreement resumes — the faulted
/// evaluations must not poison the cached factorization.
#[test]
fn session_recovers_exact_agreement_after_faults() {
    let (graph, seed_sub, pairs, tnodes) = setup();
    let mut sub = seed_sub.clone();
    let mut session = NodalSession::new();
    let mut check = RemovalCheck::new();
    let mut rng = SproutRng::seed_from_u64(0xFA_0175);
    assert_bitwise(0, &graph, &sub, &pairs, &mut session);

    // Leg 1: forced solver failure — both paths must error.
    let fail_plan = FaultPlan {
        solver_failure_rate: 1.0,
        ..FaultPlan::quiet(7)
    };
    {
        let _scope = FaultScope::install(fail_plan);
        assert!(node_current(&graph, &sub, &pairs).is_err());
    }
    {
        let _scope = FaultScope::install(fail_plan);
        assert!(session.eval(&graph, &sub, &pairs).is_err());
    }
    mutate(
        &mut rng,
        &graph,
        &mut sub,
        &mut session,
        &tnodes,
        &mut check,
    );
    assert_bitwise(1, &graph, &sub, &pairs, &mut session);

    // Leg 2: NaN-corrupted conductances — each path runs under its own
    // scope so the deterministic draws line up; the sanitized degraded
    // results must agree bitwise too.
    let nan_plan = FaultPlan {
        nan_conductance_rate: 0.01,
        ..FaultPlan::quiet(11)
    };
    let scratch = {
        let _scope = FaultScope::install(nan_plan);
        node_current(&graph, &sub, &pairs)
    };
    let incr = {
        let _scope = FaultScope::install(nan_plan);
        session.eval(&graph, &sub, &pairs)
    };
    match (scratch, incr) {
        (Ok(s), Ok(i)) => assert_eq!(
            s.resistance_sq().to_bits(),
            i.resistance_sq().to_bits(),
            "degraded evaluations must agree bitwise"
        ),
        // Heavy corruption can disconnect the sanitized system — both
        // paths must then report the failure identically.
        (Err(se), Err(ie)) => assert_eq!(format!("{se}"), format!("{ie}")),
        (s, i) => panic!("fault verdicts diverged: scratch {s:?} vs incremental {i:?}"),
    }

    // After the fault scope: the corrupted eval must not have been
    // cached — agreement with the clean scratch metric resumes.
    assert_bitwise(2, &graph, &sub, &pairs, &mut session);
    mutate(
        &mut rng,
        &graph,
        &mut sub,
        &mut session,
        &tnodes,
        &mut check,
    );
    assert_bitwise(3, &graph, &sub, &pairs, &mut session);
}
