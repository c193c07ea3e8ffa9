//! End-to-end routing determinism through the public API.
//!
//! `RouterConfig::threads` drives two kernels: the tiling clip deals row
//! stripes over threads (every cell is a pure function of its blocker
//! list), and each metric evaluation splits its pair blocks and node
//! sums over the same threads (every node keeps its addition order).
//! Neither may change a route at any thread count. The incremental
//! nodal session must agree bit for bit
//! with the scratch evaluator ([`current::node_current`]) on what it
//! ships, while factoring less often than one factorization per
//! evaluation. The trajectory-level comparison against a route answered
//! entirely by the scratch evaluator needs a test-only switch and lives
//! in `sprout-core`
//! (`router::tests::session_routes_match_the_scratch_oracle_bit_for_bit`).

use sprout_board::presets;
use sprout_core::current;
use sprout_core::reheat::ReheatConfig;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::{NodeId, RouteResult};

fn config(threads: usize) -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 3,
        reheat: Some(ReheatConfig {
            dilate_iterations: 1,
            erode_step: 24,
        }),
        threads,
        ..RouterConfig::default()
    }
}

fn route_all(threads: usize) -> Vec<RouteResult> {
    let board = presets::two_rail();
    let router = Router::new(&board, config(threads));
    let nets: Vec<_> = board.power_nets().map(|(id, _)| id).collect();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let requests: Vec<_> = nets.into_iter().map(|n| (n, layer, 20.0)).collect();
    router.route_all(&requests).into_results().unwrap()
}

fn assert_identical(label: &str, a: &[RouteResult], b: &[RouteResult]) {
    assert_eq!(a.len(), b.len(), "{label}: rail count");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.net, rb.net, "{label}: rail order");
        assert_eq!(
            ra.final_resistance_sq.to_bits(),
            rb.final_resistance_sq.to_bits(),
            "{label}: objective must be bit-identical for {:?}",
            ra.net
        );
        let ma: &[NodeId] = ra.subgraph.members();
        let mb: &[NodeId] = rb.subgraph.members();
        assert_eq!(ma, mb, "{label}: subgraph membership for {:?}", ra.net);
        assert_eq!(
            ra.shape.area_mm2().to_bits(),
            rb.shape.area_mm2().to_bits(),
            "{label}: shipped area for {:?}",
            ra.net
        );
        assert_eq!(
            ra.resistance_history_sq.len(),
            rb.resistance_history_sq.len(),
            "{label}: history length for {:?}",
            ra.net
        );
        for (ha, hb) in ra
            .resistance_history_sq
            .iter()
            .zip(&rb.resistance_history_sq)
        {
            assert_eq!(
                ha.to_bits(),
                hb.to_bits(),
                "{label}: history entry for {:?}",
                ra.net
            );
        }
    }
}

#[test]
fn routes_are_bit_identical_across_thread_counts_and_engines() {
    let reference = route_all(1);
    assert_eq!(reference.len(), 2, "two-rail preset routes two rails");

    for threads in [2usize, 8] {
        let multi = route_all(threads);
        assert_identical(
            &format!("router threads={threads} (tiling clip and evaluation split)"),
            &reference,
            &multi,
        );
    }

    // The scratch evaluator, run on each shipped subgraph, must reproduce
    // the objective the session reported for it.
    for r in &reference {
        let scratch = current::node_current(&r.graph, &r.subgraph, &r.pairs).unwrap();
        assert_eq!(
            scratch.resistance_sq().to_bits(),
            r.final_resistance_sq.to_bits(),
            "scratch evaluator disagrees with the session for {:?}",
            r.net
        );
    }
}

#[test]
fn incremental_engine_skips_factorizations() {
    for r in route_all(1) {
        let t = r.timings;
        // The scratch evaluator factors once per evaluation, so a route
        // answered by it would take `evals` full factorizations.
        let evals = t.factorizations + t.factor_updates;
        assert!(evals > 0, "{:?} evaluated nothing", r.net);
        assert!(
            t.factorizations < evals,
            "the session must avoid full factorizations for {:?}: {} of {evals}",
            r.net,
            t.factorizations
        );
    }
}
