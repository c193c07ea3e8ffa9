//! Cached-vs-scratch tiling equivalence.
//!
//! Property sweep: routers tile through a [`TileCache`] that keys
//! finished graphs by the exact space. Over randomized blocker sets,
//! every graph the cache hands out must be the from-scratch
//! [`space_to_graph`] lattice bit for bit — same cells, same clipped
//! areas, same contact-width edge weights — a repeated space must get
//! the very same shared graph, and a space that differs in one bit
//! (a blocker vertex or the pitch) must miss. The banded parallel build
//! must also be bit-identical at every thread count.
//!
//! Seeded deterministic sweeps (the offline crate set has no
//! `proptest`); each case prints its seed on failure.

use sprout_board::presets;
use sprout_core::space::{Blocker, SpaceSpec};
use sprout_core::tile::{space_to_graph, TileOptions};
use sprout_core::tile_session::build_graph;
use sprout_core::{RoutingGraph, TileCache, TileOutcome};
use sprout_geom::{Point, Polygon, Rect};
use sprout_rng::SproutRng;
use std::sync::Arc;

const PITCH: f64 = 0.4;

fn base_spec() -> SpaceSpec {
    let board = presets::two_rail();
    let (vdd1, _) = board.power_nets().next().unwrap();
    SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap()
}

/// A random axis-aligned rectangle blocker inside `universe`, between
/// a fraction of a tile and several tiles on a side.
fn random_blocker(rng: &mut SproutRng, universe: Rect) -> Polygon {
    let w = rng.f64_range(PITCH * 0.3, PITCH * 4.0);
    let h = rng.f64_range(PITCH * 0.3, PITCH * 4.0);
    let x0 = rng.f64_range(universe.min().x, universe.max().x - w);
    let y0 = rng.f64_range(universe.min().y, universe.max().y - h);
    Polygon::rectangle(Point::new(x0, y0), Point::new(x0 + w, y0 + h)).unwrap()
}

fn assert_graphs_bit_equal(case: u64, round: usize, scratch: &RoutingGraph, cached: &RoutingGraph) {
    assert_eq!(
        scratch.node_count(),
        cached.node_count(),
        "case {case} round {round}: node counts diverged"
    );
    for (i, (a, b)) in scratch.nodes().iter().zip(cached.nodes()).enumerate() {
        assert_eq!(
            a.cell, b.cell,
            "case {case} round {round}: cell at node {i}"
        );
        assert_eq!(
            a.area_mm2.to_bits(),
            b.area_mm2.to_bits(),
            "case {case} round {round}: area at node {i} ({} vs {})",
            a.area_mm2,
            b.area_mm2
        );
        assert_eq!(
            a.pieces, b.pieces,
            "case {case} round {round}: pieces at node {i}"
        );
    }
    assert_eq!(
        scratch.edge_count(),
        cached.edge_count(),
        "case {case} round {round}: edge counts diverged"
    );
    for (i, (a, b)) in scratch.edges().iter().zip(cached.edges()).enumerate() {
        assert_eq!(
            a.a, b.a,
            "case {case} round {round}: endpoint a at edge {i}"
        );
        assert_eq!(
            a.b, b.b,
            "case {case} round {round}: endpoint b at edge {i}"
        );
        assert_eq!(
            a.weight.to_bits(),
            b.weight.to_bits(),
            "case {case} round {round}: weight at edge {i} ({} vs {})",
            a.weight,
            b.weight
        );
    }
}

/// `poly` with the lowest mantissa bit of one vertex coordinate flipped.
fn flip_one_bit(rng: &mut SproutRng, poly: &Polygon) -> Polygon {
    let mut vs = poly.vertices().to_vec();
    let at = rng.usize_below(vs.len());
    let v = &mut vs[at];
    if rng.usize_below(2) == 0 {
        v.x = f64::from_bits(v.x.to_bits() ^ 1);
    } else {
        v.y = f64::from_bits(v.y.to_bits() ^ 1);
    }
    Polygon::new(vs).unwrap()
}

/// 24 seeded random blocker sets through one shared cache: each graph is
/// the scratch graph bit for bit, a repeat of the space shares the very
/// same graph, and one flipped bit in a blocker vertex or in the pitch
/// misses and builds its own (again equal to scratch).
#[test]
fn randomized_spaces_match_scratch_through_the_cache() {
    let base = base_spec();
    let opts = TileOptions::square(PITCH);
    let cache = TileCache::new();
    for case in 0..24u64 {
        let mut rng = SproutRng::seed_from_u64(0x0007_11e5 + case);
        let threads = 1 + case as usize % 3;
        // Appends, and removals anywhere — the base blockers included.
        let mut spec = base.clone();
        for _ in 0..1 + rng.usize_below(3) {
            let poly = random_blocker(&mut rng, spec.design_space);
            spec.blockers.push(Blocker::new(poly));
        }
        for _ in 0..rng.usize_below(3) {
            let pos = rng.usize_below(spec.blockers.len());
            spec.blockers.remove(pos);
        }
        let (graph, outcome) = cache.graph(&spec, opts, threads).unwrap();
        assert_eq!(outcome, TileOutcome::Rebuilt, "case {case}");
        assert_graphs_bit_equal(case, 0, &space_to_graph(&spec, opts).unwrap(), &graph);

        let (again, outcome) = cache.graph(&spec.clone(), opts, 1).unwrap();
        assert_eq!(outcome, TileOutcome::Reused, "case {case}");
        assert!(Arc::ptr_eq(&graph, &again), "case {case}: repeat shares");

        let mut flipped = spec.clone();
        let k = rng.usize_below(flipped.blockers.len());
        flipped.blockers[k] = Blocker::new(flip_one_bit(&mut rng, flipped.blockers[k].polygon()));
        assert_ne!(flipped.blockers[k], spec.blockers[k], "case {case}");
        let (graph, outcome) = cache.graph(&flipped, opts, threads).unwrap();
        assert_eq!(outcome, TileOutcome::Rebuilt, "case {case}: vertex bit");
        assert_graphs_bit_equal(case, 1, &space_to_graph(&flipped, opts).unwrap(), &graph);

        let nudged = TileOptions {
            dx: f64::from_bits(opts.dx.to_bits() ^ 1),
            ..opts
        };
        let (graph, outcome) = cache.graph(&spec, nudged, threads).unwrap();
        assert_eq!(outcome, TileOutcome::Rebuilt, "case {case}: pitch bit");
        assert_graphs_bit_equal(case, 2, &space_to_graph(&spec, nudged).unwrap(), &graph);
    }
}

/// The banded parallel build is bit-identical to the serial one
/// at every thread count, including counts that do not divide the row
/// count and counts beyond it.
#[test]
fn parallel_initial_build_is_deterministic() {
    let base = base_spec();
    let opts = TileOptions::square(PITCH);
    let build = |threads| build_graph(base.design_space, &base.blockers, opts, threads).unwrap();
    let serial = build(1);
    for threads in [2, 3, 8] {
        let parallel = build(threads);
        assert_graphs_bit_equal(threads as u64, 0, &serial, &parallel);
    }
    // threads = 0 resolves to all cores and must agree too.
    let auto = build(0);
    assert_graphs_bit_equal(0, 0, &serial, &auto);
}
