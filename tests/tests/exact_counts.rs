//! Exact solver and tiling counts for the committed benchmark shapes.
//!
//! The perf gate compares solve counts only; these assertions pin every
//! counter a rail reports — solves, full factorizations, factor
//! updates, tile rebuilds — plus the shipped area's bits, so a change
//! that moves the nodal solver's reuse/refresh/refactor decisions or the
//! tiling cache's outcome fails tier-1 instead of drifting silently.
//!
//! The configurations are `two_rail` at the default router settings and
//! the `scaling` bench's three coarsest pitches (0.8/0.6/0.5 mm).

use sprout_board::presets;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::RouteResult;

/// What a rail must report, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    solves: usize,
    factorizations: usize,
    factor_updates: usize,
    tile_rebuilds: usize,
    area_bits: u64,
}

fn counts(r: &RouteResult) -> Counts {
    Counts {
        solves: r.timings.solves,
        factorizations: r.timings.factorizations,
        factor_updates: r.timings.factor_updates,
        tile_rebuilds: r.timings.tile_rebuilds,
        area_bits: r.shape.area_mm2().to_bits(),
    }
}

/// Shorthand for an expected row.
const fn c(
    solves: usize,
    factorizations: usize,
    factor_updates: usize,
    tile_rebuilds: usize,
    area_bits: u64,
) -> Counts {
    Counts {
        solves,
        factorizations,
        factor_updates,
        tile_rebuilds,
        area_bits,
    }
}

#[test]
fn two_rail_default_counts_are_exact() {
    let board = presets::two_rail();
    let router = Router::new(&board, RouterConfig::default());
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let requests: Vec<_> = board
        .power_nets()
        .zip([22.0, 20.0])
        .map(|((net, _), budget)| (net, layer, budget))
        .collect();
    let results = router.route_all(&requests).into_results().unwrap();
    let got: Vec<Counts> = results.iter().map(counts).collect();
    let want = vec![
        c(486, 46, 8, 1, 4626908185167900178),
        c(459, 43, 8, 1, 4626277681220068362),
    ];
    assert_eq!(got, want);
}

#[test]
fn scaling_pitch_counts_are_exact() {
    let board = presets::two_rail();
    let (vdd1, _) = board.power_nets().next().unwrap();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let want = vec![
        (0.8, c(216, 18, 6, 1, 4626998257160447595)),
        (0.6, c(306, 28, 6, 1, 4626975739162310735)),
        (0.5, c(333, 31, 6, 1, 4626885667169763328)),
    ];
    let got: Vec<(f64, Counts)> = want
        .iter()
        .map(|&(pitch, _)| {
            let config = RouterConfig {
                tile_pitch_mm: pitch,
                grow_iterations: 12,
                refine_iterations: 4,
                ..RouterConfig::default()
            };
            let result = Router::new(&board, config)
                .route_net(vdd1, layer, 22.0)
                .unwrap();
            (pitch, counts(&result))
        })
        .collect();
    assert_eq!(got, want);
}
