//! The router settings and budget rules of the `table2`, `table3` and
//! `scaling` experiments. The bins route with them and
//! `tests/tests/exact_counts.rs` pins every rail they produce, so both
//! read them from here.

use sprout_baseline::ManualConfig;
use sprout_core::router::RouterConfig;

/// Table II (`table2`): the router settings on the two-rail board.
pub fn table2_router() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.35,
        grow_iterations: 22,
        refine_iterations: 8,
        ..RouterConfig::default()
    }
}

/// Table II: each power net's budget (mm²), in board order; both
/// engines route at these and claim their copper in that order.
pub const TABLE2_BUDGETS_MM2: [f64; 2] = [22.0, 20.0];

/// Table III (`table3`): the router settings on the six-rail board.
pub fn table3_router() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.25,
        grow_iterations: 15,
        refine_iterations: 4,
        ..RouterConfig::default()
    }
}

/// Table III: the manual layout's budget (mm²) for a rail carrying
/// `current_a`. Copper allotted with current is what spreads the
/// per-rail impedances the way the paper's are spread (high-current
/// V2/V6 low R, low-current V4/V5 high R); SPROUT then matches each
/// manual layout's realized area.
pub fn table3_manual_budget_mm2(current_a: f64) -> f64 {
    16.0 + 1.8 * current_a
}

/// `scaling`: the swept tile pitches (mm), coarsest first.
pub const SCALING_PITCHES_MM: [f64; 7] = [0.8, 0.6, 0.5, 0.4, 0.3, 0.22, 0.16];

/// `scaling`: the budget (mm²) routed at every pitch.
pub const SCALING_BUDGET_MM2: f64 = 22.0;

/// `scaling`: the router settings at one pitch.
pub fn scaling_router(pitch_mm: f64) -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: pitch_mm,
        grow_iterations: 12,
        refine_iterations: 4,
        ..RouterConfig::default()
    }
}

/// The manual baseline that Tables II and III compare against SPROUT:
/// the default manual router on SPROUT's lattice pitch.
pub fn manual_for(config: &RouterConfig) -> ManualConfig {
    ManualConfig {
        tile_pitch_mm: config.tile_pitch_mm,
        ..ManualConfig::default()
    }
}
