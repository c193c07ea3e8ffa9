//! # sprout-core
//!
//! SPROUT — Smart Power ROUting Tool for board-level power network
//! exploration and prototyping (Bairamkulov, Roy, Nagarajan, Srinivas,
//! Friedman — DAC 2021).
//!
//! Given a PCB description ([`sprout_board::Board`]), SPROUT synthesizes
//! the arbitrarily-shaped copper pour connecting each power rail's PMIC
//! output to its target BGA balls and decoupling capacitors while
//! minimizing the impedance between the terminals under a metal-area
//! budget. The pipeline follows §II of the paper:
//!
//! 1. [`space`] — available routing space `A_n = U \ ∪ b_j` (Eq. 1).
//! 2. [`tile`] — `SpaceToGraph` (Algorithm 1): tiles become graph nodes,
//!    edge weights ∝ contact width between adjacent tiles (Fig. 6).
//! 3. [`seed`] — the voidless seed subgraph (Algorithm 2).
//! 4. [`current`] — the node-current metric via nodal analysis
//!    `V = L⁻¹E` (Algorithm 3).
//! 5. [`grow`] — SmartGrow frontier expansion (Algorithm 4).
//! 6. [`refine`] — SmartRefine node migration (Algorithm 5).
//! 7. [`reheat`] — dilation/erosion reheating (§II-F).
//! 8. [`backconv`] — back conversion of the subgraph into polygons
//!    (§II-G).
//! 9. [`multilayer`] — via placement and decomposition into single-layer
//!    problems (Appendix, Algorithm 6).
//!
//! The [`router`] module orchestrates the stages with per-stage timing
//! telemetry (reproducing the §II-H runtime analysis), and [`drc`]
//! verifies the output against the design rules. [`anneal`] implements
//! the evolutionary-optimization extension the paper's conclusion
//! proposes as future work.
//!
//! # Example
//!
//! ```
//! use sprout_board::presets;
//! use sprout_core::router::{Router, RouterConfig};
//!
//! # fn main() -> Result<(), sprout_core::SproutError> {
//! let board = presets::two_rail();
//! let mut config = RouterConfig::default();
//! config.tile_pitch_mm = 0.8; // coarse for a fast doc example
//! let router = Router::new(&board, config);
//! let (net, _) = board.power_nets().next().expect("preset has rails");
//! let result = router.route_net(net, presets::TWO_RAIL_ROUTE_LAYER, 30.0)?;
//! assert!(result.shape.area_mm2() <= 30.0 * 1.12);
//! # Ok(())
//! # }
//! ```

pub mod anneal;
pub mod backconv;
pub mod current;
pub mod drc;
pub mod graph;
pub mod grow;
pub mod multilayer;
pub mod path;
pub mod recovery;
pub mod refine;
pub mod reheat;
pub mod report;
pub mod router;
pub mod seed;
pub mod session;
pub mod space;
mod split;
pub mod supervisor;
pub mod tile;
pub mod tile_cache;
pub mod tile_session;

pub use graph::{NodeId, RoutingGraph, Subgraph};
pub use recovery::{CancelToken, Degradation, FaultPlan, RecoveryConfig, RouteDiagnostics};
pub use report::{HotspotRecord, RailRunRecord, RunReport, StageBreakdown};
pub use router::{RouteResult, Router, RouterConfig};
pub use session::{NodalSession, SessionStats};
pub use supervisor::{
    JobReport, RailOutcome, RailReport, RestoredRail, Supervisor, SupervisorConfig,
};
pub use tile_cache::{TileCache, TileOutcome, TILE_CACHE_CAP};

use std::fmt;
use std::sync::OnceLock;

/// The host's available parallelism, read once per process. The
/// standard-library query reads cgroup files on every call, which is
/// too slow for once-per-job and once-per-lattice-build call sites.
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `threads`, or the machine's parallelism when it is `0`.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Errors from the SPROUT pipeline.
#[derive(Debug)]
#[must_use]
#[non_exhaustive]
pub enum SproutError {
    /// The board description itself is inconsistent.
    Board(sprout_board::BoardError),
    /// A geometry operation failed.
    Geometry(sprout_geom::GeomError),
    /// A linear solve failed.
    Linalg(sprout_linalg::LinalgError),
    /// The net has no terminals on the requested layer.
    NoTerminals {
        /// Net being routed.
        net: sprout_board::NetId,
        /// Layer searched.
        layer: usize,
    },
    /// A terminal's location maps to no routable tile.
    TerminalBlocked {
        /// Net being routed.
        net: sprout_board::NetId,
        /// Index of the terminal within the net's terminal list.
        terminal: usize,
    },
    /// Terminals fall in disjoint regions of the available space; the
    /// single-layer router cannot connect them (see Fig. 5 — use
    /// [`multilayer`]).
    DisjointSpace {
        /// Net being routed.
        net: sprout_board::NetId,
        /// Layer attempted.
        layer: usize,
    },
    /// The area budget is below the seed subgraph's area.
    AreaBudgetTooSmall {
        /// Requested budget (mm²).
        budget_mm2: f64,
        /// Minimum area of a connected seed (mm²).
        seed_mm2: f64,
    },
    /// A configuration value is unusable.
    InvalidConfig(&'static str),
    /// Multilayer routing could not find any layer stack path.
    NoMultilayerPath,
    /// A supervisor worker thread panicked while routing a rail. The
    /// panic was contained by the worker's `catch_unwind` boundary; the
    /// rest of the job is unaffected.
    WorkerPanicked {
        /// Net whose worker panicked.
        net: sprout_board::NetId,
        /// Layer the rail was routing on.
        layer: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The job's [`CancelToken`](recovery::CancelToken) was triggered
    /// before or while this rail was routing.
    Cancelled,
    /// The job-level wall-clock deadline expired before this rail could
    /// start.
    DeadlineExpired {
        /// The configured deadline (ms).
        deadline_ms: f64,
        /// Wall-clock already spent when this rail was considered (ms).
        elapsed_ms: f64,
    },
    /// An internal invariant did not hold. Replaces what used to be an
    /// `expect` panic on a fallible path: the pipeline reports the
    /// broken invariant as a typed, non-retryable error instead of
    /// tearing the worker down.
    Internal(&'static str),
}

impl fmt::Display for SproutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SproutError::Board(e) => write!(f, "board error: {e}"),
            SproutError::Geometry(e) => write!(f, "geometry error: {e}"),
            SproutError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            SproutError::NoTerminals { net, layer } => {
                write!(f, "{net} has no terminals on layer {layer}")
            }
            SproutError::TerminalBlocked { net, terminal } => {
                write!(f, "terminal {terminal} of {net} maps to no routable tile")
            }
            SproutError::DisjointSpace { net, layer } => write!(
                f,
                "available space for {net} on layer {layer} is disjoint; multilayer routing required"
            ),
            SproutError::AreaBudgetTooSmall { budget_mm2, seed_mm2 } => write!(
                f,
                "area budget {budget_mm2:.3} mm² is below the minimum connected seed area {seed_mm2:.3} mm²"
            ),
            SproutError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            SproutError::NoMultilayerPath => {
                write!(f, "no multilayer path connects the terminals")
            }
            SproutError::WorkerPanicked { net, layer, message } => write!(
                f,
                "worker routing {net} on layer {layer} panicked: {message}"
            ),
            SproutError::Cancelled => write!(f, "routing job was cancelled"),
            SproutError::DeadlineExpired {
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "job deadline of {deadline_ms:.0} ms expired ({elapsed_ms:.0} ms elapsed)"
            ),
            SproutError::Internal(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for SproutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SproutError::Board(e) => Some(e),
            SproutError::Geometry(e) => Some(e),
            SproutError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sprout_board::BoardError> for SproutError {
    fn from(e: sprout_board::BoardError) -> Self {
        SproutError::Board(e)
    }
}

impl From<sprout_geom::GeomError> for SproutError {
    fn from(e: sprout_geom::GeomError) -> Self {
        SproutError::Geometry(e)
    }
}

impl From<sprout_linalg::LinalgError> for SproutError {
    fn from(e: sprout_linalg::LinalgError) -> Self {
        SproutError::Linalg(e)
    }
}
