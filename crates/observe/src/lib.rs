//! # sprout-observe
//!
//! Convergence and hotspot observability for the SPROUT pipeline, built
//! on the event stream of [`sprout_telemetry`].
//!
//! Two complementary views of a routing run:
//!
//! * **Convergence traces** ([`trace`]) — a [`TraceSink`] recorder
//!   captures the per-iteration points the router emits (`grow_iter`,
//!   `refine_iter`, `reheat_iter`, `route_final`) and the per-solve
//!   residual curves from `sprout-linalg` (`cg_solve`), keeps each with
//!   the rail tag (net, layer, wave) it was emitted under, and exports
//!   the lot as JSONL for offline plotting of objective-vs-iteration and
//!   residual decay.
//!
//! * **Spatial maps** ([`heatmap`]) — rasterizes per-tile node current
//!   (Algorithm 3), node voltage, and IR-drop over the board's tile
//!   grid, exports CSV matrices and SVG overlays (via
//!   [`sprout_render::SvgScene::add_heatmap`]), and distills a top-k
//!   [`HotspotRecord`](sprout_core::HotspotRecord) report for
//!   [`RunReport`](sprout_core::RunReport) attachment.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sprout_board::presets;
//! use sprout_core::router::{Router, RouterConfig};
//! use sprout_observe::TraceSink;
//! use sprout_telemetry::RecorderScope;
//!
//! # fn main() -> Result<(), sprout_core::SproutError> {
//! let sink = Arc::new(TraceSink::new());
//! let board = presets::two_rail();
//! let mut config = RouterConfig::default();
//! config.tile_pitch_mm = 0.8;
//! let router = Router::new(&board, config);
//! let (net, _) = board.power_nets().next().expect("preset has rails");
//! {
//!     let _scope = RecorderScope::install(sink.clone());
//!     router.route_net(net, presets::TWO_RAIL_ROUTE_LAYER, 30.0)?;
//! }
//! assert!(sink.len() > 0);
//! assert!(sink.to_jsonl().contains("\"event\":\"route_final\""));
//! # Ok(())
//! # }
//! ```

pub mod heatmap;
pub mod trace;

pub use heatmap::{build_heatmaps, heatmap_svg, hotspots, Heatmap, HeatmapSet};
pub use trace::{TraceRecord, TraceSink};
