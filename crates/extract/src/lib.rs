//! # sprout-extract
//!
//! Parasitic extraction and PDN simulation for SPROUT layouts.
//!
//! The paper validates SPROUT by extracting each layout's DC resistance
//! and 25 MHz loop inductance with a commercial quasi-static extractor
//! (Tables II/III), and by simulating minimum load voltage and FinFET
//! propagation delay across an area sweep (Fig. 12). This crate rebuilds
//! that tool chain:
//!
//! * [`network`] — converts a routed result into an electrical rail
//!   network: the tile subgraph *is* the resistive/inductive mesh (edge
//!   resistance `R_sheet / w`, edge inductance `µ₀·h / w` in the
//!   plane-pair limit), with via branches at the BGA sinks and decap
//!   shunt branches to the return plane.
//! * [`resistance`] — DC resistance between the PMIC port and the
//!   (shorted) BGA ball group, via resistances included.
//! * [`ac`] — complex nodal analysis at any frequency; effective loop
//!   inductance `Im{Z}/ω` at the paper's 25 MHz.
//! * [`density`] — DC current-density and Joule-dissipation analysis
//!   (Table I's power-routing constraint).
//! * [`mna`] — a general transient circuit simulator (R, L, C, current
//!   and voltage sources; backward-Euler integration).
//! * [`pdn`] — assembles a rail PDN model (extracted R/L, decaps, load
//!   current ramp) and reports the minimum load voltage (Fig. 12c).
//! * [`delay`] — alpha-power-law FinFET delay/power model calibrated to
//!   the paper's quoted sensitivity (36 mV ↔ 7 %, Fig. 12d).
//! * [`explore`] — the Fig. 2 prototype-evaluate-compare loop as a
//!   library call.
//!
//! # Example
//!
//! ```
//! use sprout_board::presets;
//! use sprout_core::router::{Router, RouterConfig};
//! use sprout_extract::network::RailNetwork;
//! use sprout_extract::resistance::dc_resistance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let board = presets::two_rail();
//! let mut config = RouterConfig::default();
//! config.tile_pitch_mm = 0.8; // coarse: fast doc example
//! let router = Router::new(&board, config);
//! let (net, _) = board.power_nets().next().expect("preset has rails");
//! let route = router.route_net(net, presets::TWO_RAIL_ROUTE_LAYER, 30.0)?;
//! let network = RailNetwork::build(&board, &route)?;
//! let dc = dc_resistance(&network)?;
//! assert!(dc.total_ohm > 0.0 && dc.total_ohm < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod delay;
pub mod density;
pub mod explore;
pub mod mna;
pub mod network;
pub mod pdn;
pub mod resistance;

use std::fmt;

/// Errors from extraction and simulation.
#[derive(Debug)]
pub enum ExtractError {
    /// The routed result has no source or no sink terminals.
    MissingTerminals(&'static str),
    /// A linear solve failed (disconnected network, solver breakdown).
    Linalg(sprout_linalg::LinalgError),
    /// The board/stackup query failed.
    Board(sprout_board::BoardError),
    /// Invalid simulation parameter.
    InvalidParameter(&'static str),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::MissingTerminals(what) => write!(f, "missing terminals: {what}"),
            ExtractError::Linalg(e) => write!(f, "linear solve failed: {e}"),
            ExtractError::Board(e) => write!(f, "board query failed: {e}"),
            ExtractError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Linalg(e) => Some(e),
            ExtractError::Board(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sprout_linalg::LinalgError> for ExtractError {
    fn from(e: sprout_linalg::LinalgError) -> Self {
        ExtractError::Linalg(e)
    }
}

impl From<sprout_board::BoardError> for ExtractError {
    fn from(e: sprout_board::BoardError) -> Self {
        ExtractError::Board(e)
    }
}
