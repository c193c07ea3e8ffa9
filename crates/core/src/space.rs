//! Available routing space (§II-A, Eq. 1).
//!
//! The available space for net `n` is the design space `U` minus the
//! buffered geometry of every other net: `A_n = U \ ∪_{j≠n} b_j`.
//! Rather than materializing `A_n` as one global polygon, this module
//! prepares the *specification* — the buffered blocker polygons — that
//! the tiling stage (Algorithm 1) consumes cell by cell, which is
//! numerically robust and cache-friendly.

use crate::SproutError;
use sprout_board::{Board, ElementRole, NetId};
use sprout_geom::buffer::{buffer_polygon, BufferStyle};
use sprout_geom::{Point, Polygon, Rect};

/// A terminal shape on the routing layer with its electrical role.
#[derive(Debug, Clone)]
pub struct TerminalShape {
    /// Terminal geometry.
    pub shape: Polygon,
    /// Source / sink / decap role.
    pub role: ElementRole,
}

/// The available-space specification for one net on one layer.
#[derive(Debug, Clone)]
pub struct SpaceSpec {
    /// The design space `U` (board outline).
    pub design_space: Rect,
    /// Buffered foreign-net geometry (each polygon is a keep-out).
    pub blockers: Vec<Polygon>,
    /// Same-net terminal shapes, in board element order.
    pub terminals: Vec<TerminalShape>,
}

impl SpaceSpec {
    /// Builds the specification for `net` on `layer`.
    ///
    /// `extra_blockers` lets the caller pass shapes routed earlier for
    /// other nets (§II-G: "it is crucial to remove the routed polygon
    /// from the available space of other nets").
    ///
    /// # Errors
    ///
    /// * [`SproutError::Board`] — unknown net/layer.
    /// * [`SproutError::NoTerminals`] — the net has no terminal on the
    ///   layer.
    /// * [`SproutError::Geometry`] — buffering failed.
    pub fn build(
        board: &Board,
        net: NetId,
        layer: usize,
        extra_blockers: &[Polygon],
    ) -> Result<Self, SproutError> {
        Self::build_inner(board, net, layer, extra_blockers, true)
    }

    /// Like [`SpaceSpec::build`] but tolerates a layer with no terminals
    /// — transit layers in multilayer routing (Appendix, Fig. 13) only
    /// carry via-to-via shapes.
    ///
    /// # Errors
    ///
    /// Same as [`SpaceSpec::build`] minus the terminal requirement.
    pub fn build_transit(
        board: &Board,
        net: NetId,
        layer: usize,
        extra_blockers: &[Polygon],
    ) -> Result<Self, SproutError> {
        Self::build_inner(board, net, layer, extra_blockers, false)
    }

    fn build_inner(
        board: &Board,
        net: NetId,
        layer: usize,
        extra_blockers: &[Polygon],
        require_terminals: bool,
    ) -> Result<Self, SproutError> {
        board.net(net)?;
        board.stackup().layer(layer)?;
        let style = BufferStyle::new();

        let mut blockers: Vec<Polygon> = Vec::new();
        let mut terminals: Vec<TerminalShape> = Vec::new();
        for element in board.elements_on_layer(layer) {
            if element.net == Some(net) {
                if element.is_terminal() {
                    terminals.push(TerminalShape {
                        shape: element.shape.clone(),
                        role: element.role,
                    });
                }
                // Same-net geometry never blocks (§II-A, Fig. 4: a net may
                // cross its own buffers).
                continue;
            }
            let clearance = board.clearance_of(element);
            let buffered = buffer_polygon(&element.shape, clearance, style)?;
            blockers.extend(buffered.pieces().iter().cloned());
        }
        for shape in extra_blockers {
            let buffered = buffer_polygon(shape, board.rules().clearance_mm, style)?;
            blockers.extend(buffered.pieces().iter().cloned());
        }

        if require_terminals && terminals.is_empty() {
            return Err(SproutError::NoTerminals { net, layer });
        }

        Ok(SpaceSpec {
            design_space: board.outline(),
            blockers,
            terminals,
        })
    }

    /// `true` if `p` lies in the available space (inside `U`, outside all
    /// buffered blockers).
    pub fn contains_point(&self, p: Point) -> bool {
        self.design_space.contains_point(p) && !self.blockers.iter().any(|b| b.contains_point(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_board::presets;

    #[test]
    fn two_rail_spec_builds() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        // 1 source + 9 sinks.
        assert_eq!(spec.terminals.len(), 10);
        // VDD2 terminals (10) + ground vias (6) + blockage (1) buffered.
        assert!(spec.blockers.len() >= 17);
    }

    #[test]
    fn blockers_exclude_own_net() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        // Every own terminal centroid must lie in available space.
        for t in &spec.terminals {
            assert!(
                spec.contains_point(t.shape.centroid()),
                "own terminal blocked at {}",
                t.shape.centroid()
            );
        }
    }

    #[test]
    fn foreign_terminals_are_blocked() {
        let board = presets::two_rail();
        let mut nets = board.power_nets();
        let (vdd1, _) = nets.next().unwrap();
        let (vdd2, _) = nets.next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        for t in board.terminals(vdd2, presets::TWO_RAIL_ROUTE_LAYER) {
            assert!(
                !spec.contains_point(t.shape.centroid()),
                "foreign terminal should be blocked"
            );
        }
    }

    #[test]
    fn blockage_area_is_unavailable() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        // Centre of the mechanical blockage.
        assert!(!spec.contains_point(Point::new(11.0, 8.0)));
        // Outside the outline.
        assert!(!spec.contains_point(Point::new(-1.0, 8.0)));
        // Open area.
        assert!(spec.contains_point(Point::new(6.0, 5.0)));
    }

    #[test]
    fn extra_blockers_shrink_space() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let claim = Polygon::rectangle(Point::new(5.0, 4.0), Point::new(7.0, 6.0)).unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[claim]).unwrap();
        assert!(!spec.contains_point(Point::new(6.0, 5.0)));
    }

    #[test]
    fn missing_terminals_error() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        // Layer 0 has no VDD1 terminals in this preset.
        assert!(matches!(
            SpaceSpec::build(&board, vdd1, 0, &[]),
            Err(SproutError::NoTerminals { .. })
        ));
    }

    #[test]
    fn unknown_layer_error() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        assert!(matches!(
            SpaceSpec::build(&board, vdd1, 99, &[]),
            Err(SproutError::Board(_))
        ));
    }
}
