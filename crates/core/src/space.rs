//! Available routing space (§II-A, Eq. 1).
//!
//! The available space for net `n` is the design space `U` minus the
//! buffered geometry of every other net: `A_n = U \ ∪_{j≠n} b_j`.
//! Rather than materializing `A_n` as one global polygon, this module
//! prepares the *specification* — the buffered blocker polygons — that
//! the tiling stage (Algorithm 1) consumes cell by cell, which is
//! numerically robust and cache-friendly.
//!
//! The buffered shape `b_j` does not depend on `n`, so a job buffers
//! each source shape once: a [`BlockerStore`] keeps every shape's
//! prepared pieces ([`Blocker`]: the piece, its bounds and its convex
//! parts) for the rest of the job, and every later space of the job —
//! another net on the layer, a later wave, a retry — takes them from
//! there.

use crate::SproutError;
use sprout_board::{Board, ElementRole, NetId};
use sprout_geom::buffer::{buffer_polygon, BufferStyle};
use sprout_geom::triangulate::convex_parts;
use sprout_geom::{Point, Polygon, Rect, EPS};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A terminal shape on the routing layer with its electrical role.
#[derive(Debug, Clone)]
pub struct TerminalShape {
    /// Terminal geometry.
    pub shape: Polygon,
    /// Source / sink / decap role.
    pub role: ElementRole,
}

/// One buffered keep-out piece, prepared for the tiling clip: the
/// polygon, its bounds, and its convex parts with their bounds. Big
/// blockers (claimed copper) raster onto many lattice cells, but each
/// cell subtracts only the parts whose bounds reach it. Clones share
/// one allocation.
#[derive(Clone)]
pub struct Blocker(Arc<Prepared>);

enum Prepared {
    /// A convex piece is its own one part.
    Convex((Polygon, Rect)),
    Concave {
        polygon: Polygon,
        bounds: Rect,
        parts: Vec<(Polygon, Rect)>,
    },
}

impl Blocker {
    /// Prepares `polygon` as a blocker: bounds, convex parts
    /// ([`convex_parts`]) and their bounds.
    pub fn new(polygon: Polygon) -> Blocker {
        let bounds = polygon.bounds();
        Blocker(Arc::new(if polygon.is_convex() {
            Prepared::Convex((polygon, bounds))
        } else {
            let parts = convex_parts(&polygon)
                .into_iter()
                .map(|part| {
                    let bounds = part.bounds();
                    (part, bounds)
                })
                .collect();
            Prepared::Concave {
                polygon,
                bounds,
                parts,
            }
        }))
    }

    /// The buffered piece.
    pub fn polygon(&self) -> &Polygon {
        match &*self.0 {
            Prepared::Convex((polygon, _)) | Prepared::Concave { polygon, .. } => polygon,
        }
    }

    /// The piece's bounds.
    pub fn bounds(&self) -> Rect {
        match &*self.0 {
            Prepared::Convex((_, bounds)) | Prepared::Concave { bounds, .. } => *bounds,
        }
    }

    /// The piece's convex parts, each with its bounds.
    pub fn parts(&self) -> &[(Polygon, Rect)] {
        match &*self.0 {
            Prepared::Convex(part) => std::slice::from_ref(part),
            Prepared::Concave { parts, .. } => parts,
        }
    }

    /// `true` when both are the same piece, bit for bit (a shared
    /// allocation is checked first).
    pub(crate) fn bit_eq(&self, other: &Blocker) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || bits_equal(self.polygon(), other.polygon())
    }
}

impl PartialEq for Blocker {
    fn eq(&self, other: &Blocker) -> bool {
        self.polygon() == other.polygon()
    }
}

impl fmt::Debug for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.polygon().fmt(f)
    }
}

/// FNV-1a over 64-bit words.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes the vertex count and every vertex's bits.
    fn polygon(&mut self, poly: &Polygon) {
        self.mix(poly.vertices().len() as u64);
        for v in poly.vertices() {
            self.mix(v.x.to_bits());
            self.mix(v.y.to_bits());
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// `true` when `a` and `b` have the same vertices, bit for bit.
fn bits_equal(a: &Polygon, b: &Polygon) -> bool {
    let (av, bv) = (a.vertices(), b.vertices());
    av.len() == bv.len()
        && av
            .iter()
            .zip(bv)
            .all(|(u, v)| u.x.to_bits() == v.x.to_bits() && u.y.to_bits() == v.y.to_bits())
}

/// A source shape buffered by one clearance, and its pieces.
struct Stored {
    clearance: u64,
    source: Polygon,
    pieces: Arc<[Blocker]>,
}

type Shapes = HashMap<u64, Vec<Stored>>;

/// One job's prepared blockers, keyed by source shape and clearance,
/// bit for bit. Clones share one store, and it is safe to share across
/// threads.
///
/// A job — one [`Supervisor::run`](crate::supervisor::Supervisor::run),
/// or one [`Router`](crate::router::Router) and its clones — buffers
/// each foreign element and each claimed shape once; every other
/// request for that shape is served the same pieces. A store lives as
/// long as its job and holds only that job's board and claims, so it
/// needs no bound.
#[derive(Clone, Default)]
pub struct BlockerStore {
    shapes: Arc<Mutex<Shapes>>,
}

impl fmt::Debug for BlockerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockerStore")
            .field("shapes", &self.len())
            .finish()
    }
}

/// Blocker pieces a space build buffered itself, and pieces it took
/// from the store.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Buffered {
    pub(crate) fresh: usize,
    pub(crate) served: usize,
}

impl BlockerStore {
    /// An empty store.
    pub fn new() -> BlockerStore {
        BlockerStore::default()
    }

    fn lock(&self) -> MutexGuard<'_, Shapes> {
        self.shapes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Source shapes held, one per distinct (shape, clearance).
    pub(crate) fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Appends the pieces of `shape` buffered by `clearance` to `out`,
    /// buffering it on the first request. The buffering runs outside
    /// the lock; two threads racing on one shape compute the same
    /// pieces, and the first to finish stores them.
    fn extend(
        &self,
        shape: &Polygon,
        clearance: f64,
        out: &mut Vec<Blocker>,
        counts: &mut Buffered,
    ) -> Result<(), SproutError> {
        let clearance = clearance.to_bits();
        let mut key = Fnv::new();
        key.mix(clearance);
        key.polygon(shape);
        let key = key.finish();
        let find = |bucket: &[Stored]| {
            bucket
                .iter()
                .find(|s| s.clearance == clearance && bits_equal(&s.source, shape))
                .map(|s| Arc::clone(&s.pieces))
        };
        let held = self.lock().get(&key).and_then(|b| find(b));
        let pieces = match held {
            Some(pieces) => {
                counts.served += pieces.len();
                pieces
            }
            None => {
                let buffered =
                    buffer_polygon(shape, f64::from_bits(clearance), BufferStyle::new())?;
                let fresh: Arc<[Blocker]> = buffered
                    .pieces()
                    .iter()
                    .cloned()
                    .map(Blocker::new)
                    .collect();
                let mut shapes = self.lock();
                let bucket = shapes.entry(key).or_default();
                match find(bucket) {
                    Some(pieces) => {
                        counts.served += pieces.len();
                        pieces
                    }
                    None => {
                        bucket.push(Stored {
                            clearance,
                            source: shape.clone(),
                            pieces: Arc::clone(&fresh),
                        });
                        counts.fresh += fresh.len();
                        fresh
                    }
                }
            }
        };
        out.extend(pieces.iter().cloned());
        Ok(())
    }
}

/// The available-space specification for one net on one layer.
#[derive(Debug, Clone)]
pub struct SpaceSpec {
    /// The design space `U` (board outline).
    pub design_space: Rect,
    /// Buffered foreign-net geometry (each piece is a keep-out).
    pub blockers: Vec<Blocker>,
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
        let store = BlockerStore::new();
        Self::build_in(&store, board, net, layer, extra_blockers, true).map(|(spec, _)| spec)
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
        let store = BlockerStore::new();
        Self::build_in(&store, board, net, layer, extra_blockers, false).map(|(spec, _)| spec)
    }

    /// The one space build: blockers come from `store` in a fixed order
    /// — the foreign elements in board order, then `extra_blockers` in
    /// the order given — so a store that already holds some of them
    /// yields the same blocker list, bit for bit, as a fresh one.
    pub(crate) fn build_in(
        store: &BlockerStore,
        board: &Board,
        net: NetId,
        layer: usize,
        extra_blockers: &[Polygon],
        require_terminals: bool,
    ) -> Result<(Self, Buffered), SproutError> {
        board.net(net)?;
        board.stackup().layer(layer)?;

        let mut blockers: Vec<Blocker> = Vec::new();
        let mut terminals: Vec<TerminalShape> = Vec::new();
        let mut counts = Buffered::default();
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
            store.extend(&element.shape, clearance, &mut blockers, &mut counts)?;
        }
        for shape in extra_blockers {
            store.extend(
                shape,
                board.rules().clearance_mm,
                &mut blockers,
                &mut counts,
            )?;
        }

        if require_terminals && terminals.is_empty() {
            return Err(SproutError::NoTerminals { net, layer });
        }

        let spec = SpaceSpec {
            design_space: board.outline(),
            blockers,
            terminals,
        };
        Ok((spec, counts))
    }

    /// `true` if `p` lies in the available space (inside `U`, outside all
    /// buffered blockers).
    pub fn contains_point(&self, p: Point) -> bool {
        self.design_space.contains_point(p)
            && !self
                .blockers
                .iter()
                .any(|b| reaches(&b.bounds(), p) && b.polygon().contains_point(p))
    }
}

/// `true` when `p` lies within the bounds of a polygon, padded by the
/// boundary tolerance of [`Polygon::contains_point`] (points within
/// `EPS` times the extent of an edge count as inside), with margin.
fn reaches(bounds: &Rect, p: Point) -> bool {
    let tol = 2.0 * EPS * bounds.width().max(bounds.height()).max(1.0);
    let (lo, hi) = (bounds.min(), bounds.max());
    p.x >= lo.x - tol && p.x <= hi.x + tol && p.y >= lo.y - tol && p.y <= hi.y + tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoutingGraph;
    use crate::router::{Router, RouterConfig};
    use crate::supervisor::{Supervisor, SupervisorConfig};
    use crate::tile::{space_to_graph, TileOptions};
    use crate::tile_session::build_graph;
    use sprout_board::presets;
    use std::collections::HashSet;

    fn quick_config() -> RouterConfig {
        RouterConfig {
            tile_pitch_mm: 0.25,
            grow_iterations: 6,
            refine_iterations: 1,
            reheat: None,
            ..RouterConfig::default()
        }
    }

    /// Six-rail requests on the routing layer at `16 + 1.8·I` mm².
    fn six_rail_requests(board: &Board) -> Vec<(NetId, usize, f64)> {
        board
            .power_nets()
            .map(|(id, net)| {
                (
                    id,
                    presets::TEN_LAYER_ROUTE_LAYER,
                    16.0 + 1.8 * net.current_a,
                )
            })
            .collect()
    }

    /// The shapes a space of `net` on `layer` buffers, in space order:
    /// the foreign elements in board order, then `claims`, each with
    /// its clearance.
    fn sources<'a>(
        board: &'a Board,
        net: NetId,
        layer: usize,
        claims: &'a [Polygon],
    ) -> Vec<(&'a Polygon, f64)> {
        let foreign = board
            .elements_on_layer(layer)
            .filter(|e| e.net != Some(net))
            .map(|e| (&e.shape, board.clearance_of(e)));
        let claimed = claims.iter().map(|c| (c, board.rules().clearance_mm));
        foreign.chain(claimed).collect()
    }

    /// The blockers of that space, buffered from scratch.
    fn oracle(board: &Board, net: NetId, layer: usize, claims: &[Polygon]) -> Vec<Polygon> {
        let mut out = Vec::new();
        for (shape, clearance) in sources(board, net, layer, claims) {
            let buffered = buffer_polygon(shape, clearance, BufferStyle::new()).unwrap();
            out.extend(buffered.pieces().iter().cloned());
        }
        out
    }

    fn key(shape: &Polygon, clearance: f64) -> (u64, Vec<u64>) {
        let bits = shape
            .vertices()
            .iter()
            .flat_map(|v| [v.x.to_bits(), v.y.to_bits()]);
        (clearance.to_bits(), bits.collect())
    }

    fn graphs_bit_equal(a: &RoutingGraph, b: &RoutingGraph) -> bool {
        a.node_count() == b.node_count()
            && a.edge_count() == b.edge_count()
            && a.nodes().iter().zip(b.nodes()).all(|(x, y)| {
                x.cell == y.cell
                    && x.area_mm2.to_bits() == y.area_mm2.to_bits()
                    && x.pieces == y.pieces
            })
            && a.edges()
                .iter()
                .zip(b.edges())
                .all(|(x, y)| x.a == y.a && x.b == y.b && x.weight.to_bits() == y.weight.to_bits())
    }

    /// Builds the space through `store` and checks it against a fresh
    /// buffering: the same pieces bit for bit and in order, each with
    /// [`convex_parts`]' parts, and the same graph.
    fn assert_store_matches_fresh(
        store: &BlockerStore,
        board: &Board,
        net: NetId,
        layer: usize,
        claims: &[Polygon],
        require_terminals: bool,
        step: &str,
    ) -> Buffered {
        let (spec, buffered) =
            SpaceSpec::build_in(store, board, net, layer, claims, require_terminals).unwrap();
        let fresh = oracle(board, net, layer, claims);
        assert_eq!(spec.blockers.len(), fresh.len(), "{step}");
        assert_eq!(buffered.fresh + buffered.served, fresh.len(), "{step}");
        for (k, (b, f)) in spec.blockers.iter().zip(&fresh).enumerate() {
            assert!(bits_equal(b.polygon(), f), "{step}: blocker {k}");
            assert_eq!(b.bounds(), f.bounds(), "{step}: bounds {k}");
            let parts = convex_parts(f);
            assert_eq!(b.parts().len(), parts.len(), "{step}: parts of {k}");
            for ((part, pb), q) in b.parts().iter().zip(&parts) {
                assert!(bits_equal(part, q), "{step}: part of {k}");
                assert_eq!(*pb, q.bounds(), "{step}: part bounds of {k}");
            }
        }
        let opts = TileOptions::square(0.5);
        let fresh: Vec<Blocker> = fresh.into_iter().map(Blocker::new).collect();
        let scratch = build_graph(spec.design_space, &fresh, opts, 1).unwrap();
        let stored = space_to_graph(&spec, opts).unwrap();
        assert!(graphs_bit_equal(&stored, &scratch), "{step}: graph");
        buffered
    }

    #[test]
    fn store_matches_fresh_buffering_bit_for_bit() {
        // Six rails routed in order, each rail's space built through one
        // store as its claims grow, and around each one: the same space
        // again (everything served), no claims, a claim listed twice,
        // and a transit build on a layer with no terminals.
        let board = presets::six_rail();
        let router = Router::new(&board, quick_config());
        let store = BlockerStore::new();
        let mut keys = HashSet::new();
        let mut claims: Vec<Polygon> = Vec::new();
        for (k, (net, layer, budget)) in six_rail_requests(&board).into_iter().enumerate() {
            let check = |claims: &[Polygon], layer: usize, terminals: bool, step: &str| {
                let step = format!("rail {k} {step}");
                assert_store_matches_fresh(&store, &board, net, layer, claims, terminals, &step)
            };
            check(&claims, layer, true, "claims");
            let again = check(&claims, layer, true, "repeat");
            assert_eq!(again.fresh, 0, "rail {k}: a repeated space buffers nothing");
            check(&[], layer, true, "no claims");
            if let Some(first) = claims.first() {
                let mut twice = claims.clone();
                twice.insert(claims.len() / 2, first.clone());
                check(&twice, layer, true, "claim twice");
            }
            check(&claims, 0, false, "transit");
            for (shape, clearance) in sources(&board, net, layer, &claims) {
                keys.insert(key(shape, clearance));
            }
            let routed = router
                .route_net_with(net, layer, budget, &claims, &[])
                .unwrap();
            claims.extend(routed.shape.blocker_polygons());
        }
        assert!(claims.len() > 100, "{} claims", claims.len());
        assert_eq!(store.len(), keys.len(), "one stored shape per distinct key");
    }

    #[test]
    fn each_claim_is_buffered_once_per_job() {
        // One supervisor job over six_rail: every rail's space draws on
        // the job's store, so the pieces the job buffered are exactly
        // the pieces of its distinct (shape, clearance) keys, and every
        // other piece its spaces used was served from the store.
        let board = presets::six_rail();
        let requests = six_rail_requests(&board);
        let report =
            Supervisor::new(&board, quick_config(), SupervisorConfig::sequential()).run(&requests);
        let results = report.into_results().unwrap();
        let mut keys = HashSet::new();
        let (mut distinct_pieces, mut used_pieces) = (0, 0);
        let mut claims: Vec<Polygon> = Vec::new();
        for ((net, layer, _), r) in requests.iter().zip(&results) {
            let mut rail_pieces = 0;
            for (shape, clearance) in sources(&board, *net, *layer, &claims) {
                let pieces = buffer_polygon(shape, clearance, BufferStyle::new())
                    .unwrap()
                    .len();
                rail_pieces += pieces;
                if keys.insert(key(shape, clearance)) {
                    distinct_pieces += pieces;
                }
            }
            let timings = &r.timings;
            assert_eq!(timings.space_buffered + timings.space_served, rail_pieces);
            used_pieces += rail_pieces;
            claims.extend(r.shape.blocker_polygons());
        }
        let buffered: usize = results.iter().map(|r| r.timings.space_buffered).sum();
        let served: usize = results.iter().map(|r| r.timings.space_served).sum();
        assert_eq!(buffered, distinct_pieces, "{} distinct keys", keys.len());
        assert_eq!(buffered + served, used_pieces);
        assert!(served > buffered, "later rails reuse earlier claims");
    }

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
