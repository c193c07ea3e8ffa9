//! The one-shot tiling build — Algorithm 1's clip kernel.
//!
//! [`build_graph`] tiles one available space `A_n` (Eq. 1) into its
//! [`RoutingGraph`]: it clips every lattice cell against the blockers
//! that reach it, measures every contact width, and moves the clipped
//! pieces into the graph. It keeps no state between calls. A graph
//! depends only on the design space, the blockers and the tile options,
//! so reuse is the [`TileCache`](crate::tile_cache::TileCache)'s job: it
//! keys finished graphs by that exact space.
//!
//! * Each blocker arrives prepared ([`Blocker`]): its bounds and its
//!   convex parts were computed once, when the job's store buffered it,
//!   and the clip reads them as they are.
//! * Cells find their blockers through a uniform lattice raster of
//!   blocker bounds (one list of ascending blocker slots per cell)
//!   instead of a per-cell spatial-index query.
//! * Before a touched cell runs the subtraction chain, a cheap gate
//!   tries to prove it empty: one convex part holding all four corners,
//!   or parts that hold every corner and the centre and whose union,
//!   subtracted biggest-first, empties it. Cells buried under claimed
//!   copper reach their covering part only after many others in slot
//!   order, so this skips most of their chain. Only cells the graph
//!   drops anyway take the shortcut; every other cell runs the
//!   ascending-slot chain unchanged.
//! * The clip and the contact widths run on scoped threads that take
//!   short row stripes off a shared cursor, so a band of costly rows
//!   does not hold up the build. Every cell is a pure function of its
//!   blocker list and each stripe writes a disjoint slice, so the graph
//!   is bit-identical at any thread count.

use crate::graph::{GraphEdge, NodeId, RoutingGraph, TileNode};
use crate::space::Blocker;
use crate::tile::TileOptions;
use crate::SproutError;
use sprout_geom::clip::HalfPlane;
use sprout_geom::stitch::GridFrame;
use sprout_geom::{ConvexClipper, IntervalSet, Point, Polygon, PolygonSet, Rect};
use sprout_telemetry as telemetry;
use std::sync::{Mutex, PoisonError};

/// Row stripes per thread in the clip and the contact widths.
const STRIPES_PER_THREAD: usize = 8;

/// Clip result of one lattice cell.
enum CellState {
    /// Degenerate geometry (sliver row/column outside the universe).
    Void,
    /// No blocker touches the cell: the full (outline-clipped) rect.
    Full,
    /// Clipped against blockers; a node iff `area` clears the sliver
    /// threshold.
    Cut { area: f64, pieces: PolygonSet },
}

/// How the clip settled a band's cells, counted per build as the
/// `tile.cells_free`, `tile.cells_empty` and `tile.cells_chained`
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CellCounts {
    /// No blocker part reaches the cell (or it is a degenerate sliver).
    free: u64,
    /// Proven empty by the gate, without the subtraction chain.
    empty: u64,
    /// Clipped by the ascending-slot subtraction chain.
    chained: u64,
}

impl CellCounts {
    fn add(&mut self, other: CellCounts) {
        self.free += other.free;
        self.empty += other.empty;
        self.chained += other.chained;
    }
}

/// Reusable cross-section buffers for the edge pass.
#[derive(Default)]
struct EdgeScratch {
    a: IntervalSet,
    b: IntervalSet,
    overlap: IntervalSet,
    crossings: Vec<f64>,
}

/// Tiles the space `design_space \ ∪ blockers` at `opts` (Algorithm 1),
/// clipping row stripes on up to `threads` threads (`0` = machine
/// parallelism). The clip reads each blocker's prepared convex parts.
/// The graph is bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`SproutError::InvalidConfig`] for non-positive pitches or a
/// sliver threshold outside `[0, 1)`.
pub fn build_graph(
    design_space: Rect,
    blockers: &[Blocker],
    opts: TileOptions,
    threads: usize,
) -> Result<RoutingGraph, SproutError> {
    let Lattice { geo, cell_blockers } = Lattice::new(design_space, blockers, opts)?;
    let (nx, ny) = (geo.nx, geo.ny);
    let threads = crate::resolve_threads(threads).min(ny.max(1));
    // Short row stripes off a shared cursor: a band of buried or
    // blocker-dense rows costs several times a free one, so one
    // contiguous band per thread would leave the others waiting.
    let stripe = (ny / (threads * STRIPES_PER_THREAD)).max(1) * nx.max(1);
    let mut cells_span = telemetry::span("tile.cells").enter();
    let mut cells: Vec<CellState> = Vec::with_capacity(nx * ny);
    cells.resize_with(nx * ny, || CellState::Void);
    let mut counts = CellCounts::default();
    let stripes = cells.chunks_mut(stripe).enumerate();
    for c in deal(stripes, threads, |stripes| {
        let mut clipper = ConvexClipper::new();
        let mut parts = Vec::new();
        let mut counts = CellCounts::default();
        for (s, chunk) in stripes {
            let base = s * stripe;
            for (k, cell) in chunk.iter_mut().enumerate() {
                let idx = base + k;
                *cell = clip_cell(
                    &geo,
                    idx,
                    &cell_blockers[idx],
                    blockers,
                    &mut parts,
                    &mut clipper,
                    &mut counts,
                );
            }
        }
        counts
    }) {
        counts.add(c);
    }
    let node_count = cells.iter().filter(|c| has_node(c, geo.min_area)).count();
    cells_span.record("nodes", node_count as u64);
    cells_span.record("free", counts.free);
    cells_span.record("empty", counts.empty);
    cells_span.record("chained", counts.chained);
    drop(cells_span);
    telemetry::counter!("tile.cells_free", counts.free);
    telemetry::counter!("tile.cells_empty", counts.empty);
    telemetry::counter!("tile.cells_chained", counts.chained);

    let mut edges_span = telemetry::span("tile.edges").enter();
    let mut west = vec![0.0; nx * ny];
    let mut south = vec![0.0; nx * ny];
    let stripes = west
        .chunks_mut(stripe)
        .zip(south.chunks_mut(stripe))
        .enumerate();
    deal(stripes, threads, |stripes| {
        let mut xs = EdgeScratch::default();
        for (s, (west, south)) in stripes {
            let base = s * stripe;
            for (k, (w, so)) in west.iter_mut().zip(south.iter_mut()).enumerate() {
                let idx = base + k;
                let (i, j) = (idx % geo.nx, idx / geo.nx);
                *w = edge_width_west(&geo, i, j, &cells, &mut xs);
                *so = edge_width_south(&geo, i, j, &cells, &mut xs);
            }
        }
    });
    let edge_count = west.iter().chain(&south).filter(|&&w| w > 1e-9).count();
    edges_span.record("edges", edge_count as u64);
    drop(edges_span);

    Ok(assemble(&geo, cells, &west, &south, node_count, edge_count))
}

/// The clip kernel's lattice: its geometry and each cell's ascending
/// list of the blocker slots that reach it.
struct Lattice {
    geo: CellGeometry,
    cell_blockers: Vec<Vec<u32>>,
}

impl Lattice {
    fn new(
        design_space: Rect,
        blockers: &[Blocker],
        opts: TileOptions,
    ) -> Result<Self, SproutError> {
        if opts.dx <= 0.0 || opts.dy <= 0.0 {
            return Err(SproutError::InvalidConfig("tile pitch must be positive"));
        }
        if !(0.0..1.0).contains(&opts.min_cell_fraction) {
            return Err(SproutError::InvalidConfig(
                "min_cell_fraction must be in [0, 1)",
            ));
        }
        let nx = (design_space.width() / opts.dx).ceil() as usize;
        let ny = (design_space.height() / opts.dy).ceil() as usize;
        let geo = CellGeometry {
            universe: design_space,
            origin: design_space.min(),
            dx: opts.dx,
            dy: opts.dy,
            nx,
            ny,
            min_area: opts.min_cell_fraction * opts.dx * opts.dy,
        };
        let mut cell_blockers: Vec<Vec<u32>> = vec![Vec::new(); nx * ny];
        for (slot, b) in blockers.iter().enumerate() {
            let (i0, i1, j0, j1) = geo.raster_range(&b.bounds());
            for j in j0..=j1 {
                for i in i0..=i1 {
                    cell_blockers[j * nx + i].push(slot as u32);
                }
            }
        }
        Ok(Lattice { geo, cell_blockers })
    }
}

/// Turns the clipped lattice into a graph, moving each cut cell's
/// pieces into its node. Nodes are numbered row by row; each cell
/// contributes its west edge, then its south edge.
fn assemble(
    geo: &CellGeometry,
    cells: Vec<CellState>,
    west: &[f64],
    south: &[f64],
    node_count: usize,
    edge_count: usize,
) -> RoutingGraph {
    let nx = geo.nx;
    let mut nodes: Vec<TileNode> = Vec::with_capacity(node_count);
    let mut cell_node: Vec<u32> = vec![u32::MAX; cells.len()];
    for (idx, state) in cells.into_iter().enumerate() {
        let (i, j) = (idx % nx, idx / nx);
        let (area, pieces) = match state {
            CellState::Void => continue,
            CellState::Full => {
                let rect = geo.cell_rect(i, j).expect("full cell has a rect");
                (rect.area(), None)
            }
            CellState::Cut { area, pieces } => {
                if area < geo.min_area {
                    continue;
                }
                (area, Some(pieces))
            }
        };
        cell_node[idx] = nodes.len() as u32;
        nodes.push(TileNode {
            cell: (i as i64, j as i64),
            rect: geo.cell_rect(i, j).expect("node cell has a rect"),
            area_mm2: area,
            pieces,
        });
    }
    // A positive width implies both cells are nodes.
    let mut edges: Vec<GraphEdge> = Vec::with_capacity(edge_count);
    for (idx, &here) in cell_node.iter().enumerate() {
        if west[idx] > 1e-9 {
            edges.push(GraphEdge {
                a: NodeId(cell_node[idx - 1]),
                b: NodeId(here),
                weight: west[idx] / geo.dx,
            });
        }
        if south[idx] > 1e-9 {
            edges.push(GraphEdge {
                a: NodeId(cell_node[idx - nx]),
                b: NodeId(here),
                weight: south[idx] / geo.dy,
            });
        }
    }
    let frame = GridFrame {
        origin: geo.origin,
        dx: geo.dx,
        dy: geo.dy,
    };
    RoutingGraph::assemble(frame, nodes, edges)
}

/// The lattice geometry shared by the clip and edge kernels.
#[derive(Debug, Clone, Copy)]
struct CellGeometry {
    universe: Rect,
    origin: Point,
    dx: f64,
    dy: f64,
    nx: usize,
    ny: usize,
    min_area: f64,
}

impl CellGeometry {
    /// The outline-clipped rect of cell `(i, j)`; `None` for degenerate
    /// sliver rows/columns.
    fn cell_rect(&self, i: usize, j: usize) -> Option<Rect> {
        let x0 = self.origin.x + i as f64 * self.dx;
        let y0 = self.origin.y + j as f64 * self.dy;
        let x1 = (x0 + self.dx).min(self.universe.max().x);
        let y1 = (y0 + self.dy).min(self.universe.max().y);
        if x1 - x0 < 1e-12 || y1 - y0 < 1e-12 {
            return None;
        }
        Some(Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("positive cell extent"))
    }

    /// Lattice index range covered by `bounds`, padded by one cell so
    /// the exact per-cell intersection filter is the only arbiter.
    fn raster_range(&self, bounds: &Rect) -> (usize, usize, usize, usize) {
        let clamp = |v: f64, hi: usize| -> usize {
            if hi == 0 {
                return 0;
            }
            (v.floor().max(0.0) as usize).min(hi - 1)
        };
        let (ox, oy) = (self.origin.x, self.origin.y);
        let i0 = clamp((bounds.min().x - ox) / self.dx - 1.0, self.nx);
        let i1 = clamp((bounds.max().x - ox) / self.dx + 1.0, self.nx);
        let j0 = clamp((bounds.min().y - oy) / self.dy - 1.0, self.ny);
        let j1 = clamp((bounds.max().y - oy) / self.dy + 1.0, self.ny);
        (i0, i1, j0, j1)
    }
}

fn has_node(state: &CellState, min_area: f64) -> bool {
    match state {
        CellState::Void => false,
        CellState::Full => true,
        CellState::Cut { area, .. } => *area >= min_area,
    }
}

/// A cell that no part covers: the gate's answer for an empty cell.
fn empty_cell() -> CellState {
    CellState::Cut {
        area: 0.0,
        pieces: PolygonSet::new(),
    }
}

/// Clips one cell against its (ascending-slot) blocker list, counting
/// how it settled. `parts` is scratch space for the parts whose bounds
/// reach the cell.
///
/// Cells the gate proves empty (one convex part holds all four
/// corners, or [`union_empties`]) skip the chain; the graph drops them
/// anyway, since they have no area. With a zero sliver threshold every
/// clipped cell is a node, so then every touched cell runs the chain.
fn clip_cell<'a>(
    geo: &CellGeometry,
    idx: usize,
    slots: &[u32],
    blockers: &'a [Blocker],
    parts: &mut Vec<&'a (Polygon, Rect)>,
    clipper: &mut ConvexClipper,
    counts: &mut CellCounts,
) -> CellState {
    let Some(rect) = geo.cell_rect(idx % geo.nx, idx / geo.nx) else {
        counts.free += 1;
        return CellState::Void;
    };
    parts.clear();
    for &slot in slots {
        let b = &blockers[slot as usize];
        if b.bounds().intersects(&rect) {
            parts.extend(b.parts().iter().filter(|(_, pb)| pb.intersects(&rect)));
        }
    }
    if parts.is_empty() {
        counts.free += 1;
        return CellState::Full;
    }
    if geo.min_area > 0.0
        && (parts
            .iter()
            .any(|(part, pb)| pb.contains_rect(&rect) && convex_covers_rect(part, &rect))
            || union_empties(&rect, parts, clipper))
    {
        counts.empty += 1;
        return empty_cell();
    }
    counts.chained += 1;
    chain_cell(rect, slots, blockers, clipper)
}

/// Proves a cell empty when no single part holds it: every corner and
/// the centre lie in some part, and subtracting the parts that hold
/// most of those points first empties the cell. The sample test is an
/// ordering heuristic only — the chain emptying the cell is the proof —
/// so it uses a plain orientation test. Cells that become nodes almost
/// always leave a sample point uncovered and return before any
/// subtraction.
fn union_empties(rect: &Rect, parts: &mut [&(Polygon, Rect)], clipper: &mut ConvexClipper) -> bool {
    if parts.len() < 2 {
        return false;
    }
    let (lo, hi) = (rect.min(), rect.max());
    let samples = [
        rect.center(),
        lo,
        Point::new(hi.x, lo.y),
        hi,
        Point::new(lo.x, hi.y),
    ];
    let held = |(part, pb): &(Polygon, Rect)| -> u32 {
        let mut mask = 0;
        for (k, &p) in samples.iter().enumerate() {
            if pb.contains_point(p) && convex_holds(part, p) {
                mask |= 1 << k;
            }
        }
        mask
    };
    let mut union = 0;
    for part in parts.iter() {
        union |= held(part);
    }
    if union != (1 << samples.len()) - 1 {
        return false;
    }
    parts.sort_by_cached_key(|part| std::cmp::Reverse(held(part).count_ones()));
    clipper.reset_ring(&[lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)]);
    for (part, pb) in parts.iter() {
        clipper.subtract_bounded(part, pb);
        if clipper.is_empty() {
            return true;
        }
    }
    false
}

/// The plain clip: subtracts the parts that reach the cell in ascending
/// slot order.
fn chain_cell(
    rect: Rect,
    slots: &[u32],
    blockers: &[Blocker],
    clipper: &mut ConvexClipper,
) -> CellState {
    let mut touched = false;
    for &slot in slots {
        let b = &blockers[slot as usize];
        if !b.bounds().intersects(&rect) {
            continue;
        }
        for (part, part_bounds) in b.parts() {
            if !part_bounds.intersects(&rect) {
                continue;
            }
            // Claimed copper is run-merged full-cell rects on this very
            // lattice, so one part covering the whole cell is the common
            // case on later rails — the cell vanishes without any wedge
            // subtraction.
            if part_bounds.contains_rect(&rect) && convex_covers_rect(part, &rect) {
                return empty_cell();
            }
            if !touched {
                let (lo, hi) = (rect.min(), rect.max());
                clipper.reset_ring(&[lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)]);
                touched = true;
            }
            clipper.subtract_bounded(part, part_bounds);
        }
        if touched && clipper.is_empty() {
            break;
        }
    }
    if !touched {
        return CellState::Full;
    }
    let pieces = clipper.finish();
    let area = pieces.area();
    CellState::Cut { area, pieces }
}

/// `true` when `p` lies inside (or on) every edge of the
/// (counter-clockwise) convex `part`.
fn convex_holds(part: &Polygon, p: Point) -> bool {
    let vs = part.vertices();
    let n = vs.len();
    (0..n).all(|i| {
        let (a, b) = (vs[i], vs[(i + 1) % n]);
        (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) >= 0.0
    })
}

/// `true` when the convex `part` fully covers `rect`: every rect corner
/// lies inside every edge half-plane of the (counter-clockwise) part.
fn convex_covers_rect(part: &Polygon, rect: &Rect) -> bool {
    let vs = part.vertices();
    let n = vs.len();
    let corners = [
        rect.min(),
        Point::new(rect.max().x, rect.min().y),
        rect.max(),
        Point::new(rect.min().x, rect.max().y),
    ];
    (0..n).all(|i| {
        let hp = HalfPlane::left_of_edge(vs[i], vs[(i + 1) % n]);
        corners.iter().all(|&c| hp.contains(c))
    })
}

/// Cross-section of a cell at the vertical line `x`, into `out`.
fn cell_cross_x(
    geo: &CellGeometry,
    i: usize,
    j: usize,
    state: &CellState,
    x: f64,
    xs_crossings: &mut Vec<f64>,
    out: &mut IntervalSet,
) {
    match state {
        CellState::Void => out.clear(),
        CellState::Full => {
            out.clear();
            let rect = geo.cell_rect(i, j).expect("full cell has a rect");
            if x >= rect.min().x && x <= rect.max().x {
                out.insert(rect.min().y, rect.max().y);
            }
        }
        CellState::Cut { pieces, .. } => pieces.cross_section_x_into(x, xs_crossings, out),
    }
}

/// Cross-section of a cell at the horizontal line `y`, into `out`.
fn cell_cross_y(
    geo: &CellGeometry,
    i: usize,
    j: usize,
    state: &CellState,
    y: f64,
    xs_crossings: &mut Vec<f64>,
    out: &mut IntervalSet,
) {
    match state {
        CellState::Void => out.clear(),
        CellState::Full => {
            out.clear();
            let rect = geo.cell_rect(i, j).expect("full cell has a rect");
            if y >= rect.min().y && y <= rect.max().y {
                out.insert(rect.min().x, rect.max().x);
            }
        }
        CellState::Cut { pieces, .. } => pieces.cross_section_y_into(y, xs_crossings, out),
    }
}

/// Contact width between `(i-1, j)` and `(i, j)`; `0` when either cell
/// has no node. The contact is measured by intersecting cross-sections
/// taken a hair inside each tile, which sidesteps collinear-boundary
/// degeneracies.
fn edge_width_west(
    geo: &CellGeometry,
    i: usize,
    j: usize,
    cells: &[CellState],
    xs: &mut EdgeScratch,
) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let idx = j * geo.nx + i;
    let (a, b) = (&cells[idx - 1], &cells[idx]);
    if !has_node(a, geo.min_area) || !has_node(b, geo.min_area) {
        return 0.0;
    }
    let delta = 1e-4 * geo.dx.min(geo.dy);
    let x_shared = geo.origin.x + i as f64 * geo.dx;
    cell_cross_x(
        geo,
        i - 1,
        j,
        a,
        x_shared - delta,
        &mut xs.crossings,
        &mut xs.a,
    );
    cell_cross_x(geo, i, j, b, x_shared + delta, &mut xs.crossings, &mut xs.b);
    xs.a.intersect_into(&xs.b, &mut xs.overlap);
    xs.overlap.total_length()
}

/// Contact width between `(i, j-1)` and `(i, j)`.
fn edge_width_south(
    geo: &CellGeometry,
    i: usize,
    j: usize,
    cells: &[CellState],
    xs: &mut EdgeScratch,
) -> f64 {
    if j == 0 {
        return 0.0;
    }
    let idx = j * geo.nx + i;
    let (a, b) = (&cells[idx - geo.nx], &cells[idx]);
    if !has_node(a, geo.min_area) || !has_node(b, geo.min_area) {
        return 0.0;
    }
    let delta = 1e-4 * geo.dx.min(geo.dy);
    let y_shared = geo.origin.y + j as f64 * geo.dy;
    cell_cross_y(
        geo,
        i,
        j - 1,
        a,
        y_shared - delta,
        &mut xs.crossings,
        &mut xs.a,
    );
    cell_cross_y(geo, i, j, b, y_shared + delta, &mut xs.crossings, &mut xs.b);
    xs.a.intersect_into(&xs.b, &mut xs.overlap);
    xs.overlap.total_length()
}

/// Runs `work` on `threads` threads (the caller's included), each
/// pulling the next item off one shared cursor, and returns each
/// thread's result. With one thread, `work` takes every item in order
/// on the caller.
fn deal<I, R>(
    items: I,
    threads: usize,
    work: impl Fn(&mut dyn Iterator<Item = I::Item>) -> R + Sync,
) -> Vec<R>
where
    I: Iterator + Send,
    R: Send,
{
    if threads <= 1 {
        let mut items = items;
        return vec![work(&mut items)];
    }
    let cursor = Mutex::new(items);
    let pull =
        || std::iter::from_fn(|| cursor.lock().unwrap_or_else(PoisonError::into_inner).next());
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| work(&mut pull())))
            .collect();
        let mut out = vec![work(&mut pull())];
        out.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("tiling stripe panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceSpec;
    use crate::tile::space_to_graph;
    use crate::tile_cache::{TileCache, TileOutcome};
    use sprout_board::presets;

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

    fn spec() -> SpaceSpec {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap()
    }

    fn build(spec: &SpaceSpec, opts: TileOptions, threads: usize) -> RoutingGraph {
        build_graph(spec.design_space, &spec.blockers, opts, threads).unwrap()
    }

    #[test]
    fn session_matches_scratch_on_first_build() {
        let spec = spec();
        let opts = TileOptions::square(0.4);
        let scratch = space_to_graph(&spec, opts).unwrap();
        assert!(graphs_bit_equal(&build(&spec, opts, 2), &scratch));
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let spec = spec();
        let opts = TileOptions::square(0.4);
        let g1 = build(&spec, opts, 1);
        for threads in [2, 3, 8] {
            let g = build(&spec, opts, threads);
            assert!(graphs_bit_equal(&g1, &g), "threads {threads}");
        }
    }

    #[test]
    fn unchanged_spec_is_a_reuse_hit() {
        let cache = TileCache::new();
        let shared = cache.clone();
        let spec = spec();
        let opts = TileOptions::square(0.4);
        let (first, outcome) = cache.graph(&spec, opts, 1).unwrap();
        assert_eq!(outcome, TileOutcome::Rebuilt);
        let (again, outcome) = shared.graph(&spec.clone(), opts, 2).unwrap();
        assert_eq!(outcome, TileOutcome::Reused);
        assert!(
            std::sync::Arc::ptr_eq(&first, &again),
            "clones share one store"
        );
        assert_eq!(cache.len(), 1);
    }

    /// Dense overlapping discs (buffered vias) and stacked claimed-copper
    /// runs on a 0.25 mm lattice. Two runs of a stack meet half-way
    /// through a row, so that row's cells are covered only by the union
    /// of both; overlapping discs cover cells no single disc holds.
    fn hostile_space(seed: u64) -> (Rect, Vec<Blocker>) {
        let mut rng = sprout_rng::SproutRng::seed_from_u64(seed);
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)).unwrap();
        let mut blockers = Vec::new();
        for _ in 0..140 {
            let c = Point::new(rng.f64_range(0.3, 7.7), rng.f64_range(0.3, 7.7));
            let disc = Polygon::regular(c, rng.f64_range(0.12, 0.55), 24).unwrap();
            blockers.push(Blocker::new(disc));
        }
        let pitch = 0.25;
        for _ in 0..24 {
            let x0 = rng.usize_below(24) as f64 * pitch;
            let x1 = x0 + rng.usize_range(2, 9) as f64 * pitch;
            let y0 = rng.usize_below(26) as f64 * pitch;
            let mid = y0 + 1.5 * pitch;
            for (lo, hi) in [(y0, mid), (mid, mid + 1.5 * pitch)] {
                let run = Rect::new(Point::new(x0, lo), Point::new(x1, hi)).unwrap();
                blockers.push(Blocker::new(run.to_polygon()));
            }
        }
        (space, blockers)
    }

    fn same_cell(a: &CellState, b: &CellState) -> bool {
        match (a, b) {
            (CellState::Void, CellState::Void) | (CellState::Full, CellState::Full) => true,
            (CellState::Cut { area: x, pieces: p }, CellState::Cut { area: y, pieces: q }) => {
                x.to_bits() == y.to_bits() && p == q
            }
            _ => false,
        }
    }

    #[test]
    fn clip_gate_matches_the_plain_chain_on_every_cell() {
        for seed in 1..=3 {
            let (space, blockers) = hostile_space(seed);
            for frac in [0.05, 0.0] {
                let opts = TileOptions {
                    dx: 0.25,
                    dy: 0.25,
                    min_cell_fraction: frac,
                };
                let Lattice { geo, cell_blockers } = Lattice::new(space, &blockers, opts).unwrap();
                let (mut parts, mut clipper, mut plain_clipper) =
                    (Vec::new(), ConvexClipper::new(), ConvexClipper::new());
                let mut counts = CellCounts::default();
                let (mut single, mut union) = (0, 0);
                for (idx, slots) in cell_blockers.iter().enumerate() {
                    let empties = counts.empty;
                    let gated = clip_cell(
                        &geo,
                        idx,
                        slots,
                        &blockers,
                        &mut parts,
                        &mut clipper,
                        &mut counts,
                    );
                    let Some(rect) = geo.cell_rect(idx % geo.nx, idx / geo.nx) else {
                        assert!(matches!(gated, CellState::Void));
                        continue;
                    };
                    let plain = chain_cell(rect, slots, &blockers, &mut plain_clipper);
                    let node = has_node(&plain, geo.min_area);
                    assert_eq!(
                        has_node(&gated, geo.min_area),
                        node,
                        "seed {seed} cell {idx}"
                    );
                    if node {
                        assert!(same_cell(&gated, &plain), "seed {seed} cell {idx}");
                    }
                    if counts.empty > empties {
                        let held = parts
                            .iter()
                            .any(|(p, pb)| pb.contains_rect(&rect) && convex_covers_rect(p, &rect));
                        if held {
                            single += 1;
                        } else {
                            union += 1;
                        }
                    }
                }
                let cells = (geo.nx * geo.ny) as u64;
                assert_eq!(counts.free + counts.empty + counts.chained, cells);
                if frac > 0.0 {
                    assert!(
                        single > 20 && union > 20,
                        "seed {seed}: {single} single, {union} union"
                    );
                } else {
                    // Every clipped cell is a node at a zero threshold:
                    // the gate stays shut.
                    assert_eq!(counts.empty, 0);
                }
            }
        }
    }

    #[test]
    fn config_validates() {
        let spec = spec();
        let bad_pitch = TileOptions {
            dx: -1.0,
            dy: 0.4,
            min_cell_fraction: 0.05,
        };
        let bad_sliver = TileOptions {
            dx: 0.4,
            dy: 0.4,
            min_cell_fraction: 1.0,
        };
        for opts in [bad_pitch, bad_sliver] {
            assert!(build_graph(spec.design_space, &spec.blockers, opts, 1).is_err());
        }
    }
}
