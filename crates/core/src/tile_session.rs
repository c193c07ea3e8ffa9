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
//! * Cells find their blockers through a uniform lattice raster of
//!   blocker bounds (one list of ascending blocker slots per cell)
//!   instead of a per-cell spatial-index query.
//! * The clip and the contact widths run in row bands on scoped
//!   threads. Every cell is a pure function of its blocker list and
//!   each band writes a disjoint slice, so the graph is bit-identical
//!   at any thread count.

use crate::graph::{GraphEdge, NodeId, RoutingGraph, TileNode};
use crate::tile::TileOptions;
use crate::SproutError;
use sprout_geom::clip::HalfPlane;
use sprout_geom::stitch::GridFrame;
use sprout_geom::triangulate::convex_parts;
use sprout_geom::{ConvexClipper, IntervalSet, Point, Polygon, PolygonSet, Rect};
use sprout_telemetry as telemetry;

/// Tiling configuration carried by
/// [`RouterConfig`](crate::router::RouterConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileConfig {
    /// Threads for the banded clip; `0` uses the machine parallelism.
    /// Every cell is a pure function of its blocker list, so any value
    /// yields bit-identical graphs.
    pub threads: usize,
}

/// One blocker polygon's convex parts with their bounds: big blockers
/// (claimed copper from earlier rails) raster onto many cells, but each
/// cell only has to subtract the parts whose bounds actually reach it.
struct Blocker {
    parts: Vec<(Polygon, Rect)>,
    bounds: Rect,
}

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

/// Reusable cross-section buffers for the edge pass.
#[derive(Default)]
struct EdgeScratch {
    a: IntervalSet,
    b: IntervalSet,
    overlap: IntervalSet,
    crossings: Vec<f64>,
}

/// Tiles the space `design_space \ ∪ blockers` at `opts` (Algorithm 1),
/// clipping in row bands on up to `threads` threads (`0` = machine
/// parallelism). The graph is bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`SproutError::InvalidConfig`] for non-positive pitches or a
/// sliver threshold outside `[0, 1)`.
pub fn build_graph(
    design_space: Rect,
    blockers: &[Polygon],
    opts: TileOptions,
    threads: usize,
) -> Result<RoutingGraph, SproutError> {
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
    let blockers: Vec<Blocker> = blockers
        .iter()
        .map(|poly| Blocker {
            parts: convex_parts(poly)
                .into_iter()
                .map(|part| {
                    let bounds = part.bounds();
                    (part, bounds)
                })
                .collect(),
            bounds: poly.bounds(),
        })
        .collect();
    let mut cell_blockers: Vec<Vec<u32>> = vec![Vec::new(); nx * ny];
    for (slot, b) in blockers.iter().enumerate() {
        let (i0, i1, j0, j1) = geo.raster_range(&b.bounds);
        for j in j0..=j1 {
            for i in i0..=i1 {
                cell_blockers[j * nx + i].push(slot as u32);
            }
        }
    }

    let threads = effective_threads(threads).min(ny.max(1));
    let band_cells = (ny.div_ceil(threads).max(1) * nx).max(1);
    let mut cells_span = telemetry::span("tile.cells").enter();
    let mut cells: Vec<CellState> = Vec::with_capacity(nx * ny);
    cells.resize_with(nx * ny, || CellState::Void);
    if threads <= 1 || ny <= 1 {
        clip_band(&geo, 0, &mut cells, &blockers, &cell_blockers);
    } else {
        std::thread::scope(|scope| {
            for (band, chunk) in cells.chunks_mut(band_cells).enumerate() {
                let (geo, blockers, cell_blockers) = (&geo, &blockers, &cell_blockers);
                scope.spawn(move || {
                    clip_band(geo, band * band_cells, chunk, blockers, cell_blockers);
                });
            }
        });
    }
    let node_count = cells.iter().filter(|c| has_node(c, geo.min_area)).count();
    cells_span.record("nodes", node_count as u64);
    drop(cells_span);

    let mut edges_span = telemetry::span("tile.edges").enter();
    let mut west = vec![0.0; nx * ny];
    let mut south = vec![0.0; nx * ny];
    if threads <= 1 || ny <= 1 {
        width_band(&geo, 0, &mut west, &mut south, &cells);
    } else {
        std::thread::scope(|scope| {
            let bands = west
                .chunks_mut(band_cells)
                .zip(south.chunks_mut(band_cells));
            for (band, (wchunk, schunk)) in bands.enumerate() {
                let (geo, cells) = (&geo, &cells);
                scope.spawn(move || width_band(geo, band * band_cells, wchunk, schunk, cells));
            }
        });
    }
    let edge_count = west.iter().chain(&south).filter(|&&w| w > 1e-9).count();
    edges_span.record("edges", edge_count as u64);
    drop(edges_span);

    Ok(assemble(&geo, cells, &west, &south, node_count, edge_count))
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

fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        crate::available_threads()
    } else {
        threads
    }
}

fn has_node(state: &CellState, min_area: f64) -> bool {
    match state {
        CellState::Void => false,
        CellState::Full => true,
        CellState::Cut { area, .. } => *area >= min_area,
    }
}

/// Clips one cell against its (ascending-slot) blocker list.
fn clip_cell(
    geo: &CellGeometry,
    i: usize,
    j: usize,
    slots: &[u32],
    blockers: &[Blocker],
    clipper: &mut ConvexClipper,
) -> CellState {
    let Some(rect) = geo.cell_rect(i, j) else {
        return CellState::Void;
    };
    let mut touched = false;
    for &slot in slots {
        let b = &blockers[slot as usize];
        if !b.bounds.intersects(&rect) {
            continue;
        }
        for (part, part_bounds) in &b.parts {
            if !part_bounds.intersects(&rect) {
                continue;
            }
            // Claimed copper is run-merged full-cell rects on this very
            // lattice, so one part covering the whole cell is the common
            // case on later rails — the cell vanishes without any wedge
            // subtraction.
            if part_bounds.contains_rect(&rect) && convex_covers_rect(part, &rect) {
                return CellState::Cut {
                    area: 0.0,
                    pieces: PolygonSet::new(),
                };
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

/// Clips a contiguous band of cells starting at lattice index `base`.
fn clip_band(
    geo: &CellGeometry,
    base: usize,
    out: &mut [CellState],
    blockers: &[Blocker],
    cell_blockers: &[Vec<u32>],
) {
    let mut clipper = ConvexClipper::new();
    for (k, cell) in out.iter_mut().enumerate() {
        let idx = base + k;
        *cell = clip_cell(
            geo,
            idx % geo.nx,
            idx / geo.nx,
            &cell_blockers[idx],
            blockers,
            &mut clipper,
        );
    }
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

/// Computes contact widths for a contiguous band of cells starting at
/// lattice index `base` (both width arrays, same band).
fn width_band(
    geo: &CellGeometry,
    base: usize,
    west: &mut [f64],
    south: &mut [f64],
    cells: &[CellState],
) {
    let mut xs = EdgeScratch::default();
    for k in 0..west.len() {
        let idx = base + k;
        let (i, j) = (idx % geo.nx, idx / geo.nx);
        west[k] = edge_width_west(geo, i, j, cells, &mut xs);
        south[k] = edge_width_south(geo, i, j, cells, &mut xs);
    }
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
