//! Persistent tiling sessions — the `tile` stage analogue of the
//! incremental [`NodalSession`](crate::session::NodalSession).
//!
//! [`space_to_graph`](crate::tile::space_to_graph) rebuilds the whole
//! cell lattice from scratch on every call, which made the tiling stage
//! the dominant cost of every benchmark once the solver went
//! incremental. A [`TilingSession`] is constructed once per
//! `(board, layer, pitch)` from a [`SpaceSpec`] and then:
//!
//! * hands out [`RoutingGraph`]s without re-clipping anything
//!   (*reuse*),
//! * absorbs blocker deltas — claimed copper added between waves, a
//!   removed keep-out — by re-clipping only the cells whose rects
//!   intersect the changed geometry (*incremental re-tiling*, the
//!   [`TilingSession::note_blocker_added`] /
//!   [`TilingSession::note_blocker_removed`] mirror of the solver's
//!   `insert`/`remove`),
//! * keeps all scratch (convex clip buffers, cross-section interval
//!   sets, per-blocker convex decompositions) alive across rebuilds so
//!   the steady state allocates nothing, and
//! * splits the initial clip into row bands tiled in parallel. Every
//!   cell is a pure function of its blocker list, so the produced
//!   graphs are bit-identical at any thread count.
//!
//! Blockers are matched against an updated [`SpaceSpec`] by longest
//! common prefix: the spec's blocker list is append-mostly (stable
//! buffered foreign-net geometry followed by monotonically growing
//! claimed copper), so retries and later waves reduce to a handful of
//! appended polygons. Cells find their blockers through a uniform
//! lattice raster of blocker bounds (one `Vec<u32>` of ascending
//! blocker slots per cell) instead of a per-cell spatial-index query.

use crate::graph::{GraphEdge, NodeId, RoutingGraph, TileNode};
use crate::space::SpaceSpec;
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
    /// Threads for the initial parallel clip of row bands; `0` uses
    /// the machine parallelism. Every cell is a pure function of its
    /// blocker list, so any value yields bit-identical graphs.
    pub threads: usize,
}

/// Counters describing how a session served its graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileSessionStats {
    /// Full lattice builds (construction and universe changes).
    pub rebuilds: u64,
    /// Updates served by re-clipping only the delta-touched cells.
    pub incremental_updates: u64,
    /// Updates where the blocker set was unchanged (pure reuse).
    pub reuse_hits: u64,
    /// Cells re-clipped across all incremental updates.
    pub cells_reclipped: u64,
}

/// How [`TilingSession::update_to`] served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileOutcome {
    /// The lattice was rebuilt from scratch.
    Rebuilt,
    /// Only delta-touched cells were re-clipped.
    Patched,
    /// The blocker set was unchanged; nothing was recomputed.
    Reused,
}

/// One blocker polygon with its cached convex decomposition. Slots are
/// tombstoned rather than reused so live slot order always equals
/// insertion order — exactly the order a fresh [`SpaceSpec`] would
/// present the same blockers in — and compacted in that order once the
/// tombstones outnumber the live slots.
#[derive(Debug, Clone)]
struct BlockerSlot {
    poly: Polygon,
    /// Convex parts with their bounds: big blockers (claimed copper from
    /// earlier rails) raster onto many cells, but each cell only has to
    /// subtract the parts whose bounds actually reach it.
    parts: Vec<(Polygon, Rect)>,
    bounds: Rect,
    alive: bool,
}

fn convex_parts_with_bounds(poly: &Polygon) -> Vec<(Polygon, Rect)> {
    convex_parts(poly)
        .into_iter()
        .map(|part| {
            let bounds = part.bounds();
            (part, bounds)
        })
        .collect()
}

/// Clip result of one lattice cell.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Default)]
struct EdgeScratch {
    a: IntervalSet,
    b: IntervalSet,
    overlap: IntervalSet,
    crossings: Vec<f64>,
}

/// A persistent tiling of one `(SpaceSpec, TileOptions)` pair.
#[derive(Debug, Clone)]
pub struct TilingSession {
    opts: TileOptions,
    frame: GridFrame,
    universe: Rect,
    nx: usize,
    ny: usize,
    min_area: f64,
    threads: usize,
    blockers: Vec<BlockerSlot>,
    /// Live slots in spec order (ascending by construction).
    order: Vec<u32>,
    /// Per cell: blocker slots whose bounds raster onto the cell,
    /// ascending.
    cell_blockers: Vec<Vec<u32>>,
    cells: Vec<CellState>,
    /// Contact width between `(i-1, j)` and `(i, j)`; `0` when either
    /// cell has no node.
    west_width: Vec<f64>,
    /// Contact width between `(i, j-1)` and `(i, j)`.
    south_width: Vec<f64>,
    clipper: ConvexClipper,
    xs: EdgeScratch,
    dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
    stats: TileSessionStats,
}

impl TilingSession {
    /// Builds the session (and its initial lattice) from a spec.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidConfig`] for non-positive pitches
    /// or a sliver threshold outside `[0, 1)`.
    pub fn new(spec: &SpaceSpec, opts: TileOptions, threads: usize) -> Result<Self, SproutError> {
        if opts.dx <= 0.0 || opts.dy <= 0.0 {
            return Err(SproutError::InvalidConfig("tile pitch must be positive"));
        }
        if !(0.0..1.0).contains(&opts.min_cell_fraction) {
            return Err(SproutError::InvalidConfig(
                "min_cell_fraction must be in [0, 1)",
            ));
        }
        let u = spec.design_space;
        let nx = (u.width() / opts.dx).ceil() as usize;
        let ny = (u.height() / opts.dy).ceil() as usize;
        let mut session = TilingSession {
            opts,
            frame: GridFrame {
                origin: u.min(),
                dx: opts.dx,
                dy: opts.dy,
            },
            universe: u,
            nx,
            ny,
            min_area: opts.min_cell_fraction * opts.dx * opts.dy,
            threads,
            blockers: Vec::new(),
            order: Vec::new(),
            cell_blockers: vec![Vec::new(); nx * ny],
            cells: vec![CellState::Void; nx * ny],
            west_width: vec![0.0; nx * ny],
            south_width: vec![0.0; nx * ny],
            clipper: ConvexClipper::new(),
            xs: EdgeScratch::default(),
            dirty: Vec::new(),
            dirty_mark: vec![false; nx * ny],
            stats: TileSessionStats::default(),
        };
        session.rebuild_from(spec);
        Ok(session)
    }

    /// Brings the session in sync with `spec`, re-clipping as little as
    /// possible: nothing when the blocker set is unchanged, only the
    /// delta-touched cells when blockers were appended/removed, the
    /// whole lattice when the design space itself changed.
    pub fn update_to(&mut self, spec: &SpaceSpec) -> TileOutcome {
        if spec.design_space != self.universe {
            self.universe = spec.design_space;
            self.frame.origin = self.universe.min();
            self.nx = (self.universe.width() / self.opts.dx).ceil() as usize;
            self.ny = (self.universe.height() / self.opts.dy).ceil() as usize;
            let n = self.nx * self.ny;
            self.cell_blockers = vec![Vec::new(); n];
            self.cells = vec![CellState::Void; n];
            self.west_width = vec![0.0; n];
            self.south_width = vec![0.0; n];
            self.dirty_mark = vec![false; n];
            self.dirty.clear();
            self.rebuild_from(spec);
            return TileOutcome::Rebuilt;
        }
        // Longest common prefix of the live blockers and the spec's.
        let mut common = 0;
        while common < self.order.len()
            && common < spec.blockers.len()
            && self.blockers[self.order[common] as usize].poly == spec.blockers[common]
        {
            common += 1;
        }
        if common == self.order.len() && common == spec.blockers.len() {
            self.stats.reuse_hits += 1;
            return TileOutcome::Reused;
        }
        let mut span = telemetry::span("tile.incremental")
            .field("removed", (self.order.len() - common) as u64)
            .field("added", (spec.blockers.len() - common) as u64)
            .enter();
        for pos in (common..self.order.len()).rev() {
            self.note_blocker_removed(pos);
        }
        for poly in &spec.blockers[common..] {
            self.note_blocker_added(poly.clone());
        }
        let reclipped = self.flush();
        span.record("cells_reclipped", reclipped);
        self.stats.incremental_updates += 1;
        TileOutcome::Patched
    }

    /// Registers one appended blocker polygon; affected cells are
    /// re-clipped lazily at the next [`TilingSession::graph`] call (or
    /// explicitly via `update_to`).
    pub fn note_blocker_added(&mut self, poly: Polygon) {
        let slot = self.blockers.len() as u32;
        let bounds = poly.bounds();
        let parts = convex_parts_with_bounds(&poly);
        self.blockers.push(BlockerSlot {
            poly,
            parts,
            bounds,
            alive: true,
        });
        self.order.push(slot);
        let (i0, i1, j0, j1) = self.raster_range(&bounds);
        for j in j0..=j1 {
            for i in i0..=i1 {
                let idx = j * self.nx + i;
                self.cell_blockers[idx].push(slot);
                if let Some(rect) = self.cell_rect(i, j) {
                    if bounds.intersects(&rect) {
                        self.mark_dirty(idx);
                    }
                }
            }
        }
    }

    /// Removes the blocker at `pos` in live (spec) order; affected
    /// cells are re-clipped lazily, mirroring `note_blocker_added`.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is out of range of the live blocker list.
    pub fn note_blocker_removed(&mut self, pos: usize) {
        let slot = self.order.remove(pos);
        self.blockers[slot as usize].alive = false;
        let bounds = self.blockers[slot as usize].bounds;
        let (i0, i1, j0, j1) = self.raster_range(&bounds);
        for j in j0..=j1 {
            for i in i0..=i1 {
                let idx = j * self.nx + i;
                self.cell_blockers[idx].retain(|&s| s != slot);
                if let Some(rect) = self.cell_rect(i, j) {
                    if bounds.intersects(&rect) {
                        self.mark_dirty(idx);
                    }
                }
            }
        }
        self.compact_if_sparse();
    }

    /// Drops the tombstoned blocker slots once they outnumber the live
    /// ones, so a long-lived session patched on every job holds memory
    /// for its live blockers only. Live slots are renumbered in spec
    /// order, which keeps every cell's blocker list in the same order:
    /// no cell needs a re-clip.
    fn compact_if_sparse(&mut self) {
        let live = self.order.len();
        if self.blockers.len() - live <= live {
            return;
        }
        let mut renumber = vec![u32::MAX; self.blockers.len()];
        for (new, &old) in self.order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        // `order` is ascending, so the surviving slots keep its order.
        self.blockers.retain(|b| b.alive);
        for list in &mut self.cell_blockers {
            for slot in list.iter_mut() {
                *slot = renumber[*slot as usize];
                debug_assert_ne!(*slot, u32::MAX, "cells list live blockers only");
            }
        }
        for (new, slot) in self.order.iter_mut().enumerate() {
            *slot = new as u32;
        }
    }

    /// The number of live blockers the lattice is clipped against.
    pub fn blocker_count(&self) -> usize {
        self.order.len()
    }

    /// Session counters.
    pub fn stats(&self) -> TileSessionStats {
        self.stats
    }

    /// Assembles the current lattice into a [`RoutingGraph`], flushing
    /// any pending blocker deltas first.
    pub fn graph(&mut self) -> RoutingGraph {
        if !self.dirty.is_empty() {
            let mut span = telemetry::span("tile.incremental").enter();
            let reclipped = self.flush();
            span.record("cells_reclipped", reclipped);
        }
        let mut nodes: Vec<TileNode> = Vec::new();
        let mut cell_node: Vec<Option<u32>> = vec![None; self.nx * self.ny];
        for j in 0..self.ny {
            for i in 0..self.nx {
                let idx = j * self.nx + i;
                let (area, pieces) = match &self.cells[idx] {
                    CellState::Void => continue,
                    CellState::Full => {
                        let rect = self.cell_rect(i, j).expect("full cell has a rect");
                        (rect.area(), None)
                    }
                    CellState::Cut { area, pieces } => {
                        if *area < self.min_area {
                            continue;
                        }
                        (*area, Some(pieces.clone()))
                    }
                };
                let rect = self.cell_rect(i, j).expect("node cell has a rect");
                cell_node[idx] = Some(nodes.len() as u32);
                nodes.push(TileNode {
                    cell: (i as i64, j as i64),
                    rect,
                    area_mm2: area,
                    pieces,
                });
            }
        }
        let mut edges: Vec<GraphEdge> = Vec::new();
        for j in 0..self.ny {
            for i in 0..self.nx {
                let idx = j * self.nx + i;
                let Some(here) = cell_node[idx] else { continue };
                if i > 0 {
                    if let Some(west) = cell_node[idx - 1] {
                        let width = self.west_width[idx];
                        if width > 1e-9 {
                            edges.push(GraphEdge {
                                a: NodeId(west),
                                b: NodeId(here),
                                weight: width / self.opts.dx,
                            });
                        }
                    }
                }
                if j > 0 {
                    if let Some(south) = cell_node[idx - self.nx] {
                        let width = self.south_width[idx];
                        if width > 1e-9 {
                            edges.push(GraphEdge {
                                a: NodeId(south),
                                b: NodeId(here),
                                weight: width / self.opts.dy,
                            });
                        }
                    }
                }
            }
        }
        RoutingGraph::assemble(self.frame, nodes, edges)
    }

    /// Full rebuild: reload blockers from the spec and clip every cell.
    fn rebuild_from(&mut self, spec: &SpaceSpec) {
        self.blockers.clear();
        self.order.clear();
        for list in &mut self.cell_blockers {
            list.clear();
        }
        for (slot, poly) in spec.blockers.iter().enumerate() {
            let bounds = poly.bounds();
            self.blockers.push(BlockerSlot {
                poly: poly.clone(),
                parts: convex_parts_with_bounds(poly),
                bounds,
                alive: true,
            });
            self.order.push(slot as u32);
            let (i0, i1, j0, j1) = self.raster_range(&bounds);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    self.cell_blockers[j * self.nx + i].push(slot as u32);
                }
            }
        }
        for idx in self.dirty.drain(..) {
            self.dirty_mark[idx as usize] = false;
        }
        self.build_all();
        self.stats.rebuilds += 1;
    }

    /// Clips every cell and computes every contact width, in parallel
    /// row bands. Bit-identical at any thread count: each cell is a
    /// pure function of its blocker list, and each band writes a
    /// disjoint slice.
    fn build_all(&mut self) {
        let threads = effective_threads(self.threads).min(self.ny.max(1));
        let geo = CellGeometry {
            universe: self.universe,
            origin: self.frame.origin,
            dx: self.opts.dx,
            dy: self.opts.dy,
            nx: self.nx,
            min_area: self.min_area,
        };
        let blockers = &self.blockers;
        let cell_blockers = &self.cell_blockers;

        let mut cells_span = telemetry::span("tile.cells").enter();
        let band_rows = self.ny.div_ceil(threads).max(1);
        if threads <= 1 || self.ny <= 1 {
            let mut clipper = std::mem::take(&mut self.clipper);
            clip_band(
                &geo,
                0,
                &mut self.cells,
                blockers,
                cell_blockers,
                &mut clipper,
            );
            self.clipper = clipper;
        } else {
            std::thread::scope(|scope| {
                for (band, chunk) in self.cells.chunks_mut(band_rows * geo.nx).enumerate() {
                    scope.spawn(move || {
                        let mut clipper = ConvexClipper::new();
                        clip_band(
                            &geo,
                            band * band_rows,
                            chunk,
                            blockers,
                            cell_blockers,
                            &mut clipper,
                        );
                    });
                }
            });
        }
        let node_count = (0..self.nx * self.ny)
            .filter(|&idx| has_node(&self.cells[idx], self.min_area))
            .count();
        cells_span.record("nodes", node_count as u64);
        drop(cells_span);

        let mut edges_span = telemetry::span("tile.edges").enter();
        let cells = &self.cells;
        if threads <= 1 || self.ny <= 1 {
            let mut xs = std::mem::take(&mut self.xs);
            width_band(
                &geo,
                0,
                &mut self.west_width,
                &mut self.south_width,
                cells,
                &mut xs,
            );
            self.xs = xs;
        } else {
            std::thread::scope(|scope| {
                let west_bands = self.west_width.chunks_mut(band_rows * geo.nx);
                let south_bands = self.south_width.chunks_mut(band_rows * geo.nx);
                for (band, (wchunk, schunk)) in west_bands.zip(south_bands).enumerate() {
                    scope.spawn(move || {
                        let mut xs = EdgeScratch::default();
                        width_band(&geo, band * band_rows, wchunk, schunk, cells, &mut xs);
                    });
                }
            });
        }
        let edge_count = self
            .west_width
            .iter()
            .chain(self.south_width.iter())
            .filter(|&&w| w > 1e-9)
            .count();
        edges_span.record("edges", edge_count as u64);
    }

    /// Re-clips the dirty cells and patches the touched contact widths.
    /// Returns the number of cells re-clipped.
    fn flush(&mut self) -> u64 {
        let geo = self.geometry();
        let reclipped = self.dirty.len() as u64;
        let mut clipper = std::mem::take(&mut self.clipper);
        for k in 0..self.dirty.len() {
            let idx = self.dirty[k] as usize;
            self.cells[idx] = clip_cell(
                &geo,
                idx % self.nx,
                idx / self.nx,
                &self.cell_blockers[idx],
                &self.blockers,
                &mut clipper,
            );
        }
        self.clipper = clipper;
        // A re-clipped cell can change its node-ness and its contact
        // geometry, so all four of its widths must be refreshed — the
        // east/north ones live on the neighbouring cells.
        let mut xs = std::mem::take(&mut self.xs);
        for k in 0..self.dirty.len() {
            let idx = self.dirty[k] as usize;
            let (i, j) = (idx % self.nx, idx / self.nx);
            self.west_width[idx] = edge_width_west(&geo, i, j, &self.cells, &mut xs);
            self.south_width[idx] = edge_width_south(&geo, i, j, &self.cells, &mut xs);
            if i + 1 < self.nx {
                self.west_width[idx + 1] = edge_width_west(&geo, i + 1, j, &self.cells, &mut xs);
            }
            if j + 1 < self.ny {
                self.south_width[idx + self.nx] =
                    edge_width_south(&geo, i, j + 1, &self.cells, &mut xs);
            }
        }
        self.xs = xs;
        self.stats.cells_reclipped += reclipped;
        for idx in self.dirty.drain(..) {
            self.dirty_mark[idx as usize] = false;
        }
        reclipped
    }

    fn geometry(&self) -> CellGeometry {
        CellGeometry {
            universe: self.universe,
            origin: self.frame.origin,
            dx: self.opts.dx,
            dy: self.opts.dy,
            nx: self.nx,
            min_area: self.min_area,
        }
    }

    fn cell_rect(&self, i: usize, j: usize) -> Option<Rect> {
        self.geometry().cell_rect(i, j)
    }

    fn mark_dirty(&mut self, idx: usize) {
        if !self.dirty_mark[idx] {
            self.dirty_mark[idx] = true;
            self.dirty.push(idx as u32);
        }
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
        let ox = self.frame.origin.x;
        let oy = self.frame.origin.y;
        let i0 = clamp((bounds.min().x - ox) / self.opts.dx - 1.0, self.nx);
        let i1 = clamp((bounds.max().x - ox) / self.opts.dx + 1.0, self.nx);
        let j0 = clamp((bounds.min().y - oy) / self.opts.dy - 1.0, self.ny);
        let j1 = clamp((bounds.max().y - oy) / self.opts.dy + 1.0, self.ny);
        (i0, i1, j0, j1)
    }
}

/// The lattice geometry shared by the clip and edge kernels.
#[derive(Debug, Clone, Copy)]
struct CellGeometry {
    universe: Rect,
    origin: Point,
    dx: f64,
    dy: f64,
    nx: usize,
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
    blockers: &[BlockerSlot],
    clipper: &mut ConvexClipper,
) -> CellState {
    let Some(rect) = geo.cell_rect(i, j) else {
        return CellState::Void;
    };
    let mut touched = false;
    for &slot in slots {
        let b = &blockers[slot as usize];
        if !b.alive || !b.bounds.intersects(&rect) {
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

/// Clips a contiguous band of cells starting at row `j0`.
fn clip_band(
    geo: &CellGeometry,
    j0: usize,
    out: &mut [CellState],
    blockers: &[BlockerSlot],
    cell_blockers: &[Vec<u32>],
    clipper: &mut ConvexClipper,
) {
    let base = j0 * geo.nx;
    for (k, cell) in out.iter_mut().enumerate() {
        let idx = base + k;
        *cell = clip_cell(
            geo,
            idx % geo.nx,
            idx / geo.nx,
            &cell_blockers[idx],
            blockers,
            clipper,
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
/// row `j0` (both width arrays, same band).
fn width_band(
    geo: &CellGeometry,
    j0: usize,
    west: &mut [f64],
    south: &mut [f64],
    cells: &[CellState],
    xs: &mut EdgeScratch,
) {
    let base = j0 * geo.nx;
    for k in 0..west.len() {
        let idx = base + k;
        let (i, j) = (idx % geo.nx, idx / geo.nx);
        west[k] = edge_width_west(geo, i, j, cells, xs);
        south[k] = edge_width_south(geo, i, j, cells, xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::space_to_graph;
    use sprout_board::presets;

    fn graphs_bit_equal(a: &RoutingGraph, b: &RoutingGraph) -> bool {
        a.node_count() == b.node_count()
            && a.edge_count() == b.edge_count()
            && a.nodes().iter().zip(b.nodes()).all(|(x, y)| {
                x.cell == y.cell
                    && x.area_mm2.to_bits() == y.area_mm2.to_bits()
                    && x.pieces.is_some() == y.pieces.is_some()
            })
            && a.edges()
                .iter()
                .zip(b.edges())
                .all(|(x, y)| x.a == y.a && x.b == y.b && x.weight.to_bits() == y.weight.to_bits())
    }

    fn spec_with(extras: &[Polygon]) -> (SpaceSpec, sprout_board::NetId) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, extras).unwrap();
        (spec, vdd1)
    }

    #[test]
    fn session_matches_scratch_on_first_build() {
        let (spec, _) = spec_with(&[]);
        let opts = TileOptions::square(0.4);
        let mut session = TilingSession::new(&spec, opts, 1).unwrap();
        let scratch = space_to_graph(&spec, opts).unwrap();
        assert!(graphs_bit_equal(&session.graph(), &scratch));
        assert_eq!(session.stats().rebuilds, 1);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let (spec, _) = spec_with(&[]);
        let opts = TileOptions::square(0.4);
        let g1 = TilingSession::new(&spec, opts, 1).unwrap().graph();
        for threads in [2, 3, 8] {
            let g = TilingSession::new(&spec, opts, threads).unwrap().graph();
            assert!(graphs_bit_equal(&g1, &g), "threads {threads}");
        }
    }

    #[test]
    fn incremental_add_then_remove_matches_scratch() {
        let opts = TileOptions::square(0.4);
        let (base, _) = spec_with(&[]);
        let mut session = TilingSession::new(&base, opts, 1).unwrap();
        let _ = session.graph();

        let claim = Polygon::rectangle(Point::new(5.0, 4.0), Point::new(8.0, 6.5)).unwrap();
        let (grown, _) = spec_with(std::slice::from_ref(&claim));
        assert_eq!(session.update_to(&grown), TileOutcome::Patched);
        assert!(graphs_bit_equal(
            &session.graph(),
            &space_to_graph(&grown, opts).unwrap()
        ));

        // Remove the claim again: back to the base graph, still patched.
        assert_eq!(session.update_to(&base), TileOutcome::Patched);
        assert!(graphs_bit_equal(
            &session.graph(),
            &space_to_graph(&base, opts).unwrap()
        ));
        assert_eq!(session.stats().rebuilds, 1);
        assert_eq!(session.stats().incremental_updates, 2);
    }

    #[test]
    fn unchanged_spec_is_a_reuse_hit() {
        let (spec, _) = spec_with(&[]);
        let opts = TileOptions::square(0.4);
        let mut session = TilingSession::new(&spec, opts, 1).unwrap();
        assert_eq!(session.update_to(&spec), TileOutcome::Reused);
        assert_eq!(session.stats().reuse_hits, 1);
    }

    #[test]
    fn note_blockers_flush_lazily_through_graph() {
        let (spec, _) = spec_with(&[]);
        let opts = TileOptions::square(0.4);
        let mut session = TilingSession::new(&spec, opts, 1).unwrap();
        let before = session.graph().node_count();
        let wall = Polygon::rectangle(Point::new(2.0, 2.0), Point::new(6.0, 6.0)).unwrap();
        session.note_blocker_added(wall);
        let after = session.graph().node_count();
        assert!(after < before, "{after} vs {before}");
        session.note_blocker_removed(session.blocker_count() - 1);
        assert_eq!(session.graph().node_count(), before);
    }

    #[test]
    fn patched_sessions_compact_their_tombstones() {
        let opts = TileOptions::square(0.4);
        let (base, _) = spec_with(&[]);
        let mut session = TilingSession::new(&base, opts, 1).unwrap();
        let mut grown = base.clone();
        for step in 0..500 {
            if step % 2 == 0 {
                let x = 4.0 + (step % 7) as f64 * 0.45;
                let claim =
                    Polygon::rectangle(Point::new(x, 4.0), Point::new(x + 2.5, 6.5)).unwrap();
                grown = spec_with(std::slice::from_ref(&claim)).0;
                assert_eq!(session.update_to(&grown), TileOutcome::Patched);
            } else {
                assert_eq!(session.update_to(&base), TileOutcome::Patched);
            }
            assert!(
                session.blockers.len() <= 2 * session.blocker_count(),
                "step {step}: {} slots for {} live blockers",
                session.blockers.len(),
                session.blocker_count()
            );
            if step % 50 == 0 || step >= 498 {
                let spec = if step % 2 == 0 { &grown } else { &base };
                assert!(
                    graphs_bit_equal(&session.graph(), &space_to_graph(spec, opts).unwrap()),
                    "step {step}"
                );
            }
        }
        assert_eq!(session.stats().rebuilds, 1);
    }

    #[test]
    fn config_validates() {
        let (spec, _) = spec_with(&[]);
        assert!(TilingSession::new(
            &spec,
            TileOptions {
                dx: -1.0,
                dy: 0.4,
                min_cell_fraction: 0.05
            },
            1
        )
        .is_err());
        assert!(TilingSession::new(
            &spec,
            TileOptions {
                dx: 0.4,
                dy: 0.4,
                min_cell_fraction: 1.0
            },
            1
        )
        .is_err());
    }
}
