//! End-to-end routing pipeline (Fig. 3 of the paper).
//!
//! `Router` wires the stages together — available space, tiling, seed,
//! SmartGrow, SmartRefine, reheating, back conversion — with per-stage
//! wall-clock telemetry reproducing the §II-H runtime breakdown, and
//! tracks the best subgraph seen so a wandering refinement never ships a
//! worse result than it already had.
//!
//! Every stage runs under a [`StageGuard`]: the per-stage wall-clock
//! cap from [`RecoveryConfig`] is checked between steps. A failed
//! optimization stage has one response: the subgraph reverts to the
//! best fully evaluated one and the pipeline carries on. Whatever the
//! router absorbs (solver fallbacks, sanitized conductances, reverted
//! stages, dropped sliver fragments) is recorded in the
//! [`RouteDiagnostics`] attached to the [`RouteResult`], so degraded
//! routes are always distinguishable from clean ones. Seed-stage
//! failures still propagate: with no subgraph yet, there is nothing to
//! degrade to.

use crate::backconv::{back_convert, RoutedShape};
use crate::current::{injection_pairs, InjectionPair, PairPolicy};
use crate::graph::{NodeId, RoutingGraph, Subgraph};
use crate::grow::smart_grow;
use crate::recovery::{self, Degradation, RecoveryConfig, RouteDiagnostics, Stage, StageGuard};
use crate::refine::smart_refine;
use crate::reheat::{reheat, ReheatConfig};
use crate::seed::{seed_subgraph, SeedOptions};
use crate::session::NodalSession;
use crate::space::{BlockerStore, Buffered, SpaceSpec, TerminalShape};
use crate::tile::{identify_terminals, Terminal, TileOptions};
use crate::tile_cache::{TileCache, TileOutcome};
use crate::SproutError;
use sprout_board::{Board, ElementRole, NetId};
use sprout_geom::{Point, Polygon};
use sprout_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Router configuration (the paper's design variables of §II-H).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Tile pitch Δx = Δy (mm). Finer tiles give smoother shapes and
    /// lower resistance at more runtime (Eq. 14).
    pub tile_pitch_mm: f64,
    /// Sliver threshold for irregular cells.
    pub min_cell_fraction: f64,
    /// Target number of SmartGrow iterations (sets ΔV ≈ budget / this).
    pub grow_iterations: usize,
    /// SmartRefine iterations after growth.
    pub refine_iterations: usize,
    /// Nodes moved per refinement iteration (`None` → half the grow
    /// step, decreasing over iterations per §II-E's guidance).
    pub refine_step: Option<usize>,
    /// Reheating parameters (`None` disables §II-F).
    pub reheat: Option<ReheatConfig>,
    /// Terminal-pair enumeration policy for Algorithm 3.
    pub pair_policy: PairPolicy,
    /// Seed options (void filling).
    pub seed: SeedOptions,
    /// Per-stage wall-clock cap and (test-only) fault injection.
    pub recovery: RecoveryConfig,
    /// Threads for the tiling clip and for each metric evaluation's
    /// solve and reduction; `0` uses the machine's parallelism. Graphs,
    /// metrics and routes are bit-identical at every value.
    pub threads: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            tile_pitch_mm: 0.4,
            min_cell_fraction: 0.05,
            grow_iterations: 20,
            refine_iterations: 6,
            refine_step: None,
            reheat: Some(ReheatConfig::default()),
            pair_policy: PairPolicy::SourceToSinks,
            seed: SeedOptions { fill_voids: true },
            recovery: RecoveryConfig::default(),
            threads: 0,
        }
    }
}

/// Wall-clock telemetry per pipeline stage (ms), reproducing §II-H.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Available-space computation.
    pub space_ms: f64,
    /// Tiling / graph construction (Algorithm 1).
    pub tile_ms: f64,
    /// Seed construction (Algorithm 2).
    pub seed_ms: f64,
    /// SmartGrow (Algorithm 4).
    pub grow_ms: f64,
    /// SmartRefine (Algorithm 5).
    pub refine_ms: f64,
    /// Reheating (§II-F).
    pub reheat_ms: f64,
    /// Back conversion (§II-G).
    pub backconv_ms: f64,
    /// Linear solves performed (the §II-H bottleneck counter).
    pub solves: usize,
    /// Full Cholesky factorizations computed (each a from-scratch
    /// symbolic + numeric factor of the grounded Laplacian).
    pub factorizations: usize,
    /// Metric evaluations served without a full factorization —
    /// verbatim factor reuses and numeric-only refactorizations on a
    /// cached elimination plan.
    pub factor_updates: usize,
    /// Routing graphs built from scratch (full lattice clip).
    pub tile_rebuilds: usize,
    /// Routing graphs shared from a [`TileCache`]: the identical space
    /// was tiled before.
    pub tile_reuses: usize,
    /// Blocker pieces the space stage buffered itself: each source
    /// shape is buffered once per job.
    pub space_buffered: usize,
    /// Blocker pieces the space stage took from the job's
    /// [`BlockerStore`], buffered by an earlier space of the job.
    pub space_served: usize,
}

impl StageTimings {
    /// Total wall-clock time (ms).
    pub fn total_ms(&self) -> f64 {
        self.space_ms
            + self.tile_ms
            + self.seed_ms
            + self.grow_ms
            + self.refine_ms
            + self.reheat_ms
            + self.backconv_ms
    }

    /// Fraction of the total spent in the metric/solve-heavy stages
    /// (grow + refine + reheat) — the paper reports ≈90 %.
    pub fn solve_stage_fraction(&self) -> f64 {
        let t = self.total_ms();
        if t <= 0.0 {
            return 0.0;
        }
        (self.grow_ms + self.refine_ms + self.reheat_ms) / t
    }
}

/// The output of routing one net on one layer.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// The routed net.
    pub net: NetId,
    /// The routing layer.
    pub layer: usize,
    /// The synthesized shape.
    pub shape: RoutedShape,
    /// The routing graph (kept for extraction: its induced subgraph *is*
    /// the electrical mesh). Routes of one space share it.
    pub graph: Arc<RoutingGraph>,
    /// The final subgraph.
    pub subgraph: Subgraph,
    /// Terminals mapped onto the graph.
    pub terminals: Vec<Terminal>,
    /// Injection pairs used for the node-current metric.
    pub pairs: Vec<InjectionPair>,
    /// Objective (squares) after each optimization step.
    pub resistance_history_sq: Vec<f64>,
    /// Final objective in squares (multiply by sheet resistance for Ω).
    /// `f64::INFINITY` when no evaluation succeeded (see `diagnostics`).
    pub final_resistance_sq: f64,
    /// Per-stage telemetry.
    pub timings: StageTimings,
    /// Degradations taken while producing this result;
    /// [`RouteDiagnostics::is_clean`] is `true` for an undisturbed run.
    pub diagnostics: RouteDiagnostics,
}

/// The SPROUT router bound to a board.
#[derive(Debug, Clone)]
pub struct Router<'b> {
    board: &'b Board,
    config: RouterConfig,
    /// Finished graphs by exact space, shared across clones of this
    /// router.
    tile_cache: TileCache,
    /// Buffered blockers by source shape, shared across clones of this
    /// router.
    blockers: BlockerStore,
}

impl<'b> Router<'b> {
    /// Creates a router over `board` with `config`, a private tiling
    /// cache and a private blocker store.
    pub fn new(board: &'b Board, config: RouterConfig) -> Self {
        Router::with_caches(board, config, TileCache::new(), BlockerStore::new())
    }

    /// Creates a router that tiles through `cache`, which may hold
    /// graphs of other boards (a graph is keyed by its exact space), and
    /// buffers blockers through `blockers`. The supervisor builds one
    /// router per attempt over the job's store and the job's cache (or
    /// its executor's), so retries, later waves and repeat boards share
    /// the blockers and graphs already built.
    pub(crate) fn with_caches(
        board: &'b Board,
        config: RouterConfig,
        cache: TileCache,
        blockers: BlockerStore,
    ) -> Self {
        Router {
            board,
            config,
            tile_cache: cache,
            blockers,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The board this router is bound to.
    pub fn board(&self) -> &'b Board {
        self.board
    }

    /// The space stage of both routing paths: the space of `net` on
    /// `layer` from this router's blocker store, with a pitch-sized pad
    /// for each of `extra_terminals`. Transit layers (multilayer
    /// routing) may have no board terminals of their own — the via
    /// landing points in `extra_terminals` stand in.
    fn space(
        &self,
        net: NetId,
        layer: usize,
        extra_blockers: &[Polygon],
        extra_terminals: &[(Point, ElementRole)],
    ) -> Result<(SpaceSpec, Buffered), SproutError> {
        let (mut spec, buffered) = SpaceSpec::build_in(
            &self.blockers,
            self.board,
            net,
            layer,
            extra_blockers,
            extra_terminals.is_empty(),
        )?;
        let pad = self.config.tile_pitch_mm;
        for &(p, role) in extra_terminals {
            spec.terminals.push(TerminalShape {
                shape: Polygon::rectangle(
                    Point::new(p.x - pad / 2.0, p.y - pad / 2.0),
                    Point::new(p.x + pad / 2.0, p.y + pad / 2.0),
                )?,
                role,
            });
        }
        if spec.terminals.is_empty() {
            return Err(SproutError::NoTerminals { net, layer });
        }
        Ok((spec, buffered))
    }

    /// The graph of `spec` at `opts` from this router's cache.
    pub(crate) fn cached_graph(
        &self,
        spec: &SpaceSpec,
        opts: TileOptions,
    ) -> Result<(Arc<RoutingGraph>, TileOutcome), SproutError> {
        self.tile_cache.graph(spec, opts, self.config.threads)
    }

    /// The tile stage of both routing paths: the graph for `spec` at the
    /// configured pitch. This is the one place a tiling outcome is
    /// counted: in `timings`, in the `tile.rebuilds` / `tile.reuse_hits`
    /// counters, and as the `outcome` field of the `tile` span.
    fn tiled_graph(
        &self,
        spec: &SpaceSpec,
        timings: &mut StageTimings,
    ) -> Result<Arc<RoutingGraph>, SproutError> {
        let t = Instant::now();
        let mut span = telemetry::span("tile")
            .field("pitch_mm", self.config.tile_pitch_mm)
            .enter();
        let opts = TileOptions {
            dx: self.config.tile_pitch_mm,
            dy: self.config.tile_pitch_mm,
            min_cell_fraction: self.config.min_cell_fraction,
        };
        let (graph, outcome) = self.cached_graph(spec, opts)?;
        match outcome {
            TileOutcome::Rebuilt => {
                telemetry::counter!("tile.rebuilds");
                timings.tile_rebuilds += 1;
                span.record("outcome", "rebuilt");
            }
            TileOutcome::Reused => {
                telemetry::counter!("tile.reuse_hits");
                timings.tile_reuses += 1;
                span.record("outcome", "reused");
            }
        }
        span.record("nodes", graph.node_count());
        span.record("edges", graph.edge_count());
        drop(span);
        timings.tile_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(graph)
    }

    /// Routes one net on one layer under an area budget (mm²).
    ///
    /// # Errors
    ///
    /// See [`Router::route_net_with`].
    pub fn route_net(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
    ) -> Result<RouteResult, SproutError> {
        self.route_net_with(net, layer, area_budget_mm2, &[], &[])
    }

    /// The steps both single-layer paths take before optimizing:
    /// validation, the entry cancel check, the `route` span (returned,
    /// so it stays open over the optimization), available space,
    /// tiling and terminal identification. The returned timings carry
    /// the space and tile stages.
    #[allow(clippy::type_complexity)]
    fn prelude(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
        extra_blockers: &[Polygon],
        extra_terminals: &[(Point, ElementRole)],
    ) -> Result<
        (
            telemetry::SpanGuard,
            Arc<RoutingGraph>,
            Vec<Terminal>,
            StageTimings,
        ),
        SproutError,
    > {
        if self.config.tile_pitch_mm <= 0.0 {
            return Err(SproutError::InvalidConfig("tile pitch must be positive"));
        }
        if area_budget_mm2 <= 0.0 {
            return Err(SproutError::InvalidConfig("area budget must be positive"));
        }
        if recovery::cancel_requested() {
            return Err(SproutError::Cancelled);
        }
        let route_span = telemetry::span("route")
            .field("net", net.0 as u64)
            .field("layer", layer)
            .field("budget_mm2", area_budget_mm2)
            .enter();
        let mut timings = StageTimings::default();

        // Stage 1: available space.
        let t = Instant::now();
        let mut space_span = telemetry::span("space").enter();
        let (spec, buffered) = self.space(net, layer, extra_blockers, extra_terminals)?;
        space_span.record("terminals", spec.terminals.len());
        drop(space_span);
        timings.space_ms = t.elapsed().as_secs_f64() * 1e3;
        timings.space_buffered = buffered.fresh;
        timings.space_served = buffered.served;

        // Stage 2: tiling (Algorithm 1).
        let graph = self.tiled_graph(&spec, &mut timings)?;
        let terminals = identify_terminals(&graph, &spec, net)?;
        Ok((route_span, graph, terminals, timings))
    }

    /// Routes one net with extra blockers (shapes of previously routed
    /// nets, §II-G) and extra terminals (via landing points from the
    /// multilayer planner, Algorithm 6).
    ///
    /// # Errors
    ///
    /// * [`SproutError::InvalidConfig`] — bad pitch/budget or fewer than
    ///   two terminals.
    /// * [`SproutError::NoTerminals`] / [`SproutError::TerminalBlocked`]
    ///   — terminal mapping failed.
    /// * [`SproutError::DisjointSpace`] — terminals are unreachable in
    ///   this layer.
    /// * [`SproutError::AreaBudgetTooSmall`] — the budget cannot hold a
    ///   connected seed.
    pub fn route_net_with(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
        extra_blockers: &[Polygon],
        extra_terminals: &[(Point, ElementRole)],
    ) -> Result<RouteResult, SproutError> {
        let (_route_span, graph, terminals, timings) =
            self.prelude(net, layer, area_budget_mm2, extra_blockers, extra_terminals)?;
        if terminals.len() < 2 {
            return Err(SproutError::InvalidConfig(
                "routing needs at least two terminals",
            ));
        }
        let terminal_nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        if !graph.connects(&terminal_nodes) {
            return Err(SproutError::DisjointSpace { net, layer });
        }
        self.optimize_group(graph, terminals, net, layer, area_budget_mm2, timings)
    }

    /// Routes one net on one layer where the available space (and hence
    /// the terminal set) may be split into several connected regions —
    /// the per-layer step of multilayer routing (Appendix: "from source
    /// to via, between vias, and from via to target"). Each region with
    /// at least two terminals is routed independently; the total budget
    /// is split across regions proportionally to their terminal counts.
    /// A region that fails is skipped and named in the other regions'
    /// diagnostics; the call fails only when every region does.
    ///
    /// # Errors
    ///
    /// Same as [`Router::route_net_with`], minus `DisjointSpace` (that
    /// is the expected situation here).
    pub fn route_net_components(
        &self,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
        extra_blockers: &[Polygon],
        extra_terminals: &[(Point, ElementRole)],
    ) -> Result<Vec<RouteResult>, SproutError> {
        let (_route_span, graph, terminals, mut base_timings) =
            self.prelude(net, layer, area_budget_mm2, extra_blockers, extra_terminals)?;

        // Group terminals by connected component of the graph.
        let component = component_labels(&graph);
        let mut groups: std::collections::HashMap<u32, Vec<Terminal>> =
            std::collections::HashMap::new();
        for t in terminals {
            groups.entry(component[t.node.index()]).or_default().push(t);
        }
        let total_terms: usize = groups.values().map(|g| g.len()).sum();
        let mut group_list: Vec<Vec<Terminal>> =
            groups.into_values().filter(|g| g.len() >= 2).collect();
        // Deterministic order: by smallest terminal node id.
        group_list.sort_by_key(|g| g.iter().map(|t| t.node).min());
        let mut results = Vec::with_capacity(group_list.len());
        let mut skipped: Vec<String> = Vec::new();
        let mut first_err: Option<SproutError> = None;
        for group in group_list {
            let share = area_budget_mm2 * group.len() as f64 / total_terms as f64;
            // The shared space and graph builds are attributed to the
            // first group so aggregated reports count them exactly once.
            match self.optimize_group(
                Arc::clone(&graph),
                group,
                net,
                layer,
                share,
                std::mem::take(&mut base_timings),
            ) {
                Ok(result) => results.push(result),
                Err(e) => {
                    // A dead terminal group must not cost the groups
                    // that can still be routed.
                    skipped.push(format!("terminal group skipped: {e}"));
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if results.is_empty() {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        for r in &mut results {
            for w in &skipped {
                r.diagnostics.record(Degradation::GroupSkipped);
                r.diagnostics.warn(w.clone());
            }
        }
        Ok(results)
    }

    /// The optimization pipeline for one connected terminal group:
    /// seed → SmartGrow → SmartRefine → reheat → back conversion.
    ///
    /// Every optimization stage runs under a [`StageGuard`]; a stage
    /// that fails after seeding reverts the subgraph to the best one
    /// evaluated, and the revert is recorded in the result's
    /// [`RouteDiagnostics`]. Seed failures always propagate — without a
    /// connected seed there is nothing to degrade to.
    fn optimize_group(
        &self,
        graph: Arc<RoutingGraph>,
        terminals: Vec<Terminal>,
        net: NetId,
        layer: usize,
        area_budget_mm2: f64,
        mut timings: StageTimings,
    ) -> Result<RouteResult, SproutError> {
        let rec = self.config.recovery;
        let _fault_scope = rec.fault.map(recovery::FaultScope::install);
        let _event_scope = recovery::EventScope::install();
        let mut diagnostics = RouteDiagnostics::default();

        let terminal_nodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        let pairs = self.build_pairs(&terminals, net)?;
        let protected: Vec<NodeId> = terminals
            .iter()
            .flat_map(|t| t.covered.iter().copied())
            .collect();

        // Stage 3: seed (Algorithm 2). A failure here is always fatal.
        let t = Instant::now();
        let mut seed_span = telemetry::span("seed")
            .field("terminals", terminals.len())
            .enter();
        let guard = StageGuard::begin(Stage::Seed, rec.stage_wall_ms);
        let mut sub = seed_subgraph(&graph, &terminals, net, layer, self.config.seed)?;
        seed_span.record("nodes", sub.order());
        drop(seed_span);
        timings.seed_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(d) = guard.over_budget() {
            diagnostics.record(d);
        }
        diagnostics.absorb_events(Stage::Seed);
        if sub.area_mm2() > area_budget_mm2 {
            return Err(SproutError::AreaBudgetTooSmall {
                budget_mm2: area_budget_mm2,
                seed_mm2: sub.area_mm2(),
            });
        }

        let cell_area = self.config.tile_pitch_mm * self.config.tile_pitch_mm;
        let budget_cells = (area_budget_mm2 / cell_area) as usize;
        let grow_step = ((budget_cells.saturating_sub(sub.order()))
            / self.config.grow_iterations.max(1))
        .max(4);

        // Best-seen tracking: the seed is always a valid fallback.
        let mut best_resistance = f64::INFINITY;
        let mut best_sub = sub.clone();
        let mut history: Vec<f64> = Vec::new();

        // One nodal-analysis session spans every optimization stage, so
        // its cached factor survives across grow/refine/reheat
        // iterations (the solves §II-H names as the bottleneck).
        // `best_sub` restores are out-of-band mutations; the session
        // detects and resyncs from them.
        let mut session = NodalSession::with_threads(self.config.threads);

        // Cooperative cancellation (supervisor jobs): checked between
        // pipeline stages so a cancelled rail stops within one stage.
        if recovery::cancel_requested() {
            return Err(SproutError::Cancelled);
        }

        // Stage 4: SmartGrow to the area budget (Algorithm 4), stepwise
        // so the guard can truncate between steps.
        let t = Instant::now();
        let solves_at_grow = timings.solves;
        let mut grow_span = telemetry::span("grow")
            .field("budget_cells", budget_cells)
            .field("step", grow_step)
            .enter();
        let guard = StageGuard::begin(Stage::Grow, rec.stage_wall_ms);
        let frame_cell_area = {
            let f = graph.frame();
            f.dx * f.dy
        };
        let mut stage_err: Option<SproutError> = None;
        let mut grow_iter = 0usize;
        let mut prev_objective = f64::NAN;
        while sub.area_mm2() < area_budget_mm2 {
            if let Some(d) = guard.over_budget() {
                diagnostics.record(d);
                break;
            }
            // Don't overshoot by more than one step: shrink the last batch.
            let remaining = ((area_budget_mm2 - sub.area_mm2()) / frame_cell_area).ceil() as usize;
            let step = grow_step.min(remaining.max(1));
            match smart_grow(&mut session, &graph, &mut sub, &pairs, step) {
                Ok(out) => {
                    history.push(out.resistance_sq);
                    timings.solves += out.solves;
                    telemetry::point("grow_iter")
                        .field("iter", grow_iter)
                        .field("added", out.added)
                        .field("area_mm2", sub.area_mm2())
                        .field("budget_mm2", area_budget_mm2)
                        .field("resistance_sq", out.resistance_sq)
                        .field("objective_delta", prev_objective - out.resistance_sq)
                        .field("max_current_a", out.max_current_a)
                        .emit();
                    prev_objective = out.resistance_sq;
                    grow_iter += 1;
                    if out.added == 0 {
                        break; // saturated: every reachable node is in
                    }
                }
                Err(e) => {
                    stage_err = Some(e);
                    break;
                }
            }
        }
        grow_span.record("nodes", sub.order());
        grow_span.record("solves", timings.solves - solves_at_grow);
        drop(grow_span);
        timings.grow_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(e) = stage_err {
            revert_to_best(Stage::Grow, e, &mut sub, &best_sub, &mut diagnostics);
        }

        // Objective after growth; feeds best-seen tracking.
        match session.eval(&graph, &sub, &pairs) {
            Ok(nc) => {
                timings.solves += nc.solves();
                let r = nc.resistance_sq();
                history.push(r);
                if r < best_resistance {
                    best_resistance = r;
                    best_sub = sub.clone();
                }
                session.recycle(nc);
            }
            Err(e) => diagnostics.warn(format!("post-grow evaluation failed: {e}")),
        }
        diagnostics.absorb_events(Stage::Grow);

        if recovery::cancel_requested() {
            return Err(SproutError::Cancelled);
        }

        // Stage 5: SmartRefine (Algorithm 5) with a decreasing move
        // count (§II-E: fewer moves later yield lower impedance).
        let t = Instant::now();
        let solves_at_refine = timings.solves;
        let mut refine_span = telemetry::span("refine")
            .field("iterations", self.config.refine_iterations)
            .enter();
        let guard = StageGuard::begin(Stage::Refine, rec.stage_wall_ms);
        let base_step = self.config.refine_step.unwrap_or((grow_step / 2).max(2));
        for i in 0..self.config.refine_iterations {
            if let Some(d) = guard.over_budget() {
                diagnostics.record(d);
                break;
            }
            let step = (base_step * (self.config.refine_iterations - i)
                / self.config.refine_iterations)
                .max(1);
            match smart_refine(
                &mut session,
                &graph,
                &mut sub,
                &pairs,
                &protected,
                &terminal_nodes,
                step,
            ) {
                Ok(out) => {
                    timings.solves += out.solves;
                    history.push(out.resistance_after_sq);
                    telemetry::point("refine_iter")
                        .field("iter", i)
                        .field("moved", out.moved)
                        .field("area_mm2", sub.area_mm2())
                        .field("budget_mm2", area_budget_mm2)
                        .field("resistance_sq", out.resistance_after_sq)
                        .field(
                            "objective_delta",
                            out.resistance_before_sq - out.resistance_after_sq,
                        )
                        .field("max_current_a", out.max_current_a)
                        .emit();
                    if out.resistance_after_sq < best_resistance {
                        best_resistance = out.resistance_after_sq;
                        best_sub = sub.clone();
                    }
                    if out.moved == 0 {
                        break;
                    }
                }
                Err(e) => {
                    revert_to_best(Stage::Refine, e, &mut sub, &best_sub, &mut diagnostics);
                    break;
                }
            }
        }
        diagnostics.absorb_events(Stage::Refine);
        refine_span.record("nodes", sub.order());
        refine_span.record("solves", timings.solves - solves_at_refine);
        drop(refine_span);
        timings.refine_ms = t.elapsed().as_secs_f64() * 1e3;

        if recovery::cancel_requested() {
            return Err(SproutError::Cancelled);
        }

        // Stage 6: reheating (§II-F), then a short post-refine.
        if let Some(rh) = self.config.reheat {
            let t = Instant::now();
            let solves_at_reheat = timings.solves;
            let mut reheat_span = telemetry::span("reheat").enter();
            let guard = StageGuard::begin(Stage::Reheat, rec.stage_wall_ms);
            'reheat: {
                if let Some(d) = guard.over_budget() {
                    diagnostics.record(d);
                    break 'reheat;
                }
                // Reheat transiently overshoots the area budget before
                // shrinking back; a failure mid-way reverts to the best
                // evaluated subgraph rather than ship the overshoot.
                match reheat(
                    &mut session,
                    &graph,
                    &mut sub,
                    &pairs,
                    &protected,
                    &terminal_nodes,
                    area_budget_mm2,
                    rh,
                ) {
                    Ok(out) => {
                        timings.solves += out.solves;
                        history.push(out.resistance_after_sq);
                        telemetry::point("reheat_iter")
                            .field("phase", "dilate_erode")
                            .field("dilated", out.dilated)
                            .field("eroded", out.eroded)
                            .field("area_mm2", sub.area_mm2())
                            .field("budget_mm2", area_budget_mm2)
                            .field("resistance_sq", out.resistance_after_sq)
                            .field("max_current_a", out.max_current_a)
                            .emit();
                        if out.resistance_after_sq < best_resistance {
                            best_resistance = out.resistance_after_sq;
                            best_sub = sub.clone();
                        }
                    }
                    Err(e) => {
                        revert_to_best(Stage::Reheat, e, &mut sub, &best_sub, &mut diagnostics);
                        break 'reheat;
                    }
                }
                for post_iter in 0..2 {
                    if let Some(d) = guard.over_budget() {
                        diagnostics.record(d);
                        break;
                    }
                    match smart_refine(
                        &mut session,
                        &graph,
                        &mut sub,
                        &pairs,
                        &protected,
                        &terminal_nodes,
                        4,
                    ) {
                        Ok(out) => {
                            timings.solves += out.solves;
                            history.push(out.resistance_after_sq);
                            telemetry::point("reheat_iter")
                                .field("phase", "post_refine")
                                .field("iter", post_iter as u64)
                                .field("moved", out.moved)
                                .field("area_mm2", sub.area_mm2())
                                .field("budget_mm2", area_budget_mm2)
                                .field("resistance_sq", out.resistance_after_sq)
                                .field(
                                    "objective_delta",
                                    out.resistance_before_sq - out.resistance_after_sq,
                                )
                                .field("max_current_a", out.max_current_a)
                                .emit();
                            if out.resistance_after_sq < best_resistance {
                                best_resistance = out.resistance_after_sq;
                                best_sub = sub.clone();
                            }
                        }
                        Err(e) => {
                            revert_to_best(Stage::Reheat, e, &mut sub, &best_sub, &mut diagnostics);
                            break;
                        }
                    }
                }
            }
            diagnostics.absorb_events(Stage::Reheat);
            reheat_span.record("nodes", sub.order());
            reheat_span.record("solves", timings.solves - solves_at_reheat);
            drop(reheat_span);
            timings.reheat_ms = t.elapsed().as_secs_f64() * 1e3;
        }

        // Factorization accounting from the nodal session (§II-H: full
        // factors are the bottleneck the session avoids).
        let solver_stats = session.stats();
        timings.factorizations = solver_stats.full_factors;
        timings.factor_updates = solver_stats.factor_reuses + solver_stats.numeric_refactors;
        telemetry::counter!("session.plan_ns", solver_stats.plan_ns);
        telemetry::counter!("session.factor_ns", solver_stats.factor_ns);
        telemetry::counter!("session.substitute_ns", solver_stats.substitute_ns);
        telemetry::counter!("session.reduce_ns", solver_stats.reduce_ns);
        telemetry::counter!("session.wait_ns", solver_stats.wait_ns);
        telemetry::counter!("session.split_evals", solver_stats.split_evals as u64);

        // Ship the best subgraph seen, not necessarily the last. When no
        // evaluation ever succeeded the current subgraph (at minimum the
        // connected seed) ships with an infinite objective.
        if best_resistance.is_finite() {
            sub = best_sub;
        } else {
            diagnostics
                .warn("objective was never evaluated; shipping the unscored subgraph".into());
        }

        // Stage 7: back conversion (§II-G), then sliver cleanup.
        let t = Instant::now();
        let mut backconv_span = telemetry::span("backconv")
            .field("nodes", sub.order())
            .enter();
        let mut shape = back_convert(&graph, &sub);
        if recovery::fault_degenerate_polygon() {
            shape.inject_degenerate_fragment(graph.frame().origin);
        }
        let dropped = shape.sanitize(SLIVER_AREA_MM2);
        if dropped > 0 {
            diagnostics.record(Degradation::FragmentsDropped { count: dropped });
        }
        diagnostics.absorb_events(Stage::BackConvert);
        backconv_span.record("area_mm2", shape.area_mm2());
        backconv_span.record("fragments_dropped", dropped);
        drop(backconv_span);
        timings.backconv_ms = t.elapsed().as_secs_f64() * 1e3;

        // Terminal convergence record: `area_mm2` here is the shipped
        // shape's area, byte-identical to `RailRunRecord::area_mm2`.
        telemetry::point("route_final")
            .field("net", net.0 as u64)
            .field("layer", layer)
            .field("area_mm2", shape.area_mm2())
            .field("budget_mm2", area_budget_mm2)
            .field("resistance_sq", best_resistance)
            .field("solves", timings.solves)
            .emit();

        Ok(RouteResult {
            net,
            layer,
            shape,
            graph,
            subgraph: sub,
            terminals,
            pairs,
            resistance_history_sq: history,
            final_resistance_sq: best_resistance,
            timings,
            diagnostics,
        })
    }

    /// Routes several nets on the calling thread with sequential
    /// semantics; each routed shape is removed from the available space
    /// of the *same-layer* nets after it, in request order (§II-G).
    /// Nets on different layers never block each other — layers are
    /// independent copper (see [`crate::supervisor`] for the ordering
    /// guarantee and for concurrent, deadline-bounded, checkpointed
    /// jobs).
    ///
    /// Unlike the pre-supervisor `route_all`, a rail failure no longer
    /// discards the whole job: every rail's outcome — including typed
    /// panic containment — is reported. Use
    /// [`JobReport::into_results`] for the old all-or-first-error shape.
    ///
    /// The job tiles through this router's own cache, so repeated calls
    /// (the prototypes of an exploration sweep) share the graphs earlier
    /// calls built.
    pub fn route_all(&self, requests: &[(NetId, usize, f64)]) -> crate::supervisor::JobReport {
        crate::supervisor::Supervisor::new(
            self.board,
            self.config,
            crate::supervisor::SupervisorConfig::sequential(),
        )
        .with_tile_cache(self.tile_cache.clone())
        .run(requests)
    }

    /// Builds injection pairs; when a terminal set has no source (a
    /// transit layer in multilayer routing), the first terminal stands
    /// in as the source.
    #[doc(hidden)]
    fn build_pairs(
        &self,
        terminals: &[Terminal],
        net: NetId,
    ) -> Result<Vec<InjectionPair>, SproutError> {
        let rail_current = self.board.net(net)?.current_a.max(1e-3);
        let has_source = terminals.iter().any(|t| t.role == ElementRole::Source);
        let pairs = if has_source {
            injection_pairs(terminals, self.config.pair_policy, rail_current)
        } else {
            let mut promoted = terminals.to_vec();
            promoted[0].role = ElementRole::Source;
            injection_pairs(&promoted, self.config.pair_policy, rail_current)
        };
        if pairs.is_empty() {
            return Err(SproutError::InvalidConfig(
                "terminal set yields no injection pairs",
            ));
        }
        Ok(pairs)
    }
}

/// Fragments below this area are numerical noise, never routable copper
/// (the smallest legitimate irregular cell is `min_cell_fraction` of a
/// tile — ~1e-2 mm² at the default configuration, two orders of
/// magnitude above this).
const SLIVER_AREA_MM2: f64 = 1e-4;

/// The router's one response to a failed optimization stage: the
/// error becomes a warning and the subgraph reverts to the best
/// evaluated one.
fn revert_to_best(
    stage: Stage,
    err: SproutError,
    sub: &mut Subgraph,
    best_sub: &Subgraph,
    diagnostics: &mut RouteDiagnostics,
) {
    *sub = best_sub.clone();
    diagnostics.record(Degradation::RevertedToBest { stage });
    diagnostics.warn(format!(
        "{stage} stage failed, reverted to best subgraph: {err}"
    ));
}

/// Connected-component label per node (BFS).
fn component_labels(graph: &RoutingGraph) -> Vec<u32> {
    let n = graph.node_count();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(NodeId(start as u32));
        while let Some(u) = queue.pop_front() {
            for &(v, _) in graph.neighbors(u) {
                if label[v.index()] == u32::MAX {
                    label[v.index()] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc::check_route;
    use sprout_board::presets;
    use std::sync::{Arc, Mutex};

    fn fast_config() -> RouterConfig {
        RouterConfig {
            tile_pitch_mm: 0.5,
            grow_iterations: 10,
            refine_iterations: 3,
            reheat: Some(ReheatConfig {
                dilate_iterations: 1,
                erode_step: 24,
            }),
            ..RouterConfig::default()
        }
    }

    /// Keeps every event recorded on the installing thread.
    #[derive(Default)]
    struct Capture(Mutex<Vec<telemetry::Event>>);

    impl telemetry::Recorder for Capture {
        fn record(&self, event: &telemetry::Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn each_tiling_outcome_is_counted_once() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let layer = presets::TWO_RAIL_ROUTE_LAYER;
        let claim = Polygon::rectangle(Point::new(5.0, 4.0), Point::new(8.0, 6.5)).unwrap();
        let with_claim = || {
            router
                .route_net_with(vdd1, layer, 20.0, std::slice::from_ref(&claim), &[])
                .unwrap()
        };
        let capture = Arc::new(Capture::default());
        let runs = {
            let _scope = telemetry::RecorderScope::install(capture.clone());
            [
                router.route_net(vdd1, layer, 20.0).unwrap(),
                router.route_net(vdd1, layer, 20.0).unwrap(),
                with_claim(),
                with_claim(),
            ]
        };
        let counts: Vec<(usize, usize)> = runs
            .iter()
            .map(|r| (r.timings.tile_rebuilds, r.timings.tile_reuses))
            .collect();
        assert_eq!(counts, [(1, 0), (0, 1), (1, 0), (0, 1)]);
        let outcomes: Vec<String> = capture
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, telemetry::Event::SpanEnd { name: "tile", .. }))
            .map(|e| match e.field("outcome") {
                Some(telemetry::Value::Str(s)) => s.to_string(),
                other => panic!("tile span without an outcome: {other:?}"),
            })
            .collect();
        assert_eq!(outcomes, ["rebuilt", "reused", "rebuilt", "reused"]);
        assert!(Arc::ptr_eq(&runs[0].graph, &runs[1].graph));
        assert!(Arc::ptr_eq(&runs[2].graph, &runs[3].graph));
        assert!(!Arc::ptr_eq(&runs[0].graph, &runs[2].graph));
    }

    /// End-to-end oracle for the nodal session: `two_rail` routed with
    /// every evaluation answered by the scratch evaluator
    /// ([`crate::current::node_current`]) must ship the same bits — the
    /// objective, membership, area and history — at the same number of
    /// evaluations, while the session factors less often.
    #[test]
    fn session_routes_match_the_scratch_oracle_bit_for_bit() {
        let board = presets::two_rail();
        let layer = presets::TWO_RAIL_ROUTE_LAYER;
        let requests: Vec<_> = board
            .power_nets()
            .map(|(net, _)| (net, layer, 20.0))
            .collect();
        let route = || {
            Router::new(&board, fast_config())
                .route_all(&requests)
                .into_results()
                .unwrap()
        };
        let session = route();
        let oracle = crate::session::scratch_oracle(route);
        assert_eq!(session.len(), 2, "two-rail preset routes two rails");
        let history = |r: &RouteResult| -> Vec<u64> {
            r.resistance_history_sq
                .iter()
                .map(|h| h.to_bits())
                .collect()
        };
        for (s, o) in session.iter().zip(&oracle) {
            let net = s.net;
            assert_eq!(net, o.net, "rail order");
            assert_eq!(
                s.final_resistance_sq.to_bits(),
                o.final_resistance_sq.to_bits(),
                "objective for {net:?}"
            );
            assert_eq!(
                s.subgraph.members(),
                o.subgraph.members(),
                "membership for {net:?}"
            );
            assert_eq!(
                s.shape.area_mm2().to_bits(),
                o.shape.area_mm2().to_bits(),
                "shipped area for {net:?}"
            );
            assert_eq!(history(s), history(o), "history for {net:?}");
            let (st, ot) = (s.timings, o.timings);
            assert_eq!(
                st.factorizations + st.factor_updates,
                ot.factorizations + ot.factor_updates,
                "equal evaluation counts for {net:?}"
            );
            assert_eq!(ot.factor_updates, 0, "the oracle factors every evaluation");
            assert!(
                st.factorizations < ot.factorizations,
                "the session must avoid full factorizations: {} vs {}",
                st.factorizations,
                ot.factorizations
            );
        }
    }

    #[test]
    fn routes_two_rail_vdd1() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 20.0)
            .unwrap();
        // Budget respected (one grow step of slack).
        assert!(result.shape.area_mm2() <= 20.0 + 2.0);
        assert!(result.shape.area_mm2() > 10.0);
        // Objective decreased along the run.
        let first = result.resistance_history_sq.first().unwrap();
        assert!(result.final_resistance_sq < *first);
        // The result is DRC-clean.
        let v = check_route(
            &board,
            vdd1,
            presets::TWO_RAIL_ROUTE_LAYER,
            &result.shape,
            &[],
        )
        .unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Terminals stay connected in the shipped subgraph.
        let nodes: Vec<NodeId> = result.terminals.iter().map(|t| t.node).collect();
        assert!(result.subgraph.connects(&result.graph, &nodes));
    }

    #[test]
    fn route_all_keeps_nets_separated() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let nets: Vec<NetId> = board.power_nets().map(|(id, _)| id).collect();
        let layer = presets::TWO_RAIL_ROUTE_LAYER;
        let results = router
            .route_all(&[(nets[0], layer, 22.0), (nets[1], layer, 22.0)])
            .into_results()
            .unwrap();
        assert_eq!(results.len(), 2);
        // The second net must be DRC-clean against the first's shape.
        let first_blockers = results[0].shape.blocker_polygons();
        let v = check_route(&board, nets[1], layer, &results[1].shape, &first_blockers).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn budget_too_small_is_reported() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        match router.route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 0.5) {
            Err(SproutError::AreaBudgetTooSmall { seed_mm2, .. }) => {
                assert!(seed_mm2 > 0.5);
            }
            other => panic!("expected AreaBudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let router = Router::new(&board, fast_config());
        assert!(matches!(
            router.route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, -1.0),
            Err(SproutError::InvalidConfig(_))
        ));
        let mut bad = fast_config();
        bad.tile_pitch_mm = 0.0;
        let router = Router::new(&board, bad);
        assert!(matches!(
            router.route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 10.0),
            Err(SproutError::InvalidConfig(_))
        ));
    }

    #[test]
    fn telemetry_is_populated() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let result = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 22.0)
            .unwrap();
        let t = result.timings;
        assert!(t.total_ms() > 0.0);
        assert!(t.solves > 10, "solve counter must track the bottleneck");
        // The solve-heavy stages carry substantial weight, as §II-H
        // reports (the paper's ≈90 % shows in release builds; debug
        // builds shift the balance toward the geometry stages, so this
        // threshold stays conservative to keep the test deterministic).
        assert!(
            t.solve_stage_fraction() > 0.2,
            "grow/refine/reheat fraction {}",
            t.solve_stage_fraction()
        );
    }

    #[test]
    fn larger_budget_gives_lower_resistance() {
        let board = presets::two_rail();
        let router = Router::new(&board, fast_config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let small = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 18.0)
            .unwrap();
        let large = router
            .route_net(vdd1, presets::TWO_RAIL_ROUTE_LAYER, 36.0)
            .unwrap();
        assert!(
            large.final_resistance_sq < small.final_resistance_sq,
            "more metal must lower resistance: {} vs {}",
            large.final_resistance_sq,
            small.final_resistance_sq
        );
    }
}

#[cfg(test)]
mod component_tests {
    use super::*;
    use sprout_board::{Board, DesignRules, Element, ElementRole, Net, Stackup};
    use sprout_geom::Rect;

    /// Two separate islands of the same net on one layer (a wall between
    /// them): `route_net_components` must route each island.
    fn island_board() -> (Board, NetId) {
        let outline = Rect::new(Point::new(0.0, 0.0), Point::new(14.0, 8.0)).unwrap();
        let mut board = Board::new(
            "islands",
            outline,
            Stackup::eight_layer(),
            DesignRules::default(),
        );
        let vdd = board.add_net(Net::power("VDD", 2.0, 1e7, 1.0).unwrap());
        let pad = |x: f64, y: f64| {
            Polygon::rectangle(
                Point::new(x - 0.25, y - 0.25),
                Point::new(x + 0.25, y + 0.25),
            )
            .unwrap()
        };
        // Left island: source + sink.
        board
            .add_element(Element::terminal(
                vdd,
                6,
                pad(1.5, 4.0),
                ElementRole::Source,
            ))
            .unwrap();
        board
            .add_element(Element::terminal(vdd, 6, pad(5.0, 4.0), ElementRole::Sink))
            .unwrap();
        // Right island: two sinks.
        board
            .add_element(Element::terminal(vdd, 6, pad(9.0, 4.0), ElementRole::Sink))
            .unwrap();
        board
            .add_element(Element::terminal(vdd, 6, pad(12.5, 4.0), ElementRole::Sink))
            .unwrap();
        // Wall between the islands.
        board
            .add_element(Element::blockage(
                6,
                Polygon::rectangle(Point::new(6.8, 0.0), Point::new(7.6, 8.0)).unwrap(),
            ))
            .unwrap();
        (board, vdd)
    }

    fn config() -> RouterConfig {
        RouterConfig {
            tile_pitch_mm: 0.5,
            grow_iterations: 6,
            refine_iterations: 1,
            reheat: None,
            ..RouterConfig::default()
        }
    }

    #[test]
    fn components_routed_separately() {
        let (board, vdd) = island_board();
        let router = Router::new(&board, config());
        // The monolithic entry point refuses (disjoint space)…
        assert!(matches!(
            router.route_net(vdd, 6, 16.0),
            Err(SproutError::DisjointSpace { .. })
        ));
        // …while the component-aware one routes both islands.
        let results = router.route_net_components(vdd, 6, 16.0, &[], &[]).unwrap();
        assert_eq!(results.len(), 2);
        // Budget split 2:2 across the four terminals.
        for r in &results {
            assert!(r.shape.area_mm2() <= 8.0 + 1.0);
            let nodes: Vec<NodeId> = r.terminals.iter().map(|t| t.node).collect();
            assert!(r.subgraph.connects(&r.graph, &nodes));
        }
    }

    #[test]
    fn single_component_matches_route_net() {
        let board = sprout_board::presets::two_rail();
        let router = Router::new(&board, config());
        let (vdd1, _) = board.power_nets().next().unwrap();
        let layer = sprout_board::presets::TWO_RAIL_ROUTE_LAYER;
        let single = router.route_net(vdd1, layer, 20.0).unwrap();
        let comps = router
            .route_net_components(vdd1, layer, 20.0, &[], &[])
            .unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].subgraph.order(), single.subgraph.order());
        assert!(
            (comps[0].final_resistance_sq - single.final_resistance_sq).abs() < 1e-12,
            "deterministic pipeline"
        );
    }
}
