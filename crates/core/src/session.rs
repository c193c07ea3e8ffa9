//! Incremental nodal-analysis session (§II-H).
//!
//! The scratch evaluator in [`crate::current`] rebuilds and re-factors
//! the grounded subgraph Laplacian on every metric evaluation, even
//! though SmartGrow/SmartRefine/reheat mutate only a handful of nodes
//! between evaluations. A [`NodalSession`] keeps the system alive across
//! evaluations and pays only for what actually changed:
//!
//! * **Factor reuse** — if the membership and conductances are unchanged
//!   since the cached factor, every solve runs against it directly.
//! * **Numeric refactor** — if only conductance values changed (same
//!   sparsity pattern), the cached Cholesky refactors in its stored RCM
//!   ordering without re-planning the envelope
//!   ([`SparseCholesky::try_refactor`]).
//! * **Full refactor** — any membership change re-plans the grounded
//!   matrix and factors it afresh into recycled buffers.
//!
//! Every path is exact: results are bit-identical to
//! [`current::node_current`]. The pairs are solved and reduced by the
//! `core::split` kernel: the injections are stamped straight into the
//! factor's row order in blocks, substituted in place, and each node's
//! metric is summed in pair-major, edge-ascending order — the order the
//! scratch evaluator sums in. A session built with
//! [`NodalSession::with_threads`] splits the blocks and the node sums
//! across that many threads without changing a bit.
//!
//! The session replays the scratch evaluator's fault-injection hooks,
//! sanitize events, and solver-fallback events in the same order, so
//! the recovery pipeline and telemetry observe the same stream either
//! way. When a cached-factor path cannot be used safely the session
//! falls back to the scratch evaluator's resilient ladder, producing
//! identical errors and degradation events.

use crate::current::{self, InjectionPair, NodeCurrents};
use crate::graph::{NodeId, RoutingGraph, Subgraph};
use crate::recovery::{self, SolverEvent};
use crate::split::{Clock, Kernel, Pool, Split};
use crate::SproutError;
use sprout_linalg::cholesky::SparseCholesky;
use sprout_linalg::fallback::FallbackOptions;
use sprout_linalg::laplacian::GraphLaplacian;
use sprout_linalg::{Csr, LinalgError};
use sprout_telemetry as telemetry;
use std::sync::Arc;

/// Counters describing how a session spent its evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Metric evaluations served.
    pub evals: usize,
    /// Full symbolic + numeric factorizations (fresh RCM ordering).
    pub full_factors: usize,
    /// Numeric refactorizations into a cached ordering/envelope.
    pub numeric_refactors: usize,
    /// Evaluations that reused the cached factor untouched.
    pub factor_reuses: usize,
    /// Full state resyncs after out-of-band subgraph edits.
    pub resyncs: usize,
    /// Evaluations that fell back to the resilient solver ladder.
    pub ladder_fallbacks: usize,
    /// Evaluations whose kernel ran on more than one thread.
    pub split_evals: usize,
    /// Nanoseconds spent assembling the grounded system: pair
    /// validation, membership sync, the induced-edge list, the
    /// component screen, the CSR plan and values, and the kernel's
    /// rows and incidence layout.
    pub plan_ns: u64,
    /// Nanoseconds in full factorizations and numeric refactorizations,
    /// and in resilient-ladder evaluations.
    pub factor_ns: u64,
    /// Nanoseconds stamping the injections and substituting them, on the
    /// calling thread.
    pub substitute_ns: u64,
    /// Nanoseconds reducing the solved columns into the metric, on the
    /// calling thread.
    pub reduce_ns: u64,
    /// Nanoseconds the calling thread spent posting a split round, at
    /// its barrier and waiting for the helpers' hand-back. The five
    /// phases tile each evaluation's wall clock on the calling thread.
    pub wait_ns: u64,
}

#[cfg(test)]
thread_local! {
    /// Test-only switch: while set, every session on this thread
    /// evaluates through the scratch evaluator (see [`scratch_oracle`]).
    static SCRATCH_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`NodalSession`] on this thread answering
/// [`NodalSession::eval`] from [`current::node_current`] — one full
/// factorization per evaluation, no cached state — so end-to-end tests
/// can compare the session against the scratch evaluator it must match.
#[cfg(test)]
pub(crate) fn scratch_oracle<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SCRATCH_ORACLE.set(false);
        }
    }
    SCRATCH_ORACLE.set(true);
    let _reset = Reset;
    f()
}

/// Sentinel for a conductance stamp that lands on the grounded
/// (dropped) row/column.
const SKIP: usize = usize::MAX;

/// Cached grounded-CSR assembly plan: sparsity structure plus, for each
/// induced edge, the four value slots its conductance stamps into. A
/// value-only change replays the stamp list into the cached structure
/// without re-planning — and the stamp order matches the scratch
/// evaluator's triplet assembly exactly, so the refreshed matrix is
/// bit-identical to a from-scratch build.
#[derive(Debug)]
struct CsrPlan {
    /// Grounded (dropped) compact index this plan was built for.
    ground: usize,
    /// Mutation generation at build time.
    gen: u64,
    /// Whether the edge list had sanitized (dropped) entries; such plans
    /// are never reused because equal-length edge lists may still differ.
    sanitized: bool,
    /// Induced-edge count at build time.
    edge_count: usize,
    /// Per-edge `[diag_a, diag_b, off_ab, off_ba]` value slots (the
    /// structure itself lives in the cached CSR).
    edge_slots: Vec<[usize; 4]>,
}

/// Persistent incremental nodal-analysis state for one routing net.
///
/// Stage code mutates the [`Subgraph`] through [`NodalSession::insert`]
/// / [`NodalSession::remove`] so the session mirrors every delta;
/// out-of-band edits (clones, restores) are detected at the next
/// evaluation and trigger a full resync, so the session is always safe
/// — just slower when bypassed.
#[derive(Debug, Default)]
pub struct NodalSession {
    stats: SessionStats,

    // --- membership mirror ---
    synced: bool,
    graph_nodes: usize,
    graph_edges: usize,
    /// Sorted member list; position = compact index.
    members: Vec<NodeId>,
    /// `compact[NodeId::index()]` → compact index (refreshed per eval).
    compact: Vec<usize>,
    /// Membership bitmap (refreshed per eval alongside `compact`, which
    /// keeps stale entries for removed nodes).
    member_mask: Vec<bool>,
    /// Sorted induced-edge indices into `graph.edges()`.
    edge_ids: Vec<u32>,
    /// Bumped on every membership mutation or resync.
    mutation_gen: u64,

    // --- cached factor and its base system ---
    /// Shared with the split kernel's helpers during an evaluation only.
    factor: Option<Arc<SparseCholesky>>,
    base_csr: Option<Csr<f64>>,
    plan: Option<CsrPlan>,
    /// Membership the cached factor was built for.
    base_members: Vec<NodeId>,
    base_ground_node: Option<NodeId>,
    /// Whether the cached factor's conductances are the true (unfaulted)
    /// graph weights.
    base_clean: bool,
    /// Mutation generation the factor corresponds to.
    factor_gen: u64,

    // --- reusable buffers ---
    edges_buf: Vec<(usize, usize, f64)>,
    /// Per-row column builder for plan rebuilds; rows keep their
    /// capacity across evaluations so re-planning allocates nothing.
    plan_rows: Vec<Vec<usize>>,
    /// Scratch space for in-place re-orderings ([`SparseCholesky::refactor_into`]).
    rcm_ws: sprout_linalg::rcm::RcmWorkspace,
    uf: Vec<usize>,
    /// Factor row of each compact index; the ground maps to the zero
    /// sentinel row past the factor's last.
    rows: Vec<usize>,
    /// The solve-and-reduce kernel's inputs, shared with the helpers
    /// during an evaluation only.
    kernel: Arc<Kernel>,
    /// The kernel's lanes and helper threads.
    pool: Pool,
    /// A zeroed metric vector handed back through
    /// [`NodalSession::recycle`], reused by the next evaluation.
    spare: Vec<f64>,
    /// Address of the metric vector the last evaluation returned (if
    /// the kernel wrote it) and the members it wrote: a recycled vector
    /// is re-zeroed at exactly those entries.
    handed: Option<usize>,
    written: Vec<NodeId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Reuse,
    Refresh,
    Full,
}

impl NodalSession {
    /// Creates an empty single-threaded session; state materializes at
    /// the first evaluation.
    pub fn new() -> Self {
        NodalSession::default()
    }

    /// Creates an empty session whose evaluations split their solve and
    /// reduction across `threads` threads (`0` = the machine's
    /// parallelism). Results are bit-identical at every thread count.
    /// The helper threads start at the first evaluation that splits and
    /// are joined when the session drops.
    pub fn with_threads(threads: usize) -> Self {
        NodalSession {
            pool: Pool::new(crate::resolve_threads(threads)),
            ..NodalSession::default()
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Hands back the result of this session's last evaluation, so the
    /// next evaluation reuses its per-node vector instead of allocating
    /// and zeroing a graph-sized one. Any other result is dropped.
    pub fn recycle(&mut self, metric: NodeCurrents) {
        let mut current = metric.into_current();
        if self.handed.take() != Some(current.as_ptr() as usize) {
            return;
        }
        for id in &self.written {
            current[id.index()] = 0.0;
        }
        self.spare = current;
    }

    /// Evaluates the node-current metric, reusing as much cached solver
    /// state as the accumulated deltas allow. Bit-identical to
    /// [`current::node_current`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`current::node_current`].
    pub fn eval(
        &mut self,
        graph: &RoutingGraph,
        sub: &Subgraph,
        pairs: &[InjectionPair],
    ) -> Result<NodeCurrents, SproutError> {
        self.handed = None;
        #[cfg(test)]
        if SCRATCH_ORACLE.get() {
            let nc = current::node_current(graph, sub, pairs)?;
            self.stats.evals += 1;
            self.stats.full_factors += 1;
            return Ok(nc);
        }
        let mut clock = Clock::start();
        current::validate_pairs(sub, pairs)?;
        self.sync(graph, sub);
        self.materialize_edges(graph);

        // Fault-injection hooks fire in the same order and count as the
        // scratch evaluator, so fault sweeps see identical behavior.
        let corrupted = recovery::fault_corrupt_conductances(&mut self.edges_buf) > 0;
        if recovery::fault_solver_failure() {
            return Err(SproutError::from(LinalgError::NotConverged {
                iterations: 0,
                residual: f64::INFINITY,
            }));
        }
        let dropped = self
            .edges_buf
            .iter()
            .filter(|&&(_, _, g)| !(g.is_finite() && g > 0.0))
            .count();
        if dropped > 0 {
            recovery::note_event(SolverEvent::Sanitized(dropped));
            telemetry::counter!("solver.edges_sanitized", dropped as u64);
            telemetry::point("edges_sanitized")
                .field("count", dropped)
                .emit();
            self.edges_buf.retain(|&(_, _, g)| g.is_finite() && g > 0.0);
        }
        // "Clean" = the buffered conductances are the true graph weights
        // (a finite-positive corruption can survive sanitation, so the
        // corruption flag matters independently of `dropped`).
        let clean = !corrupted && dropped == 0;
        let sanitized = dropped > 0;

        let m = self.members.len();
        if m == 1 {
            return Err(SproutError::from(LinalgError::Empty));
        }
        let ground_node = pairs[0].sink;
        let ground = self.compact[ground_node.index()];
        self.stats.evals += 1;

        // ---- pick the cheapest exact backend ----
        let ground_same = self.base_ground_node == Some(ground_node);
        let factored = self.factor.is_some();
        let gen_same = factored && ground_same && self.factor_gen == self.mutation_gen;
        let set_same = gen_same || (factored && ground_same && self.members == self.base_members);

        let backend = if set_same {
            // The membership may have wandered and returned to the
            // factored set (refine removes then regrows): the cached base
            // is current again.
            self.factor_gen = self.mutation_gen;
            if clean && self.base_clean {
                Backend::Reuse
            } else {
                Backend::Refresh
            }
        } else {
            Backend::Full
        };

        let mut need_full_factor = false;
        match backend {
            Backend::Reuse => self.stats.plan_ns += clock.lap(),
            Backend::Refresh => {
                // Same membership, different conductances: refresh the
                // cached structure's values and refactor in place.
                let plan_reused = self.refresh_csr(graph, m, ground, sanitized)?;
                self.stats.plan_ns += clock.lap();
                if plan_reused {
                    let factor = self
                        .factor
                        .as_mut()
                        .ok_or(SproutError::Internal("refresh requires a factor"))?;
                    let csr = self
                        .base_csr
                        .as_ref()
                        .ok_or(SproutError::Internal("refresh requires a matrix"))?;
                    let refactor = {
                        let _span = telemetry::span("factor_refresh").enter();
                        Arc::make_mut(factor).try_refactor(csr)
                    };
                    self.stats.factor_ns += clock.lap();
                    match refactor {
                        Ok(true) => {
                            self.base_clean = clean;
                            self.stats.numeric_refactors += 1;
                            telemetry::counter!("session.factor_refresh");
                        }
                        Ok(false) => need_full_factor = true,
                        Err(_) => {
                            self.factor = None;
                            return self.eval_ladder(graph, pairs, m, ground, clock);
                        }
                    }
                } else {
                    need_full_factor = true;
                }
            }
            Backend::Full => {
                self.refresh_csr(graph, m, ground, sanitized)?;
                self.stats.plan_ns += clock.lap();
                need_full_factor = true;
            }
        }

        if need_full_factor {
            let factored = {
                let _span = telemetry::span("factor_full").enter();
                self.factor_current()
            };
            self.stats.factor_ns += clock.lap();
            match factored {
                Ok(()) => {
                    self.base_members.clear();
                    self.base_members.extend_from_slice(&self.members);
                    self.base_ground_node = Some(ground_node);
                    self.base_clean = clean;
                    self.factor_gen = self.mutation_gen;
                    self.stats.full_factors += 1;
                    telemetry::counter!("session.factor_full");
                }
                Err(_) => {
                    self.factor = None;
                    return self.eval_ladder(graph, pairs, m, ground, clock);
                }
            }
        }

        if backend == Backend::Reuse {
            self.stats.factor_reuses += 1;
            telemetry::counter!("session.factor_reuse");
        }
        self.solve_and_reduce(graph, pairs, ground, clock)
    }

    // ---- mutation mirroring -------------------------------------------

    /// Inserts `id` into the subgraph, mirroring the delta into the
    /// session.
    pub fn insert(&mut self, graph: &RoutingGraph, sub: &mut Subgraph, id: NodeId) {
        if sub.contains(id) {
            return;
        }
        sub.insert(graph, id);
        if !self.synced {
            return;
        }
        match self.members.binary_search(&id) {
            Ok(_) => return, // desync guard; resync will repair
            Err(pos) => self.members.insert(pos, id),
        }
        for &(v, eid) in graph.neighbors(id) {
            if sub.contains(v) {
                if let Err(p) = self.edge_ids.binary_search(&eid) {
                    self.edge_ids.insert(p, eid);
                }
            }
        }
        self.mutation_gen += 1;
    }

    /// Removes `id` from the subgraph, mirroring the delta into the
    /// session.
    pub fn remove(&mut self, graph: &RoutingGraph, sub: &mut Subgraph, id: NodeId) {
        if !sub.contains(id) {
            return;
        }
        sub.remove(graph, id);
        if !self.synced {
            return;
        }
        let Ok(pos) = self.members.binary_search(&id) else {
            return; // desync guard; resync will repair
        };
        self.members.remove(pos);
        for &(v, eid) in graph.neighbors(id) {
            if sub.contains(v) {
                if let Ok(p) = self.edge_ids.binary_search(&eid) {
                    self.edge_ids.remove(p);
                }
            }
        }
        self.mutation_gen += 1;
    }

    // ---- synchronization ----------------------------------------------

    /// Verifies the mirrored membership against the subgraph (O(m)) and
    /// resyncs on any divergence (clone-restores, direct mutations).
    fn sync(&mut self, graph: &RoutingGraph, sub: &Subgraph) {
        let matches = self.synced
            && self.graph_nodes == graph.node_count()
            && self.graph_edges == graph.edge_count()
            && self.members.len() == sub.order()
            && self.members.iter().all(|&m| sub.contains(m));
        if !matches {
            let first = !self.synced;
            self.members.clear();
            self.members.extend_from_slice(sub.members());
            self.members.sort_unstable();
            self.edge_ids.clear();
            for (idx, e) in graph.edges().iter().enumerate() {
                if sub.contains(e.a) && sub.contains(e.b) {
                    self.edge_ids.push(idx as u32);
                }
            }
            self.graph_nodes = graph.node_count();
            self.graph_edges = graph.edge_count();
            self.synced = true;
            self.mutation_gen += 1;
            if !first {
                self.stats.resyncs += 1;
                telemetry::counter!("session.resyncs");
            }
        }
        if self.compact.len() != graph.node_count() {
            self.compact = vec![usize::MAX; graph.node_count()];
        }
        self.member_mask.clear();
        self.member_mask.resize(graph.node_count(), false);
        for (k, &mid) in self.members.iter().enumerate() {
            self.compact[mid.index()] = k;
            self.member_mask[mid.index()] = true;
        }
    }

    /// Rebuilds the compact induced-edge list in ascending graph-edge
    /// order — the same order the scratch evaluator's induced-edge scan
    /// produces.
    fn materialize_edges(&mut self, graph: &RoutingGraph) {
        self.edges_buf.clear();
        self.edges_buf.reserve(self.edge_ids.len());
        for &eid in &self.edge_ids {
            let e = graph.edge(eid);
            self.edges_buf.push((
                self.compact[e.a.index()],
                self.compact[e.b.index()],
                e.weight,
            ));
        }
    }

    // ---- assembly ------------------------------------------------------

    /// Union-find component screen over the sanitized induced edges —
    /// the same verdict (and error) the scratch evaluator's
    /// `component_count` check produces, without building a Laplacian.
    fn screen_components(&mut self) -> Result<(), SproutError> {
        let m = self.members.len();
        self.uf.clear();
        self.uf.extend(0..m);
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]]; // path halving
                x = uf[x];
            }
            x
        }
        for i in 0..self.edges_buf.len() {
            let (a, b, _) = self.edges_buf[i];
            let ra = find(&mut self.uf, a);
            let rb = find(&mut self.uf, b);
            if ra != rb {
                self.uf[ra] = rb;
            }
        }
        let mut components = 0usize;
        for i in 0..m {
            if find(&mut self.uf, i) == i {
                components += 1;
            }
        }
        if components > 1 {
            Err(SproutError::from(LinalgError::Disconnected { components }))
        } else {
            Ok(())
        }
    }

    /// Ensures `base_csr` holds the exact current grounded system.
    /// Returns `true` when the cached sparsity plan was reused (values
    /// refreshed in place), `false` when the plan and structure were
    /// rebuilt. Screens for floating components first.
    fn refresh_csr(
        &mut self,
        graph: &RoutingGraph,
        m: usize,
        ground: usize,
        sanitized: bool,
    ) -> Result<bool, SproutError> {
        self.screen_components()?;
        let plan_ok = !sanitized
            && self.base_csr.is_some()
            && self.plan.as_ref().is_some_and(|p| {
                p.gen == self.mutation_gen
                    && p.ground == ground
                    && !p.sanitized
                    && p.edge_count == self.edges_buf.len()
            });
        if plan_ok {
            self.rebuild_values()?;
            Ok(true)
        } else {
            self.rebuild_plan(graph, m, ground, sanitized)?;
            Ok(false)
        }
    }

    /// Plans the grounded-CSR structure and per-edge value slots, then
    /// builds the matrix. Duplicate (parallel) edges share slots, and
    /// the value replay accumulates them in edge order — matching the
    /// scratch evaluator's stable triplet summation bit for bit.
    fn rebuild_plan(
        &mut self,
        graph: &RoutingGraph,
        m: usize,
        ground: usize,
        sanitized: bool,
    ) -> Result<(), SproutError> {
        let dim = m - 1;
        let gidx = |i: usize| if i < ground { i } else { i - 1 };
        // Recycle the previous plan's and matrix's allocations: the
        // router re-plans on every membership change, so this path must
        // not allocate per evaluation.
        let mut edge_slots = match self.plan.take() {
            Some(p) => {
                let mut v = p.edge_slots;
                v.clear();
                v
            }
            None => Vec::new(),
        };
        let (mut row_ptr, mut col_idx, mut values) = match self.base_csr.take() {
            Some(csr) => csr.into_raw_parts(),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        row_ptr.clear();
        row_ptr.reserve(dim + 1);
        row_ptr.push(0usize);
        col_idx.clear();
        // Fast path: walk the graph adjacency of the mirrored members
        // directly — each grounded row is its member-neighbor columns
        // plus the diagonal, gathered into a fixed-size buffer and
        // insertion-sorted. Only valid when no edge was sanitized away
        // (the structure must mirror `edges_buf` exactly) and degrees
        // stay small; otherwise fall back to the general per-edge
        // scatter. Both produce identical sorted, deduplicated rows.
        let mut fast_ok = !sanitized;
        if fast_ok {
            'walk: for (i, &node) in self.members.iter().enumerate() {
                if i == ground {
                    continue;
                }
                let mut row = [0usize; 8];
                let mut len = 0usize;
                row[len] = gidx(i);
                len += 1;
                for &(v, _) in graph.neighbors(node) {
                    if !self.member_mask[v.index()] {
                        continue;
                    }
                    let ci = self.compact[v.index()];
                    if ci == ground {
                        continue;
                    }
                    if len == row.len() {
                        fast_ok = false;
                        break 'walk;
                    }
                    row[len] = gidx(ci);
                    len += 1;
                }
                let r = &mut row[..len];
                r.sort_unstable();
                let mut prev = usize::MAX;
                for &c in r.iter() {
                    if c != prev {
                        col_idx.push(c);
                        prev = c;
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        if !fast_ok {
            row_ptr.clear();
            row_ptr.push(0usize);
            col_idx.clear();
            if self.plan_rows.len() < dim {
                self.plan_rows.resize_with(dim, Vec::new);
            }
            for list in &mut self.plan_rows[..dim] {
                list.clear();
            }
            for &(a, b, _) in &self.edges_buf {
                if a != ground && b != ground {
                    self.plan_rows[gidx(a)].push(gidx(b));
                    self.plan_rows[gidx(b)].push(gidx(a));
                }
                if a != ground {
                    self.plan_rows[gidx(a)].push(gidx(a));
                }
                if b != ground {
                    self.plan_rows[gidx(b)].push(gidx(b));
                }
            }
            for list in &mut self.plan_rows[..dim] {
                list.sort_unstable();
                list.dedup();
                col_idx.extend_from_slice(list);
                row_ptr.push(col_idx.len());
            }
        }
        let slot = |r: usize, c: usize| -> Result<usize, SproutError> {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            col_idx[lo..hi]
                .binary_search(&c)
                .map(|off| lo + off)
                .map_err(|_| SproutError::Internal("planned CSR entry missing"))
        };
        edge_slots.reserve(self.edges_buf.len());
        for &(a, b, _) in &self.edges_buf {
            let mut s = [SKIP; 4];
            if a != ground {
                s[0] = slot(gidx(a), gidx(a))?;
            }
            if b != ground {
                s[1] = slot(gidx(b), gidx(b))?;
            }
            if a != ground && b != ground {
                s[2] = slot(gidx(a), gidx(b))?;
                s[3] = slot(gidx(b), gidx(a))?;
            }
            edge_slots.push(s);
        }
        values.clear();
        values.resize(col_idx.len(), 0.0);
        self.plan = Some(CsrPlan {
            ground,
            gen: self.mutation_gen,
            sanitized,
            edge_count: self.edges_buf.len(),
            edge_slots,
        });
        let csr = Csr::from_raw_parts(dim, dim, row_ptr, col_idx, values)?;
        self.base_csr = Some(csr);
        self.rebuild_values()?;
        Ok(())
    }

    /// Replays the conductance stamps into the cached structure.
    fn rebuild_values(&mut self) -> Result<(), SproutError> {
        let plan = self
            .plan
            .as_ref()
            .ok_or(SproutError::Internal("value replay requires a plan"))?;
        let csr = self
            .base_csr
            .as_mut()
            .ok_or(SproutError::Internal("value replay requires a matrix"))?;
        let vals = csr.values_mut();
        vals.fill(0.0);
        for (k, &(_, _, g)) in self.edges_buf.iter().enumerate() {
            let [da, db, ab, ba] = plan.edge_slots[k];
            if da != SKIP {
                vals[da] += g;
            }
            if db != SKIP {
                vals[db] += g;
            }
            if ab != SKIP {
                vals[ab] -= g;
            }
            if ba != SKIP {
                vals[ba] -= g;
            }
        }
        Ok(())
    }

    // ---- solve paths ---------------------------------------------------

    /// Factors the current `base_csr` into the cached factor object
    /// (fresh ordering, reused buffers — bit-identical to a fresh
    /// [`SparseCholesky::factor`]).
    fn factor_current(&mut self) -> Result<(), SproutError> {
        let csr = self
            .base_csr
            .as_ref()
            .ok_or(SproutError::Internal("full factor requires a matrix"))?;
        if let Some(f) = self.factor.as_mut() {
            Arc::make_mut(f)
                .refactor_into(csr, &mut self.rcm_ws)
                .map_err(SproutError::from)
        } else {
            self.factor = Some(Arc::new(SparseCholesky::factor(csr)?));
            Ok(())
        }
    }

    /// Last-resort path: run the scratch evaluator's resilient solver
    /// ladder on the already-assembled system, emitting the same
    /// degradation events it would. Its time counts as factor time.
    fn eval_ladder(
        &mut self,
        graph: &RoutingGraph,
        pairs: &[InjectionPair],
        m: usize,
        ground: usize,
        mut clock: Clock,
    ) -> Result<NodeCurrents, SproutError> {
        let nc = self.ladder_metric(graph, pairs, m, ground);
        self.stats.factor_ns += clock.lap();
        nc
    }

    fn ladder_metric(
        &mut self,
        graph: &RoutingGraph,
        pairs: &[InjectionPair],
        m: usize,
        ground: usize,
    ) -> Result<NodeCurrents, SproutError> {
        self.stats.ladder_fallbacks += 1;
        telemetry::counter!("session.ladder_fallbacks");
        let mut lap = GraphLaplacian::from_edges(m, &self.edges_buf)?;
        let _ = lap.sanitize_conductances(); // parity no-op: edges are clean
        let factor = lap.factor_grounded_resilient(ground, FallbackOptions::default())?;
        if let Some(report) = factor.fallback_report() {
            if report.degraded() {
                recovery::note_event(SolverEvent::Fallback(report.rung));
                telemetry::counter!("solver.fallbacks");
                telemetry::point("solver_fallback")
                    .field("rung", format!("{:?}", report.rung))
                    .field("attempts", report.factor_attempts)
                    .emit();
            }
        }
        current::metric_from_factor(
            graph,
            &self.members,
            &self.compact,
            &self.edges_buf,
            &factor,
            pairs,
        )
    }

    // ---- solve and reduction --------------------------------------------

    /// Solves every pair against the cached factor and reduces the
    /// metric with the `core::split` kernel, on as many of the
    /// session's threads as the pairs fill. Every node's metric and the
    /// resistance match [`current::metric_from_factor`] bit for bit.
    fn solve_and_reduce(
        &mut self,
        graph: &RoutingGraph,
        pairs: &[InjectionPair],
        ground: usize,
        mut clock: Clock,
    ) -> Result<NodeCurrents, SproutError> {
        let factor = self
            .factor
            .as_ref()
            .ok_or(SproutError::Internal("direct solve requires a factor"))?;
        let n = factor.dimension();
        let inv = factor.inverse_permutation();
        let m = self.members.len();
        let rows = &mut self.rows;
        rows.clear();
        rows.extend((0..m).map(|k| match k.cmp(&ground) {
            std::cmp::Ordering::Less => inv[k],
            std::cmp::Ordering::Equal => n,
            std::cmp::Ordering::Greater => inv[k - 1],
        }));
        Arc::make_mut(&mut self.kernel).load(
            n,
            rows,
            &self.compact,
            pairs,
            &self.edges_buf,
            self.pool.threads(),
        )?;
        let mut node_metric = if self.spare.len() == graph.node_count() {
            std::mem::take(&mut self.spare)
        } else {
            vec![0.0f64; graph.node_count()]
        };
        self.stats.plan_ns += clock.lap();

        if self.kernel.lanes() > 1 {
            self.stats.split_evals += 1;
        }
        let mut split = Split::default();
        let run = self.pool.run(
            factor,
            &self.kernel,
            &self.members,
            &mut node_metric,
            &mut clock,
            &mut split,
        );
        self.stats.substitute_ns += split.substitute_ns;
        self.stats.reduce_ns += split.reduce_ns;
        self.stats.wait_ns += split.wait_ns;
        let resistance_weighted = run?;
        let weight_total: f64 = pairs.iter().fold(0.0, |w, p| w + p.current_a);
        let resistance_sq = if weight_total > 0.0 {
            resistance_weighted / weight_total
        } else {
            0.0
        };
        telemetry::counter!("metric.evaluations");
        telemetry::histogram!("metric.solves_per_eval", pairs.len() as u64);
        self.handed = Some(node_metric.as_ptr() as usize);
        self.written.clear();
        self.written.extend_from_slice(&self.members);
        self.stats.reduce_ns += clock.lap();
        Ok(NodeCurrents::from_parts(
            node_metric,
            resistance_sq,
            pairs.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::current::{injection_pairs, node_current, PairPolicy};
    use crate::graph::RemovalCheck;
    use crate::seed::{seed_subgraph, SeedOptions};
    use crate::space::SpaceSpec;
    use crate::tile::{identify_terminals, space_to_graph, Terminal, TileOptions};
    use sprout_board::presets;

    fn setup() -> (RoutingGraph, Subgraph, Vec<Terminal>) {
        let board = presets::two_rail();
        let (vdd1, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, vdd1, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        let graph = space_to_graph(&spec, TileOptions::square(0.4)).unwrap();
        let terminals = identify_terminals(&graph, &spec, vdd1).unwrap();
        let sub = seed_subgraph(&graph, &terminals, vdd1, 6, SeedOptions::default()).unwrap();
        (graph, sub, terminals)
    }

    fn assert_bitwise_match(
        graph: &RoutingGraph,
        sub: &Subgraph,
        pairs: &[InjectionPair],
        session: &mut NodalSession,
    ) {
        let scratch = node_current(graph, sub, pairs).unwrap();
        let incr = session.eval(graph, sub, pairs).unwrap();
        assert_eq!(
            scratch.resistance_sq().to_bits(),
            incr.resistance_sq().to_bits(),
            "resistance must match bit for bit"
        );
        assert_eq!(scratch.solves(), incr.solves());
        for i in 0..graph.node_count() as u32 {
            let id = NodeId(i);
            assert_eq!(
                scratch.of(id).to_bits(),
                incr.of(id).to_bits(),
                "metric mismatch at node {i}"
            );
        }
    }

    #[test]
    fn incremental_matches_scratch_bitwise_through_mutations() {
        let (graph, mut sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let tnodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
        let mut session = NodalSession::new();

        // Seed evaluation: first full factor.
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);
        // Repeat without mutations: factor reuse.
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);

        // Grow a boundary ring through the session.
        for id in sub.boundary(&graph) {
            session.insert(&graph, &mut sub, id);
        }
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);

        // Remove a few connectivity-safe non-terminal nodes.
        let mut check = RemovalCheck::new();
        let candidates: Vec<NodeId> = sub.members().to_vec();
        let mut removed = 0;
        for id in candidates {
            if removed >= 3 || tnodes.contains(&id) {
                continue;
            }
            if check.keeps_connected(&graph, &sub, id, &tnodes) {
                session.remove(&graph, &mut sub, id);
                removed += 1;
            }
        }
        assert!(removed > 0, "expected at least one safe removal");
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);

        // Out-of-band mutation (clone restore) must trigger a resync,
        // not wrong answers.
        let mut restored = sub.clone();
        for id in sub.boundary(&graph).into_iter().take(2) {
            restored.insert(&graph, id);
        }
        assert_bitwise_match(&graph, &restored, &pairs, &mut session);

        let stats = session.stats();
        assert!(stats.full_factors >= 1, "stats: {stats:?}");
        assert!(stats.factor_reuses >= 1, "stats: {stats:?}");
        assert!(stats.resyncs >= 1, "stats: {stats:?}");
        assert_eq!(
            stats.evals,
            stats.full_factors
                + stats.numeric_refactors
                + stats.factor_reuses
                + stats.ladder_fallbacks,
            "every eval must be accounted to exactly one backend: {stats:?}"
        );
    }

    /// The grown two-rail subgraph and `count` random pairs grounded at
    /// `ground`, the second pair injecting at the ground.
    fn random_pairs(
        members: &[NodeId],
        count: usize,
        ground: NodeId,
        rng: &mut sprout_rng::SproutRng,
    ) -> Vec<InjectionPair> {
        let m = members.len();
        let mut pairs: Vec<InjectionPair> = (0..count)
            .map(|_| InjectionPair {
                source: members[rng.usize_below(m)],
                sink: members[rng.usize_below(m)],
                current_a: rng.f64_range(0.05, 2.0),
            })
            .collect();
        pairs[0].sink = ground;
        if count > 1 {
            pairs[1].source = ground;
        }
        pairs
    }

    fn grown() -> (RoutingGraph, Subgraph, Vec<NodeId>) {
        let (graph, mut sub, _) = setup();
        for _ in 0..2 {
            for id in sub.boundary(&graph) {
                sub.insert(&graph, id);
            }
        }
        let mut members = sub.members().to_vec();
        members.sort_unstable();
        (graph, sub, members)
    }

    #[test]
    fn fused_blocks_match_node_current_bit_for_bit() {
        // Pair counts on both sides of each 16-wide block boundary, and
        // the ground (the first pair's sink) at the first, middle and
        // last compact index. The second pair injects at the ground,
        // where the injection must be absorbed. Sessions on 1, 2 and 3
        // threads deal the same pairs into different blocks and node
        // ranges; every one must match the scratch evaluator.
        let (graph, sub, members) = grown();
        let m = members.len();
        for threads in [1usize, 2, 3] {
            let mut rng = sprout_rng::SproutRng::seed_from_u64(0x5eed);
            for count in [1usize, 15, 16, 17, 32, 33, 51] {
                for ground in [members[0], members[m / 2], members[m - 1]] {
                    let pairs = random_pairs(&members, count, ground, &mut rng);
                    let mut session = NodalSession::with_threads(threads);
                    assert_bitwise_match(&graph, &sub, &pairs, &mut session);
                    assert_bitwise_match(&graph, &sub, &pairs, &mut session);
                    let stats = session.stats();
                    assert_eq!(stats.factor_reuses, 1, "{count} pairs");
                    let splits = if threads > 1 && count > 1 { 2 } else { 0 };
                    assert_eq!(
                        stats.split_evals, splits,
                        "{count} pairs on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn recycled_metric_vectors_match_fresh_ones() {
        // Each evaluation reuses the vector the last one handed back,
        // re-zeroed at the members it wrote: through growth and removal
        // every node, inside the subgraph or left behind, must match the
        // scratch evaluator. A stale result handed back is dropped.
        let (graph, mut sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let mut session = NodalSession::with_threads(2);
        let stale = session.eval(&graph, &sub, &pairs).unwrap();
        for round in 0..4 {
            if round % 2 == 0 {
                for id in sub.boundary(&graph) {
                    session.insert(&graph, &mut sub, id);
                }
            } else {
                let tnodes: Vec<NodeId> = terminals.iter().map(|t| t.node).collect();
                let mut check = RemovalCheck::new();
                for id in sub.members().to_vec().into_iter().rev().take(40) {
                    if !tnodes.contains(&id) && check.keeps_connected(&graph, &sub, id, &tnodes) {
                        session.remove(&graph, &mut sub, id);
                    }
                }
            }
            let metric = session.eval(&graph, &sub, &pairs).unwrap();
            let scratch = node_current(&graph, &sub, &pairs).unwrap();
            for i in 0..graph.node_count() as u32 {
                let id = NodeId(i);
                assert_eq!(
                    metric.of(id).to_bits(),
                    scratch.of(id).to_bits(),
                    "node {i}"
                );
            }
            assert!(
                session.spare.is_empty(),
                "round {round}: the spare was reused"
            );
            session.recycle(metric);
            assert_eq!(session.spare.len(), graph.node_count(), "round {round}");
            assert!(session.spare.iter().all(|&x| x == 0.0), "round {round}");
        }
        let kept = session.spare.as_ptr();
        session.recycle(stale);
        assert_eq!(session.spare.as_ptr(), kept, "a stale result is dropped");
    }

    #[test]
    fn split_session_joins_its_helpers_on_drop() {
        let (graph, sub, members) = grown();
        let mut rng = sprout_rng::SproutRng::seed_from_u64(7);
        let pairs = random_pairs(&members, 33, members[0], &mut rng);
        let mut session = NodalSession::with_threads(3);
        assert_eq!(session.pool.helpers(), 0, "helpers start lazily");
        session.eval(&graph, &sub, &pairs).unwrap();
        session.eval(&graph, &sub, &pairs).unwrap();
        assert_eq!(session.pool.helpers(), 2, "spawned once, parked between");
        let shared = session.pool.probe();
        assert!(shared.upgrade().is_some());
        drop(session);
        // Each helper holds the shared state until its loop returns, so
        // nothing left to upgrade means every helper has exited.
        assert!(shared.upgrade().is_none(), "a helper outlived its session");
    }

    #[test]
    fn split_errors_return_and_the_next_evaluation_succeeds() {
        use crate::split::Fault;
        let (graph, sub, members) = grown();
        let mut rng = sprout_rng::SproutRng::seed_from_u64(11);
        let pairs = random_pairs(&members, 51, members[0], &mut rng);
        let mut session = NodalSession::with_threads(2);
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);
        // Blocks 0 and 2 are the calling thread's, 1 and 3 the helper's.
        // A helper that panics before the barrier never arrives at it;
        // the round must fail rather than wait, and the next split gets
        // a fresh helper.
        for (fault, expect) in [
            (Fault::Error(0), "injected block failure"),
            (Fault::Error(1), "injected block failure"),
            (Fault::Error(3), "injected block failure"),
            (Fault::Panic(1), "evaluation helper panicked"),
        ] {
            Arc::make_mut(&mut session.kernel).fault = Some(fault);
            let err = session.eval(&graph, &sub, &pairs).unwrap_err();
            assert!(
                matches!(err, SproutError::Internal(msg) if msg == expect),
                "{fault:?}: {err:?}"
            );
            Arc::make_mut(&mut session.kernel).fault = None;
            assert_bitwise_match(&graph, &sub, &pairs, &mut session);
        }
        // A panic on the calling thread unwinds out of `eval` only after
        // releasing the helper; the session stays usable.
        Arc::make_mut(&mut session.kernel).fault = Some(Fault::Panic(0));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.eval(&graph, &sub, &pairs)
        }));
        assert!(unwound.is_err(), "the injected panic must propagate");
        Arc::make_mut(&mut session.kernel).fault = None;
        assert_bitwise_match(&graph, &sub, &pairs, &mut session);
        assert_eq!(session.pool.helpers(), 1);
    }

    #[test]
    fn scratch_engine_matches_node_current_and_counts() {
        let (graph, sub, terminals) = setup();
        let pairs = injection_pairs(&terminals, PairPolicy::SourceToSinks, 3.0);
        let mut session = NodalSession::new();
        let a = scratch_oracle(|| {
            session.eval(&graph, &sub, &pairs).unwrap();
            session.eval(&graph, &sub, &pairs).unwrap()
        });
        let b = node_current(&graph, &sub, &pairs).unwrap();
        assert_eq!(a.resistance_sq().to_bits(), b.resistance_sq().to_bits());
        let stats = session.stats();
        assert_eq!(stats.evals, 2);
        assert_eq!(stats.full_factors, 2, "the oracle factors every evaluation");
        // Leaving the oracle restores the cached path: one fresh factor.
        session.eval(&graph, &sub, &pairs).unwrap();
        let stats = session.stats();
        assert_eq!(stats.evals, 3);
        assert_eq!(stats.full_factors, 3);
        session.eval(&graph, &sub, &pairs).unwrap();
        assert_eq!(session.stats().factor_reuses, 1);
    }
}
