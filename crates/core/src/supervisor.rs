//! Routing job supervisor: panic-isolated concurrent multi-net routing
//! with deadlines, cancellation, and checkpoint/resume.
//!
//! A real board run is many rails × many layers (§II-G back-conversion
//! ordering, §III multilayer experiments). [`Router::route_all`] gives
//! the sequential semantics — each net's claimed copper removed from the
//! available space of the nets after it — but a production run needs
//! more than a `for` loop:
//!
//! * **Panic isolation** — every rail routes behind a `catch_unwind`
//!   boundary on a worker thread. A panic in one rail becomes a typed
//!   [`SproutError::WorkerPanicked`] outcome in the [`JobReport`]
//!   instead of poisoning the whole board run.
//! * **Wave scheduling** — nets on the *same layer* contend for copper,
//!   so same-layer requests are strictly ordered (request order), while
//!   requests on *different layers* are independent (layers are
//!   independent copper — see [`crate::multilayer`]) and route
//!   concurrently. Wave `k` holds the `k`-th request of every layer;
//!   claimed geometry is merged between waves in request order, so a
//!   concurrent run reproduces the sequential result bit for bit.
//! * **Deadlines and cancellation** — a job-level wall-clock deadline
//!   is folded into every worker's per-stage wall cap
//!   ([`RecoveryConfig::stage_wall_ms`](crate::recovery::RecoveryConfig::stage_wall_ms)); a
//!   cooperative [`CancelToken`] is polled between pipeline stages and
//!   between rails. Each rail routes once: the supervisor does not
//!   retry. A caller that wants another try runs the job again over
//!   the same checkpoint (the service's job ledger does exactly that,
//!   with seeded backoff), and [`is_retryable`] tells it which failures
//!   are worth one.
//! * **Checkpoint/resume** — after each wave the completed shapes are
//!   serialized to a versioned text checkpoint (same line-oriented
//!   discipline as [`sprout_board::io`], fingerprint-guarded). A
//!   restarted run over the same board and request list restores each
//!   layer's completed prefix bit-identically and re-routes the rest
//!   of that layer in request order.
//!
//! # Claimed-geometry ordering guarantee
//!
//! For requests `i < j` on the same layer, request `j` always routes
//! with request `i`'s shape (if `i` completed) among its blockers, and
//! blockers accumulate in request order. Requests on different layers
//! never block each other. Failed rails claim nothing. This holds for
//! every thread count and across checkpoint/resume — which is why
//! shapes are reproducible run to run. A rail that completed after a
//! failed rail of its layer routed without that rail's copper, so a
//! checkpoint restores a rail only when every earlier request of its
//! layer is restored too; once the failed rail re-routes, everything
//! after it on that layer re-routes around its copper.

use crate::backconv::RoutedShape;
use crate::recovery::{CancelScope, CancelToken};
use crate::router::{RouteResult, Router, RouterConfig};
use crate::space::BlockerStore;
use crate::tile_cache::TileCache;
use crate::SproutError;
use sprout_board::io::{board_fingerprint, fnv1a64};
use sprout_board::{Board, NetId};
use sprout_geom::stitch::Contour;
use sprout_geom::{Point, Polygon};
use sprout_telemetry as telemetry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One rail request: `(net, layer, area budget mm²)` — the same triple
/// [`Router::route_all`] takes.
pub type RailRequest = (NetId, usize, f64);

/// Checkpoint format version written and accepted by this build.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Largest checkpoint file the loader will read (bytes). Checkpoints
/// the supervisor itself writes are orders of magnitude smaller; a
/// larger file is hostile or corrupt and is rejected before any
/// allocation is sized from its contents.
pub const MAX_CHECKPOINT_BYTES: u64 = 64 * 1024 * 1024;

/// Why a checkpoint file could not be used. Every variant is a typed
/// rejection — hostile or damaged checkpoint input never panics, it
/// reports one of these and the job starts fresh.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read.
    Io(String),
    /// The file exceeds [`MAX_CHECKPOINT_BYTES`].
    Oversized {
        /// Size on disk.
        bytes: u64,
        /// The loader's cap.
        cap: u64,
    },
    /// The file ended before a required record.
    Truncated(String),
    /// The header names a version this build does not accept.
    VersionMismatch(String),
    /// The file is well-formed but belongs to a different board or
    /// request list (fingerprint or rail-identity mismatch).
    Mismatch(String),
    /// A record is syntactically invalid (bad token, bad count,
    /// unreconstructable geometry, duplicate rail).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint unreadable: {e}"),
            CheckpointError::Oversized { bytes, cap } => {
                write!(f, "checkpoint is {bytes} bytes, over the {cap}-byte cap")
            }
            CheckpointError::Truncated(what) => write!(f, "checkpoint truncated before {what}"),
            CheckpointError::VersionMismatch(what) => {
                write!(f, "checkpoint version not accepted: {what}")
            }
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint belongs to a different job: {what}")
            }
            CheckpointError::Malformed(what) => write!(f, "checkpoint malformed: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(e: String) -> Self {
        CheckpointError::Malformed(e)
    }
}

/// Inspects a checkpoint file against a board and request list without
/// running a job: `Ok(None)` when no file exists, `Ok(Some(n))` when
/// the file would restore `n` rails (each layer's completed prefix of
/// requests), and a typed [`CheckpointError`]
/// when the file exists but cannot be used. Never panics, whatever the
/// file contains — this is the same hardened loader the supervisor
/// resume path uses.
///
/// # Errors
///
/// The [`CheckpointError`] describing why the file was rejected.
pub fn verify_checkpoint(
    path: &Path,
    board: &Board,
    requests: &[RailRequest],
) -> Result<Option<usize>, CheckpointError> {
    let board_fp = board_fingerprint(board);
    let job_fp = job_fingerprint(requests);
    match checkpoint::load(path, board_fp, job_fp, requests) {
        Ok(restored) => Ok(Some(restored.len())),
        Err(checkpoint::LoadError::Absent) => Ok(None),
        Err(checkpoint::LoadError::Rejected(e)) => Err(e),
    }
}

/// Per-wave progress snapshot handed to [`SupervisorConfig::on_wave`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveProgress {
    /// The wave that just finished (0-based).
    pub wave: usize,
    /// Total waves in the job.
    pub waves: usize,
    /// Rails complete so far (routed or checkpoint-restored).
    pub rails_complete: usize,
    /// Rails in the job.
    pub rails_total: usize,
    /// Wall-clock since the job started (ms).
    pub elapsed_ms: f64,
    /// Cumulative wall time in the solve-heavy stages (grow + refine +
    /// reheat, §II-H) across routed rails so far (ms).
    pub solve_ms: f64,
}

/// Progress callback: invoked after each wave, *after* that wave's
/// checkpoint hit disk — so an observer that acts on the callback (a
/// fleet worker emitting a progress frame, a coordinator killing the
/// process to test resume) is guaranteed the completed prefix is
/// already recoverable by another process.
pub type WaveHook = Arc<dyn Fn(WaveProgress) + Send + Sync>;

/// Supervisor configuration.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// Worker threads per wave. `0` and `1` both mean "run rails on the
    /// calling thread" (still panic-isolated); higher values route
    /// independent rails of a wave concurrently.
    pub threads: usize,
    /// Job-level wall-clock deadline (ms). Folded into each worker's
    /// per-stage wall-clock budget; rails considered after expiry fail
    /// with [`SproutError::DeadlineExpired`] without routing.
    pub deadline_ms: Option<f64>,
    /// Checkpoint file. `Some` enables write-after-every-wave and
    /// resume-on-start; `None` disables checkpointing entirely.
    pub checkpoint: Option<PathBuf>,
    /// Cooperative cancellation handle. Clone it, hand the clone to the
    /// controlling thread, and call [`CancelToken::cancel`].
    pub cancel: CancelToken,
    /// Test-only mid-run kill: stop the job right after the checkpoint
    /// of this wave is written, leaving later rails unrouted — the
    /// deterministic stand-in for `kill -9` in resume tests.
    pub kill_after_wave: Option<usize>,
    /// Per-wave progress hook, fired after each wave's checkpoint is on
    /// disk. `None` (the default) costs nothing.
    pub on_wave: Option<WaveHook>,
}

impl fmt::Debug for SupervisorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisorConfig")
            .field("threads", &self.threads)
            .field("deadline_ms", &self.deadline_ms)
            .field("checkpoint", &self.checkpoint)
            .field("cancel", &self.cancel)
            .field("kill_after_wave", &self.kill_after_wave)
            .field("on_wave", &self.on_wave.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: crate::available_threads().min(8),
            deadline_ms: None,
            checkpoint: None,
            cancel: CancelToken::new(),
            kill_after_wave: None,
            on_wave: None,
        }
    }
}

impl SupervisorConfig {
    /// The configuration [`Router::route_all`] uses: calling-thread
    /// execution, no deadline, no checkpoint — sequential
    /// semantics, per-rail outcomes.
    pub fn sequential() -> Self {
        SupervisorConfig {
            threads: 1,
            ..SupervisorConfig::default()
        }
    }
}

/// A restored (checkpoint-loaded) rail: the shape and objective survive;
/// the in-memory graph/subgraph do not.
#[derive(Debug, Clone)]
pub struct RestoredRail {
    /// The checkpointed shape, bit-identical to the original run's.
    pub shape: RoutedShape,
    /// Final objective in squares (may be infinite — see
    /// [`RouteResult::final_resistance_sq`]).
    pub final_resistance_sq: f64,
    /// Whether the original run's diagnostics were clean.
    pub was_clean: bool,
}

/// The outcome of one rail of a job.
#[derive(Debug)]
pub enum RailOutcome {
    /// Routed in this run. The supervisor produces exactly one result
    /// per rail; the multilayer executor produces one per connected
    /// region of the layer.
    Routed(Vec<RouteResult>),
    /// Restored from a checkpoint; not re-routed.
    Restored(RestoredRail),
    /// Failed with a typed error. Worker panics
    /// surface here as [`SproutError::WorkerPanicked`], cancellation as
    /// [`SproutError::Cancelled`], deadline expiry as
    /// [`SproutError::DeadlineExpired`].
    Failed(SproutError),
    /// Nothing to route (multilayer: a layer with fewer than two
    /// terminals, such as one whose only terminal is a via landing).
    Skipped {
        /// Why the rail was not attempted.
        reason: String,
    },
}

impl RailOutcome {
    /// `true` for [`RailOutcome::Routed`] and [`RailOutcome::Restored`].
    pub fn is_complete(&self) -> bool {
        matches!(self, RailOutcome::Routed(_) | RailOutcome::Restored(_))
    }

    /// The error, if the rail failed.
    pub fn error(&self) -> Option<&SproutError> {
        match self {
            RailOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Report for one rail of a job.
#[derive(Debug)]
pub struct RailReport {
    /// The routed net.
    pub net: NetId,
    /// The routing layer.
    pub layer: usize,
    /// Requested area budget (mm²).
    pub budget_mm2: f64,
    /// Wave the rail was scheduled in.
    pub wave: usize,
    /// What happened.
    pub outcome: RailOutcome,
}

/// The full report of a supervised routing job: one entry per request,
/// in request order, plus job-level telemetry. Unlike the pre-supervisor
/// `route_all`, a failing rail never discards the rails that completed —
/// every outcome is reported.
#[derive(Debug, Default)]
pub struct JobReport {
    /// Per-rail outcomes, in request order.
    pub rails: Vec<RailReport>,
    /// Number of scheduling waves the job spanned.
    pub waves: usize,
    /// Wall-clock for the whole job (ms).
    pub elapsed_ms: f64,
    /// Rails restored from a checkpoint instead of routed.
    pub resumed: usize,
    /// Job-level warnings (stale/corrupt checkpoint ignored, injected
    /// kill, …) — rail-level trouble lives in each rail's outcome.
    pub warnings: Vec<String>,
}

impl JobReport {
    /// `true` when every rail completed (routed or restored).
    pub fn is_complete(&self) -> bool {
        self.rails.iter().all(|r| r.outcome.is_complete())
    }

    /// Rails that failed, with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (&RailReport, &SproutError)> {
        self.rails
            .iter()
            .filter_map(|r| r.outcome.error().map(|e| (r, e)))
    }

    /// All in-memory route results, in request order (restored rails
    /// contribute nothing here — see [`JobReport::shapes`]).
    pub fn results(&self) -> impl Iterator<Item = &RouteResult> {
        self.rails.iter().flat_map(|r| match &r.outcome {
            RailOutcome::Routed(v) => v.as_slice(),
            _ => &[],
        })
    }

    /// Every completed shape — routed or restored — as
    /// `(net, layer, shape)`, in request order.
    pub fn shapes(&self) -> Vec<(NetId, usize, &RoutedShape)> {
        let mut out = Vec::new();
        for r in &self.rails {
            match &r.outcome {
                RailOutcome::Routed(v) => {
                    out.extend(v.iter().map(|res| (r.net, r.layer, &res.shape)))
                }
                RailOutcome::Restored(rr) => out.push((r.net, r.layer, &rr.shape)),
                _ => {}
            }
        }
        out
    }

    /// The outcome of the first request matching `(net, layer)`.
    pub fn outcome(&self, net: NetId, layer: usize) -> Option<&RailOutcome> {
        self.rails
            .iter()
            .find(|r| r.net == net && r.layer == layer)
            .map(|r| &r.outcome)
    }

    /// Collapses the report into the pre-supervisor `route_all` shape:
    /// all results on success, the first rail error otherwise. Skipped
    /// rails contribute nothing.
    ///
    /// # Errors
    ///
    /// The first failed rail's error; or
    /// [`SproutError::InvalidConfig`] if the report contains restored
    /// rails (their graphs no longer exist — read
    /// [`JobReport::shapes`] instead).
    pub fn into_results(self) -> Result<Vec<RouteResult>, SproutError> {
        let mut out = Vec::new();
        for rail in self.rails {
            match rail.outcome {
                RailOutcome::Routed(v) => out.extend(v),
                RailOutcome::Failed(e) => return Err(e),
                RailOutcome::Restored(_) => {
                    return Err(SproutError::InvalidConfig(
                        "restored rails carry no in-memory RouteResult; read JobReport::shapes",
                    ))
                }
                RailOutcome::Skipped { .. } => {}
            }
        }
        Ok(out)
    }
}

/// What every rail of one [`Supervisor::run`] reads: the requests, the
/// claims merged so far, the job's blocker store and its start.
struct Job<'j> {
    requests: &'j [RailRequest],
    claimed: &'j HashMap<usize, Vec<Polygon>>,
    store: &'j BlockerStore,
    start: Instant,
}

/// The routing job supervisor. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Supervisor<'b> {
    board: &'b Board,
    router_config: RouterConfig,
    config: SupervisorConfig,
    /// The graphs every rail's router draws from, so repeated spaces
    /// share a graph instead of re-tiling from scratch.
    /// Graphs are immutable and shared by reference, so sharing is safe
    /// at any thread count.
    tile_cache: TileCache,
    /// Checkpoint guard: the board's fingerprint.
    board_fp: u64,
}

impl<'b> Supervisor<'b> {
    /// Creates a supervisor over `board`, routing every rail with
    /// `router_config` under the job policy in `config`. The job tiles through a cache of its own,
    /// dropped with the supervisor.
    pub fn new(board: &'b Board, router_config: RouterConfig, config: SupervisorConfig) -> Self {
        Supervisor {
            board,
            router_config,
            config,
            tile_cache: TileCache::new(),
            board_fp: board_fingerprint(board),
        }
    }

    /// Tiles through `cache` instead of a per-job one. A serving
    /// executor passes the one cache it keeps for its lifetime, so a
    /// board it has seen before skips tiling; graphs are keyed by their
    /// exact space, so only identical spaces share one.
    pub fn with_tile_cache(mut self, cache: TileCache) -> Self {
        self.tile_cache = cache;
        self
    }

    /// The active supervisor configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Runs the job: partitions `requests` into waves, routes each wave
    /// (concurrently when [`SupervisorConfig::threads`] allows), merges
    /// claimed geometry between waves, checkpoints, and reports every
    /// outcome. Never panics and never aborts the process: worker
    /// panics, deadline expiry, and cancellation all come back as typed
    /// rail outcomes.
    pub fn run(&self, requests: &[RailRequest]) -> JobReport {
        let start = Instant::now();
        let mut report = JobReport::default();
        let waves = partition_waves(requests);
        report.waves = waves.len();
        let mut job_span = telemetry::span("job")
            .field("rails", requests.len())
            .field("waves", waves.len())
            .field("threads", self.config.threads)
            .enter();

        let mut slots: Vec<Option<RailReport>> = (0..requests.len()).map(|_| None).collect();

        // Resume: restore completed rails from a fingerprint-matched
        // checkpoint; a stale or corrupt file is ignored with a warning.
        let board_fp = self.board_fp;
        let job_fp = job_fingerprint(requests);
        if let Some(path) = &self.config.checkpoint {
            let mut load_span = telemetry::span("checkpoint_load").enter();
            match checkpoint::load(path, board_fp, job_fp, requests) {
                Ok(restored) => {
                    load_span.record("restored", restored.len());
                    for r in restored {
                        report.resumed += 1;
                        slots[r.index] = Some(RailReport {
                            net: requests[r.index].0,
                            layer: requests[r.index].1,
                            budget_mm2: requests[r.index].2,
                            wave: wave_of(&waves, r.index),
                            outcome: RailOutcome::Restored(r.rail),
                        });
                    }
                }
                Err(checkpoint::LoadError::Absent) => {}
                Err(checkpoint::LoadError::Rejected(why)) => {
                    report
                        .warnings
                        .push(format!("checkpoint ignored ({why}); starting fresh"));
                }
            }
        }

        // Claimed geometry, per layer, merged between waves in request
        // order (the ordering guarantee in the module docs).
        let mut claimed: HashMap<usize, Vec<Polygon>> = HashMap::new();
        // The job's buffered blockers: every attempt of every wave
        // buffers a foreign element or a claimed shape at most once.
        let store = BlockerStore::new();

        for (wave_no, wave) in waves.iter().enumerate() {
            let pending: Vec<usize> = wave
                .iter()
                .copied()
                .filter(|&i| slots[i].is_none())
                .collect();
            let _wave_span = telemetry::span("wave")
                .field("wave", wave_no)
                .field("pending", pending.len())
                .enter();

            if !pending.is_empty() {
                let job = Job {
                    requests,
                    claimed: &claimed,
                    store: &store,
                    start,
                };
                let outcomes = self.run_wave(wave_no, &pending, &job);
                for (i, rail_report) in outcomes {
                    slots[i] = Some(rail_report);
                }
            }

            // Merge claims in request order (wave lists are ascending).
            for &i in wave {
                let layer = requests[i].1;
                if let Some(slot) = &slots[i] {
                    let claims = claimed.entry(layer).or_default();
                    match &slot.outcome {
                        RailOutcome::Routed(v) => {
                            for res in v {
                                claims.extend(res.shape.blocker_polygons());
                            }
                        }
                        RailOutcome::Restored(rr) => {
                            claims.extend(rr.shape.blocker_polygons());
                        }
                        _ => {}
                    }
                }
            }

            // Checkpoint the completed prefix of the job.
            if let Some(path) = &self.config.checkpoint {
                let _save_span = telemetry::span("checkpoint_save")
                    .field("wave", wave_no)
                    .enter();
                if let Err(e) = checkpoint::save(path, board_fp, job_fp, requests, &slots) {
                    report
                        .warnings
                        .push(format!("checkpoint write failed after wave {wave_no}: {e}"));
                }
            }

            if let Some(hook) = &self.config.on_wave {
                let solve_ms = slots
                    .iter()
                    .flatten()
                    .filter_map(|r| match &r.outcome {
                        RailOutcome::Routed(v) => Some(v),
                        _ => None,
                    })
                    .flatten()
                    .map(|res| res.timings.grow_ms + res.timings.refine_ms + res.timings.reheat_ms)
                    .sum();
                hook(WaveProgress {
                    wave: wave_no,
                    waves: waves.len(),
                    rails_complete: slots
                        .iter()
                        .filter(|s| s.as_ref().is_some_and(|r| r.outcome.is_complete()))
                        .count(),
                    rails_total: requests.len(),
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    solve_ms,
                });
            }

            if self.config.kill_after_wave == Some(wave_no) {
                // Like a dead process, a killed job neither routes,
                // checkpoints nor reports another wave; its later
                // rails end unrun below.
                report.warnings.push(format!(
                    "job killed after wave {wave_no} (injected mid-run kill)"
                ));
                break;
            }
        }

        report.rails = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    finished_rail(requests[i], wave_of(&waves, i), SproutError::Cancelled)
                })
            })
            .collect();
        report.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        job_span.record("resumed", report.resumed);
        job_span.record("complete", report.is_complete());
        report
    }

    /// Routes one wave's pending rails, on the calling thread or across
    /// a worker pool, and returns `(request index, report)` pairs.
    fn run_wave(&self, wave_no: usize, pending: &[usize], job: &Job) -> Vec<(usize, RailReport)> {
        if self.config.threads <= 1 || pending.len() <= 1 {
            return pending
                .iter()
                .map(|&i| (i, self.run_rail(i, wave_no, job, 1)))
                .collect();
        }
        let next = AtomicUsize::new(0);
        // Recorders are scoped per thread: capture the caller's and
        // re-install it inside each worker so rail spans keep flowing.
        let recorder = telemetry::current();
        // Per-rail result slots: a worker only ever touches the slots it
        // claimed via `next`, so the handoff is an uncontended write to
        // a private mutex instead of every worker funnelling through one
        // shared channel lock. The probe stays on the same name so the
        // profiler's ScalingDiagnosis tracks the wait time (now ~zero).
        let handoff = telemetry::prof::lock_stats("supervisor.result_handoff");
        let results: Vec<std::sync::Mutex<Option<RailReport>>> = pending
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let workers = self.config.threads.min(pending.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let results = &results;
                let recorder = recorder.clone();
                let handoff = Arc::clone(&handoff);
                scope.spawn(move || {
                    let _telemetry = recorder.map(telemetry::RecorderScope::install);
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = pending.get(slot) else { break };
                        let rail = self.run_rail(i, wave_no, job, workers);
                        handoff.time(|| {
                            *results[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(rail);
                        });
                    }
                });
            }
        });
        pending
            .iter()
            .copied()
            .zip(results)
            .filter_map(|(i, cell)| {
                cell.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .map(|rail| (i, rail))
            })
            .collect()
    }

    /// Routes one rail once, behind the `catch_unwind` boundary, with
    /// the job deadline folded into its stage budgets. The rail shares
    /// the router's threads with the other `workers - 1` rails routing
    /// beside it.
    fn run_rail(&self, index: usize, wave: usize, job: &Job, workers: usize) -> RailReport {
        let request = job.requests[index];
        let (net, layer, budget) = request;
        let _rail_span = telemetry::span("rail")
            .field("net", net.0 as u64)
            .field("layer", layer)
            .field("budget_mm2", budget)
            .field("wave", wave)
            .enter();
        if self.config.cancel.is_cancelled() {
            return finished_rail(request, wave, SproutError::Cancelled);
        }
        let mut config = self.router_config;
        if let Some(deadline_ms) = self.config.deadline_ms {
            let elapsed_ms = job.start.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms >= deadline_ms {
                let e = SproutError::DeadlineExpired {
                    deadline_ms,
                    elapsed_ms,
                };
                return finished_rail(request, wave, e);
            }
            let remaining = (deadline_ms - elapsed_ms).max(1.0);
            config.recovery.stage_wall_ms = config.recovery.stage_wall_ms.min(remaining);
        }
        if workers > 1 {
            config.threads = (crate::resolve_threads(config.threads) / workers).max(1);
        }
        let blockers: &[Polygon] = job.claimed.get(&layer).map(Vec::as_slice).unwrap_or(&[]);

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _cancel = CancelScope::install(self.config.cancel.clone());
            if let Some(plan) = config.recovery.fault {
                if plan.worker_panics(index) {
                    panic!(
                        "injected worker panic (fault seed {}, rail {index})",
                        plan.seed
                    );
                }
            }
            let router = Router::with_caches(
                self.board,
                config,
                self.tile_cache.clone(),
                job.store.clone(),
            );
            router.route_net_with(net, layer, budget, blockers, &[])
        }));
        let e = match outcome {
            Ok(Ok(result)) => {
                return RailReport {
                    net,
                    layer,
                    budget_mm2: budget,
                    wave,
                    outcome: RailOutcome::Routed(vec![result]),
                }
            }
            Ok(Err(e)) => e,
            Err(payload) => {
                let message = panic_message(payload);
                telemetry::counter!("supervisor.worker_panics");
                telemetry::point("worker_panic")
                    .field("net", net.0 as u64)
                    .field("layer", layer)
                    .field("message", message.clone())
                    .emit();
                SproutError::WorkerPanicked {
                    net,
                    layer,
                    message,
                }
            }
        };
        finished_rail(request, wave, e)
    }
}

/// The report of a rail that ends in `e` — failed, or never run.
fn finished_rail((net, layer, budget): RailRequest, wave: usize, e: SproutError) -> RailReport {
    RailReport {
        net,
        layer,
        budget_mm2: budget,
        wave,
        outcome: RailOutcome::Failed(e),
    }
}

/// Partitions request indices into waves: wave `k` holds the `k`-th
/// request of every layer, in request order. Same-layer requests land in
/// distinct waves (they contend for copper); cross-layer requests share
/// waves (layers are independent copper).
fn partition_waves(requests: &[RailRequest]) -> Vec<Vec<usize>> {
    let mut per_layer: HashMap<usize, usize> = HashMap::new();
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (i, &(_, layer, _)) in requests.iter().enumerate() {
        let count = per_layer.entry(layer).or_insert(0);
        let wave = *count;
        *count += 1;
        if waves.len() <= wave {
            waves.push(Vec::new());
        }
        waves[wave].push(i);
    }
    waves
}

fn wave_of(waves: &[Vec<usize>], index: usize) -> usize {
    waves.iter().position(|w| w.contains(&index)).unwrap_or(0)
}

/// Stable fingerprint of the request list — with the board fingerprint,
/// the checkpoint's identity key.
fn job_fingerprint(requests: &[RailRequest]) -> u64 {
    let mut bytes = Vec::with_capacity(requests.len() * 24);
    for &(net, layer, budget) in requests {
        bytes.extend_from_slice(&(net.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(layer as u64).to_le_bytes());
        bytes.extend_from_slice(&budget.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Whether a rail failure is worth another run of the job. Failures
/// that are deterministic properties of the input (bad config, blocked
/// terminals, impossible budgets) or job-control outcomes
/// (cancellation, deadline expiry) are not; solver breakdowns and
/// worker panics may be transient.
///
/// The supervisor itself never retries; service layers (the job
/// ledger's retry queue) read this classification instead of inventing
/// their own.
pub fn is_retryable(e: &SproutError) -> bool {
    !matches!(
        e,
        SproutError::InvalidConfig(_)
            | SproutError::Board(_)
            | SproutError::NoTerminals { .. }
            | SproutError::TerminalBlocked { .. }
            | SproutError::DisjointSpace { .. }
            | SproutError::AreaBudgetTooSmall { .. }
            | SproutError::NoMultilayerPath
            | SproutError::Cancelled
            | SproutError::DeadlineExpired { .. }
            | SproutError::Internal(_)
    )
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Versioned text checkpoints. Same line-oriented, dependency-free
/// discipline as [`sprout_board::io`]; all floating-point payload is
/// written as IEEE-754 bit patterns in hex, so a restored shape is
/// bit-identical to the checkpointed one. A file that fails any check —
/// version, board fingerprint, job fingerprint, rail identity,
/// geometry reconstruction — is rejected wholesale and the job starts
/// fresh (a checkpoint is an optimization, never an obligation).
mod checkpoint {
    use super::*;
    use std::fmt::Write as _;

    pub(super) struct Restored {
        pub index: usize,
        pub rail: RestoredRail,
    }

    pub(super) enum LoadError {
        /// No checkpoint file at the path (a fresh run, not a problem).
        Absent,
        /// The file exists but cannot be used; the typed reason is
        /// reported as a job warning.
        Rejected(CheckpointError),
    }

    fn hex(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    fn unhex(token: &str) -> Result<f64, String> {
        u64::from_str_radix(token, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad f64 bits `{token}`"))
    }

    fn write_ring(out: &mut String, kind: &str, points: &[Point]) {
        let _ = write!(out, "{kind} {}", points.len());
        for p in points {
            let _ = write!(out, " {} {}", hex(p.x), hex(p.y));
        }
        out.push('\n');
    }

    /// Whether rail `index` can be restored, given which rails are
    /// `complete`: every earlier request of its layer must be too. A
    /// rail that completed after a failed rail of its layer routed
    /// without that rail's copper; once the failed rail re-routes, the
    /// later one would overlap it. [`save`] writes only these rails,
    /// and [`parse`] keeps only these (a hostile or older file may hold
    /// others).
    fn in_completed_prefix(
        requests: &[RailRequest],
        index: usize,
        complete: impl Fn(usize) -> bool,
    ) -> bool {
        let layer = requests[index].1;
        (0..index).all(|j| requests[j].1 != layer || complete(j))
    }

    /// The shape, objective and cleanliness a rail's checkpoint record
    /// carries; `None` for a rail that has no record. Failed rails
    /// re-run on resume; multi-result rails are not produced by the
    /// supervisor.
    fn record(slot: &Option<RailReport>) -> Option<(&RoutedShape, f64, bool)> {
        match &slot.as_ref()?.outcome {
            RailOutcome::Routed(v) if v.len() == 1 => Some((
                &v[0].shape,
                v[0].final_resistance_sq,
                v[0].diagnostics.is_clean(),
            )),
            RailOutcome::Restored(rr) => Some((&rr.shape, rr.final_resistance_sq, rr.was_clean)),
            _ => None,
        }
    }

    pub(super) fn save(
        path: &Path,
        board_fp: u64,
        job_fp: u64,
        requests: &[RailRequest],
        slots: &[Option<RailReport>],
    ) -> Result<(), String> {
        let mut out = String::new();
        let _ = writeln!(out, "sprout-checkpoint v{CHECKPOINT_VERSION}");
        let _ = writeln!(out, "board {board_fp:016x}");
        let _ = writeln!(out, "job {job_fp:016x}");
        let _ = writeln!(out, "rails {}", requests.len());
        let complete = |j: usize| record(&slots[j]).is_some();
        for (i, slot) in slots.iter().enumerate() {
            let Some((shape, resistance, clean)) = record(slot) else {
                continue;
            };
            if !in_completed_prefix(requests, i, complete) {
                continue;
            }
            let (net, layer, budget) = requests[i];
            let _ = writeln!(
                out,
                "rail {i} {} {layer} {} {} {}",
                net.0,
                hex(budget),
                hex(resistance),
                u8::from(clean),
            );
            let _ = writeln!(out, "area {}", hex(shape.area_mm2()));
            for c in &shape.contours {
                let _ = write!(out, "contour {}", u8::from(c.is_hole));
                let _ = write!(out, " {}", c.points.len());
                for p in &c.points {
                    let _ = write!(out, " {} {}", hex(p.x), hex(p.y));
                }
                out.push('\n');
            }
            for f in &shape.fragments {
                write_ring(&mut out, "fragment", f.vertices());
            }
            for r in shape.run_rects() {
                write_ring(&mut out, "runrect", r.vertices());
            }
            let _ = writeln!(out, "endrail");
        }
        let _ = writeln!(out, "end");

        // Atomic-enough: write a sibling temp file, then rename over.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &out).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, path).map_err(|e| e.to_string())
    }

    pub(super) fn load(
        path: &Path,
        board_fp: u64,
        job_fp: u64,
        requests: &[RailRequest],
    ) -> Result<Vec<Restored>, LoadError> {
        // Size-gate before reading: nothing downstream may size an
        // allocation from a file the supervisor could not have written.
        match std::fs::metadata(path) {
            Ok(meta) if meta.len() > MAX_CHECKPOINT_BYTES => {
                return Err(LoadError::Rejected(CheckpointError::Oversized {
                    bytes: meta.len(),
                    cap: MAX_CHECKPOINT_BYTES,
                }))
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(LoadError::Absent),
            Err(e) => return Err(LoadError::Rejected(CheckpointError::Io(e.to_string()))),
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(LoadError::Absent),
            Err(e) => return Err(LoadError::Rejected(CheckpointError::Io(e.to_string()))),
        };
        parse(&text, board_fp, job_fp, requests).map_err(LoadError::Rejected)
    }

    fn parse(
        text: &str,
        board_fp: u64,
        job_fp: u64,
        requests: &[RailRequest],
    ) -> Result<Vec<Restored>, CheckpointError> {
        let mut lines = text.lines();
        let expect = |line: Option<&str>, what: &str| -> Result<Vec<String>, CheckpointError> {
            let line = line.ok_or_else(|| CheckpointError::Truncated(what.to_owned()))?;
            Ok(line.split_whitespace().map(str::to_owned).collect())
        };

        let header = expect(lines.next(), "header")?;
        if header.len() != 2 || header[0] != "sprout-checkpoint" {
            return Err(CheckpointError::Malformed(format!(
                "unsupported header {header:?}"
            )));
        }
        if header[1] != format!("v{CHECKPOINT_VERSION}") {
            return Err(CheckpointError::VersionMismatch(format!(
                "{} (this build accepts v{CHECKPOINT_VERSION})",
                header[1]
            )));
        }
        let board = expect(lines.next(), "board fingerprint")?;
        if board.len() != 2 || board[0] != "board" || board[1] != format!("{board_fp:016x}") {
            return Err(CheckpointError::Mismatch("board fingerprint".into()));
        }
        let job = expect(lines.next(), "job fingerprint")?;
        if job.len() != 2 || job[0] != "job" || job[1] != format!("{job_fp:016x}") {
            return Err(CheckpointError::Mismatch("request-list fingerprint".into()));
        }
        let rails = expect(lines.next(), "rail count")?;
        if rails.len() != 2 || rails[0] != "rails" || rails[1] != requests.len().to_string() {
            return Err(CheckpointError::Mismatch("rail count".into()));
        }

        let mut out: Vec<Restored> = Vec::new();
        loop {
            let tokens = expect(lines.next(), "rail or end")?;
            match tokens.first().map(String::as_str) {
                Some("end") => break,
                Some("rail") => {}
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "expected rail/end, got {other:?}"
                    )))
                }
            }
            if tokens.len() != 7 {
                return Err(CheckpointError::Malformed("malformed rail line".into()));
            }
            let index: usize = tokens[1]
                .parse()
                .map_err(|_| CheckpointError::Malformed("bad rail index".into()))?;
            let (net, layer, budget) = *requests
                .get(index)
                .ok_or_else(|| CheckpointError::Mismatch("rail index out of range".into()))?;
            if tokens[2] != net.0.to_string()
                || tokens[3] != layer.to_string()
                || unhex(&tokens[4])?.to_bits() != budget.to_bits()
            {
                return Err(CheckpointError::Mismatch(format!(
                    "rail {index} does not match the request list"
                )));
            }
            let resistance = unhex(&tokens[5])?;
            let clean = tokens[6] == "1";

            let area_line = expect(lines.next(), "area")?;
            if area_line.len() != 2 || area_line[0] != "area" {
                return Err(CheckpointError::Malformed("expected area line".into()));
            }
            let area = unhex(&area_line[1])?;

            let mut contours: Vec<Contour> = Vec::new();
            let mut fragments: Vec<Polygon> = Vec::new();
            let mut run_rects: Vec<Polygon> = Vec::new();
            loop {
                let tokens = expect(lines.next(), "shape record")?;
                match tokens.first().map(String::as_str) {
                    Some("endrail") => break,
                    Some("contour") => {
                        if tokens.len() < 3 {
                            return Err(CheckpointError::Malformed("malformed contour".into()));
                        }
                        let is_hole = tokens[1] == "1";
                        let points = parse_points(&tokens[3..], &tokens[2])?;
                        contours.push(Contour { points, is_hole });
                    }
                    Some(kind @ ("fragment" | "runrect")) => {
                        if tokens.len() < 2 {
                            return Err(CheckpointError::Malformed(format!("malformed {kind}")));
                        }
                        let points = parse_points(&tokens[2..], &tokens[1])?;
                        let poly = Polygon::new(points).map_err(|e| {
                            CheckpointError::Malformed(format!("{kind} rejected: {e}"))
                        })?;
                        if kind == "fragment" {
                            fragments.push(poly);
                        } else {
                            run_rects.push(poly);
                        }
                    }
                    other => {
                        return Err(CheckpointError::Malformed(format!(
                            "unknown shape record {other:?}"
                        )))
                    }
                }
            }
            out.push(Restored {
                index,
                rail: RestoredRail {
                    shape: RoutedShape::from_parts(contours, fragments, run_rects, area),
                    final_resistance_sq: resistance,
                    was_clean: clean,
                },
            });
        }
        // Duplicate rail records would silently double-claim geometry.
        let mut seen = std::collections::HashSet::new();
        if !out.iter().all(|r| seen.insert(r.index)) {
            return Err(CheckpointError::Malformed("duplicate rail record".into()));
        }
        // Restore each layer's completed prefix only, and let the rest
        // of the layer re-route in order.
        out.retain(|r| in_completed_prefix(requests, r.index, |j| seen.contains(&j)));
        Ok(out)
    }

    fn parse_points(tokens: &[String], count: &str) -> Result<Vec<Point>, CheckpointError> {
        let n: usize = count
            .parse()
            .map_err(|_| CheckpointError::Malformed("bad point count".into()))?;
        // checked_mul: a hostile count near usize::MAX must not trip the
        // debug-build overflow panic before the length comparison.
        let expected = n
            .checked_mul(2)
            .ok_or_else(|| CheckpointError::Malformed(format!("point count {n} overflows")))?;
        if tokens.len() != expected {
            return Err(CheckpointError::Malformed(format!(
                "expected {n} points, got {} tokens",
                tokens.len()
            )));
        }
        let mut points = Vec::with_capacity(n);
        for pair in tokens.chunks_exact(2) {
            points.push(Point::new(unhex(&pair[0])?, unhex(&pair[1])?));
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_serialize_same_layer_and_parallelize_across_layers() {
        let n = NetId(0);
        let waves = partition_waves(&[
            (n, 6, 10.0), // wave 0
            (n, 6, 10.0), // wave 1 (same layer as #0)
            (n, 4, 10.0), // wave 0 (different layer)
            (n, 4, 10.0), // wave 1
            (n, 2, 10.0), // wave 0
        ]);
        assert_eq!(waves, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    /// The two_rail preset with its layer-6 terminals mirrored onto
    /// layer 4, so a wave routes a rail on each layer at once and the
    /// two layers' spaces share foreign shapes.
    fn stacked_two_rail() -> Board {
        let mut board = sprout_board::presets::two_rail();
        let mirrored: Vec<_> = board
            .elements()
            .iter()
            .filter(|e| e.layer == 6 && e.is_terminal())
            .cloned()
            .collect();
        for mut e in mirrored {
            e.layer = 4;
            board.add_element(e).unwrap();
        }
        board
    }

    #[test]
    fn one_store_serves_concurrent_layers_alike_at_one_and_two_threads() {
        let board = stacked_two_rail();
        let nets: Vec<NetId> = board.power_nets().map(|(id, _)| id).collect();
        let requests = [
            (nets[0], 6, 20.0),
            (nets[0], 4, 20.0),
            (nets[1], 6, 20.0),
            (nets[1], 4, 20.0),
        ];
        let router = RouterConfig {
            tile_pitch_mm: 0.5,
            grow_iterations: 8,
            refine_iterations: 2,
            reheat: None,
            ..RouterConfig::default()
        };
        let run = |threads| {
            let job = SupervisorConfig {
                threads,
                ..SupervisorConfig::default()
            };
            let report = Supervisor::new(&board, router, job).run(&requests);
            assert_eq!(report.waves, 2);
            report.into_results().unwrap()
        };
        let pieces = |results: &[RouteResult]| {
            let buffered: usize = results.iter().map(|r| r.timings.space_buffered).sum();
            let served: usize = results.iter().map(|r| r.timings.space_served).sum();
            (buffered, served)
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.len(), 4);
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.shape.area_mm2().to_bits(), b.shape.area_mm2().to_bits());
            assert_eq!(a.shape.blocker_polygons(), b.shape.blocker_polygons());
            assert_eq!(
                a.final_resistance_sq.to_bits(),
                b.final_resistance_sq.to_bits()
            );
            assert_eq!(a.timings.solves, b.timings.solves);
        }
        // Whichever rail of a wave asks first, each shape is buffered
        // once and served to every other space of the job.
        let (buffered, served) = pieces(&one);
        assert_eq!(pieces(&two), (buffered, served));
        assert!(
            served > 0 && buffered > 0,
            "{buffered} buffered, {served} served"
        );
    }

    #[test]
    fn job_fingerprint_tracks_content() {
        let a = job_fingerprint(&[(NetId(0), 6, 20.0), (NetId(1), 6, 22.0)]);
        let b = job_fingerprint(&[(NetId(0), 6, 20.0), (NetId(1), 6, 22.0)]);
        let c = job_fingerprint(&[(NetId(0), 6, 20.0), (NetId(1), 6, 22.5)]);
        let d = job_fingerprint(&[(NetId(1), 6, 22.0), (NetId(0), 6, 20.0)]);
        assert_eq!(a, b);
        assert_ne!(a, c, "budget changes the fingerprint");
        assert_ne!(a, d, "order changes the fingerprint");
    }

    #[test]
    fn retry_classification_is_conservative() {
        assert!(!is_retryable(&SproutError::InvalidConfig("x")));
        assert!(!is_retryable(&SproutError::Cancelled));
        assert!(!is_retryable(&SproutError::DeadlineExpired {
            deadline_ms: 1.0,
            elapsed_ms: 2.0,
        }));
        assert!(is_retryable(&SproutError::WorkerPanicked {
            net: NetId(0),
            layer: 6,
            message: "boom".into(),
        }));
        assert!(is_retryable(&SproutError::Linalg(
            sprout_linalg::LinalgError::NotFinite { row: 0, col: 0 }
        )));
    }
}
