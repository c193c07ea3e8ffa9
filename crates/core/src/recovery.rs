//! Stage guards, route diagnostics, and the fault-injection harness.
//!
//! The routing pipeline (seed → SmartGrow → SmartRefine → reheat) is a
//! long chain of numerical stages, any of which can fail on marginal
//! inputs: a solver breakdown, a NaN conductance from a degenerate
//! tile, a stage that stops converging and eats the wall-clock budget.
//! This module gives the router the vocabulary to *degrade* instead of
//! *die*. A failed optimization stage has one response: the router
//! reverts to the best subgraph it has evaluated and carries on.
//!
//! * [`RecoveryConfig`] / [`StageGuard`] — a per-stage wall-clock cap,
//!   checked between optimization steps.
//! * [`RouteDiagnostics`] — a record of every degradation taken while
//!   producing a result, attached to
//!   [`RouteResult`](crate::router::RouteResult).
//! * [`FaultPlan`] / [`FaultScope`] — a deterministic, seed-driven
//!   fault injector used by the test suite to prove the router returns
//!   a connected, DRC-clean shape (or a typed error) under every
//!   injected fault. Faults cost one thread-local read per query when
//!   disabled.
//! * [`CancelToken`] / [`CancelScope`] — cooperative cancellation,
//!   polled by the router between pipeline stages and by the
//!   [`Supervisor`](crate::supervisor::Supervisor) between rails and
//!   waves.

use sprout_linalg::fallback::Rung;
use sprout_rng::{hash3, u64_to_f64};
use sprout_telemetry as telemetry;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A pipeline stage, as named in degradations and fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Stage {
    /// Seed construction (Algorithm 2).
    Seed,
    /// SmartGrow (Algorithm 4).
    Grow,
    /// SmartRefine (Algorithm 5).
    Refine,
    /// Reheating (§II-F), including its post-refine passes.
    Reheat,
    /// Back conversion (§II-G).
    BackConvert,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Seed => "seed",
            Stage::Grow => "grow",
            Stage::Refine => "refine",
            Stage::Reheat => "reheat",
            Stage::BackConvert => "back-convert",
        };
        f.write_str(name)
    }
}

/// Recovery configuration carried by
/// [`RouterConfig`](crate::router::RouterConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Wall-clock cap per optimization stage (ms), checked between
    /// steps, so a stage overruns by at most one step. Infinite by
    /// default.
    pub stage_wall_ms: f64,
    /// Deterministic fault injection (testing only; `None` in
    /// production).
    pub fault: Option<FaultPlan>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            stage_wall_ms: f64::INFINITY,
            fault: None,
        }
    }
}

/// One degradation taken while producing a route.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Degradation {
    /// A linear solve needed a lower rung of the fallback ladder.
    SolverFallback {
        /// Stage whose metric evaluation degraded.
        stage: Stage,
        /// The rung that finally worked.
        rung: Rung,
    },
    /// Non-finite or non-positive conductances were dropped before
    /// solving.
    EdgesSanitized {
        /// Stage whose metric evaluation was affected.
        stage: Stage,
        /// Number of edges dropped.
        count: usize,
    },
    /// A stage failed and the subgraph reverted to the best seen.
    RevertedToBest {
        /// The failing stage.
        stage: Stage,
    },
    /// A stage hit its wall-clock cap (or a forced timeout) and was cut
    /// short.
    BudgetOverrun {
        /// The truncated stage.
        stage: Stage,
        /// Wall-clock spent when the guard fired (ms).
        elapsed_ms: f64,
    },
    /// Degenerate fragments were dropped from the back-converted shape.
    FragmentsDropped {
        /// Number of fragments removed.
        count: usize,
    },
    /// A connected-component group could not be routed and was skipped.
    GroupSkipped,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::SolverFallback { stage, rung } => {
                write!(f, "solver fallback to {rung:?} during {stage}")
            }
            Degradation::EdgesSanitized { stage, count } => {
                write!(f, "{count} non-finite edge(s) sanitized during {stage}")
            }
            Degradation::RevertedToBest { stage } => {
                write!(f, "{stage} stage reverted to best subgraph")
            }
            Degradation::BudgetOverrun { stage, elapsed_ms } => {
                write!(f, "{stage} stage over budget ({elapsed_ms:.1} ms)")
            }
            Degradation::FragmentsDropped { count } => {
                write!(f, "{count} degenerate fragment(s) dropped")
            }
            Degradation::GroupSkipped => f.write_str("terminal group skipped"),
        }
    }
}

/// Everything that went sideways while producing a
/// [`RouteResult`](crate::router::RouteResult).
///
/// An empty diagnostics (see [`is_clean`](RouteDiagnostics::is_clean))
/// means the route ran exactly as the pre-recovery pipeline would have.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use]
pub struct RouteDiagnostics {
    /// Every degradation, in the order it occurred.
    pub degradations: Vec<Degradation>,
    /// Human-readable warnings (stage errors the router absorbed).
    pub warnings: Vec<String>,
    /// Count of [`Degradation::SolverFallback`] entries.
    pub solver_fallbacks: usize,
    /// Total edges dropped across [`Degradation::EdgesSanitized`].
    pub edges_sanitized: usize,
    /// Count of reverted stages and skipped terminal groups.
    pub stages_skipped: usize,
    /// Count of [`Degradation::BudgetOverrun`] entries.
    pub budget_overruns: usize,
}

impl RouteDiagnostics {
    /// `true` when the route ran without any degradation or warning.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty() && self.warnings.is_empty()
    }

    /// Records a degradation and updates the summary counters.
    pub fn record(&mut self, d: Degradation) {
        match &d {
            Degradation::SolverFallback { .. } => self.solver_fallbacks += 1,
            Degradation::EdgesSanitized { count, .. } => self.edges_sanitized += count,
            Degradation::RevertedToBest { .. } | Degradation::GroupSkipped => {
                self.stages_skipped += 1
            }
            Degradation::BudgetOverrun { .. } => self.budget_overruns += 1,
            Degradation::FragmentsDropped { .. } => {}
        }
        self.degradations.push(d);
    }

    /// Appends a warning line.
    pub fn warn(&mut self, message: String) {
        self.warnings.push(message);
    }

    /// Drains the thread-local solver-event channel into this record,
    /// tagging each event with the stage that triggered it.
    pub(crate) fn absorb_events(&mut self, stage: Stage) {
        for e in drain_events() {
            match e {
                SolverEvent::Fallback(rung) => {
                    self.record(Degradation::SolverFallback { stage, rung })
                }
                SolverEvent::Sanitized(count) => {
                    self.record(Degradation::EdgesSanitized { stage, count })
                }
            }
        }
    }
}

/// Wall-clock guard for one stage run. Construct with
/// [`StageGuard::begin`] before the stage's loop; call
/// [`StageGuard::over_budget`] between steps.
pub struct StageGuard {
    stage: Stage,
    wall_ms: f64,
    start: Instant,
}

impl StageGuard {
    /// Starts guarding `stage` under a `wall_ms` cap.
    pub fn begin(stage: Stage, wall_ms: f64) -> Self {
        StageGuard {
            stage,
            wall_ms,
            start: Instant::now(),
        }
    }

    /// Returns the overrun degradation once the stage has spent its
    /// wall-clock cap (or a fault plan forces a timeout).
    pub fn over_budget(&self) -> Option<Degradation> {
        let elapsed_ms = self.start.elapsed().as_secs_f64() * 1e3;
        if fault_timeout(self.stage) || elapsed_ms > self.wall_ms {
            telemetry::counter!("router.budget_overruns");
            telemetry::point("budget_overrun")
                .field("stage", self.stage.to_string())
                .field("elapsed_ms", elapsed_ms)
                .emit();
            Some(Degradation::BudgetOverrun {
                stage: self.stage,
                elapsed_ms,
            })
        } else {
            None
        }
    }
}

/// Cooperative cancellation handle shared between a
/// [`Supervisor`](crate::supervisor::Supervisor) job and its caller.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same
/// flag. The router checks the innermost installed token between
/// pipeline stages and aborts the rail with
/// [`SproutError::Cancelled`](crate::SproutError::Cancelled) once it is
/// set — cancellation is cooperative, so a stage in flight finishes its
/// current step first.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; observed by every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Installs a [`CancelToken`] on the current thread for the guard's
/// lifetime; the router polls it between pipeline stages. Scopes nest;
/// the innermost token wins. The supervisor installs one per worker —
/// direct use is only needed when driving pipeline stages by hand.
pub struct CancelScope(());

impl CancelScope {
    /// Installs `token`; checks deactivate when the guard drops.
    pub fn install(token: CancelToken) -> CancelScope {
        CANCEL.with(|s| s.borrow_mut().push(token));
        CancelScope(())
    }
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        CANCEL.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// `true` when the innermost installed [`CancelToken`] (if any) has
/// been cancelled. Without a scope this is a single thread-local read.
pub(crate) fn cancel_requested() -> bool {
    CANCEL.with(|s| {
        s.borrow()
            .last()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    })
}

/// A deterministic, seed-driven fault-injection plan.
///
/// Every decision is a pure function of `(seed, site, counter)` through
/// [`sprout_rng::hash3`], so a plan replays identically — a failing
/// sweep seed is a reproducible bug report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all injection decisions.
    pub seed: u64,
    /// Probability that a metric evaluation's solve is forced to fail.
    pub solver_failure_rate: f64,
    /// Per-edge probability of corrupting a conductance to NaN.
    pub nan_conductance_rate: f64,
    /// Inject a degenerate sliver polygon into the back-converted shape.
    pub degenerate_polygon: bool,
    /// Force this stage's budget guard to fire immediately.
    pub timeout_stage: Option<Stage>,
    /// Per-rail probability that a supervisor worker panics outright
    /// before routing (exercises the `catch_unwind` isolation boundary;
    /// ignored by `route_net`, which runs no worker).
    pub worker_panic_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a sweep baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            solver_failure_rate: 0.0,
            nan_conductance_rate: 0.0,
            degenerate_polygon: false,
            timeout_stage: None,
            worker_panic_rate: 0.0,
        }
    }

    /// Derives a mixed fault scenario from a sweep seed: failure rates,
    /// the sliver bit, and the timed-out stage all come out of the hash,
    /// so consecutive seeds exercise different fault combinations.
    pub fn for_scenario(seed: u64) -> Self {
        let h = hash3(seed, 0xFA17, 0);
        let byte = |shift: u32| ((h >> shift) & 0xFF) as f64 / 255.0;
        FaultPlan {
            seed,
            solver_failure_rate: byte(0) * 0.35,
            nan_conductance_rate: byte(8) * 0.01,
            degenerate_polygon: (h >> 16) & 1 == 1,
            timeout_stage: match (h >> 17) & 0b11 {
                0 => Some(Stage::Grow),
                1 => Some(Stage::Refine),
                2 => Some(Stage::Reheat),
                _ => None,
            },
            // One scenario in four panics a subset of worker rails.
            worker_panic_rate: if (h >> 19) & 0b11 == 0 { 0.5 } else { 0.0 },
        }
    }

    /// Deterministic per-rail draw of the "this worker panics" decision.
    /// A pure function of `(seed, rail_index)` — independent of thread
    /// count, retry attempt, and routing progress, so an injected panic
    /// replays identically on resume.
    pub fn worker_panics(&self, rail_index: usize) -> bool {
        self.worker_panic_rate > 0.0
            && u64_to_f64(hash3(self.seed, SITE_PANIC, rail_index as u64)) < self.worker_panic_rate
    }
}

struct FaultFrame {
    plan: FaultPlan,
    counter: u64,
}

thread_local! {
    static FAULTS: RefCell<Vec<FaultFrame>> = const { RefCell::new(Vec::new()) };
    static EVENTS: RefCell<Vec<Vec<SolverEvent>>> = const { RefCell::new(Vec::new()) };
    static CANCEL: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Activates a [`FaultPlan`] on the current thread for the guard's
/// lifetime. Scopes nest; the innermost plan wins. The router installs
/// one automatically when
/// [`RecoveryConfig::fault`] is set — direct use is only needed when
/// driving pipeline stages by hand in tests.
pub struct FaultScope(());

impl FaultScope {
    /// Installs `plan`; faults deactivate when the guard drops.
    pub fn install(plan: FaultPlan) -> FaultScope {
        FAULTS.with(|s| s.borrow_mut().push(FaultFrame { plan, counter: 0 }));
        FaultScope(())
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        FAULTS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn with_fault<T>(f: impl FnOnce(&mut FaultFrame) -> T) -> Option<T> {
    FAULTS.with(|s| s.borrow_mut().last_mut().map(f))
}

const SITE_SOLVER: u64 = 1;
const SITE_NAN: u64 = 2;
const SITE_PANIC: u64 = 3;

/// Draws the "force this solve to fail" decision. One draw per metric
/// evaluation.
pub(crate) fn fault_solver_failure() -> bool {
    with_fault(|f| {
        if f.plan.solver_failure_rate <= 0.0 {
            return false;
        }
        f.counter += 1;
        u64_to_f64(hash3(f.plan.seed, SITE_SOLVER, f.counter)) < f.plan.solver_failure_rate
    })
    .unwrap_or(false)
}

/// Corrupts a deterministic subset of conductances to NaN, returning how
/// many were hit.
pub(crate) fn fault_corrupt_conductances(edges: &mut [(usize, usize, f64)]) -> usize {
    with_fault(|f| {
        if f.plan.nan_conductance_rate <= 0.0 {
            return 0;
        }
        f.counter += 1;
        let call = f.counter;
        let mut hit = 0usize;
        for (i, e) in edges.iter_mut().enumerate() {
            if u64_to_f64(hash3(f.plan.seed, SITE_NAN ^ (call << 20), i as u64))
                < f.plan.nan_conductance_rate
            {
                e.2 = f64::NAN;
                hit += 1;
            }
        }
        hit
    })
    .unwrap_or(0)
}

/// `true` when the active plan forces `stage` to time out.
pub(crate) fn fault_timeout(stage: Stage) -> bool {
    with_fault(|f| f.plan.timeout_stage == Some(stage)).unwrap_or(false)
}

/// `true` when the active plan wants a degenerate sliver injected into
/// the back-converted shape.
pub(crate) fn fault_degenerate_polygon() -> bool {
    with_fault(|f| f.plan.degenerate_polygon).unwrap_or(false)
}

/// Solver-side events reported by metric evaluation and drained into
/// [`RouteDiagnostics`] by the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SolverEvent {
    Fallback(Rung),
    Sanitized(usize),
}

/// Collects [`SolverEvent`]s on the current thread while alive. Without
/// an installed scope, events are discarded (library users calling
/// [`crate::current::node_current`] directly lose nothing but
/// telemetry).
pub(crate) struct EventScope(());

impl EventScope {
    pub(crate) fn install() -> EventScope {
        EVENTS.with(|s| s.borrow_mut().push(Vec::new()));
        EventScope(())
    }
}

impl Drop for EventScope {
    fn drop(&mut self) {
        EVENTS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Reports a solver event to the innermost scope, if any.
pub(crate) fn note_event(e: SolverEvent) {
    EVENTS.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.push(e);
        }
    });
}

fn drain_events() -> Vec<SolverEvent> {
    EVENTS.with(|s| {
        s.borrow_mut()
            .last_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_counters_track_records() {
        let mut d = RouteDiagnostics::default();
        assert!(d.is_clean());
        d.record(Degradation::SolverFallback {
            stage: Stage::Grow,
            rung: Rung::ConjugateGradient,
        });
        d.record(Degradation::EdgesSanitized {
            stage: Stage::Refine,
            count: 3,
        });
        d.record(Degradation::RevertedToBest {
            stage: Stage::Reheat,
        });
        d.record(Degradation::BudgetOverrun {
            stage: Stage::Grow,
            elapsed_ms: 12.0,
        });
        assert_eq!(d.solver_fallbacks, 1);
        assert_eq!(d.edges_sanitized, 3);
        assert_eq!(d.stages_skipped, 1);
        assert_eq!(d.budget_overruns, 1);
        assert_eq!(d.degradations.len(), 4);
        assert!(!d.is_clean());
    }

    #[test]
    fn fault_plans_are_deterministic_and_varied() {
        let a = FaultPlan::for_scenario(7);
        let b = FaultPlan::for_scenario(7);
        assert_eq!(a, b);
        // Across a seed range, the sweep must cover all fault kinds.
        let plans: Vec<FaultPlan> = (0..64).map(FaultPlan::for_scenario).collect();
        assert!(plans.iter().any(|p| p.solver_failure_rate > 0.1));
        assert!(plans.iter().any(|p| p.nan_conductance_rate > 0.001));
        assert!(plans.iter().any(|p| p.degenerate_polygon));
        assert!(plans.iter().any(|p| p.timeout_stage.is_some()));
        assert!(plans.iter().any(|p| p.timeout_stage.is_none()));
    }

    #[test]
    fn fault_scope_activates_and_deactivates() {
        assert!(!fault_solver_failure(), "no scope: never fires");
        {
            let _scope = FaultScope::install(FaultPlan {
                solver_failure_rate: 1.0,
                ..FaultPlan::quiet(1)
            });
            assert!(fault_solver_failure(), "rate 1.0 always fires");
        }
        assert!(!fault_solver_failure(), "scope dropped");
    }

    #[test]
    fn fault_draws_replay_identically() {
        let plan = FaultPlan {
            solver_failure_rate: 0.5,
            ..FaultPlan::quiet(42)
        };
        let run = || {
            let _scope = FaultScope::install(plan);
            (0..32).map(|_| fault_solver_failure()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "rate 0.5 fires sometimes");
        assert!(a.iter().any(|&x| !x), "rate 0.5 spares sometimes");
    }

    #[test]
    fn nan_corruption_is_deterministic() {
        let plan = FaultPlan {
            nan_conductance_rate: 0.3,
            ..FaultPlan::quiet(9)
        };
        let run = || {
            let _scope = FaultScope::install(plan);
            let mut edges: Vec<(usize, usize, f64)> = (0..50).map(|i| (i, i + 1, 1.0)).collect();
            let hit = fault_corrupt_conductances(&mut edges);
            (hit, edges.iter().map(|e| e.2.is_nan()).collect::<Vec<_>>())
        };
        let (hit_a, mask_a) = run();
        let (hit_b, mask_b) = run();
        assert_eq!(hit_a, hit_b);
        assert_eq!(mask_a, mask_b);
        assert!(hit_a > 0, "rate 0.3 over 50 edges must hit");
        assert!(hit_a < 50, "rate 0.3 must not hit everything");
    }

    #[test]
    fn guard_fires_on_the_wall_cap() {
        let open = StageGuard::begin(Stage::Grow, f64::INFINITY);
        let capped = StageGuard::begin(Stage::Grow, 0.0);
        // Any positive elapsed time exceeds a zero cap.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(open.over_budget().is_none());
        match capped.over_budget() {
            Some(Degradation::BudgetOverrun { stage, elapsed_ms }) => {
                assert_eq!(stage, Stage::Grow);
                assert!(elapsed_ms > 0.0);
            }
            other => panic!("expected overrun, got {other:?}"),
        }
    }

    #[test]
    fn forced_timeout_fires_immediately() {
        let plan = FaultPlan {
            timeout_stage: Some(Stage::Refine),
            ..FaultPlan::quiet(3)
        };
        let _scope = FaultScope::install(plan);
        let guard = StageGuard::begin(Stage::Refine, f64::INFINITY);
        assert!(guard.over_budget().is_some());
        let other = StageGuard::begin(Stage::Grow, f64::INFINITY);
        assert!(other.over_budget().is_none(), "only the named stage");
    }

    #[test]
    fn cancel_token_is_shared_and_scoped() {
        assert!(!cancel_requested(), "no scope: never cancelled");
        let token = CancelToken::new();
        let clone = token.clone();
        {
            let _scope = CancelScope::install(token.clone());
            assert!(!cancel_requested());
            clone.cancel();
            assert!(token.is_cancelled(), "clones share the flag");
            assert!(cancel_requested());
        }
        assert!(!cancel_requested(), "scope dropped");
    }

    #[test]
    fn worker_panic_draw_is_deterministic_per_rail() {
        let plan = FaultPlan {
            worker_panic_rate: 0.5,
            ..FaultPlan::quiet(21)
        };
        let a: Vec<bool> = (0..32).map(|i| plan.worker_panics(i)).collect();
        let b: Vec<bool> = (0..32).map(|i| plan.worker_panics(i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "rate 0.5 hits some rails");
        assert!(a.iter().any(|&x| !x), "rate 0.5 spares some rails");
        assert!(
            !FaultPlan::quiet(21).worker_panics(0),
            "quiet plans never panic"
        );
        // The sweep generator must produce both panicking and quiet
        // scenarios.
        let plans: Vec<FaultPlan> = (0..64).map(FaultPlan::for_scenario).collect();
        assert!(plans.iter().any(|p| p.worker_panic_rate > 0.0));
        assert!(plans.iter().any(|p| p.worker_panic_rate == 0.0));
    }

    #[test]
    fn event_channel_collects_within_scope() {
        note_event(SolverEvent::Sanitized(1)); // no scope: dropped
        let _scope = EventScope::install();
        note_event(SolverEvent::Fallback(Rung::RegularizedCholesky));
        note_event(SolverEvent::Sanitized(2));
        let mut d = RouteDiagnostics::default();
        d.absorb_events(Stage::Refine);
        assert_eq!(d.solver_fallbacks, 1);
        assert_eq!(d.edges_sanitized, 2);
        // Drained: a second absorb adds nothing.
        d.absorb_events(Stage::Refine);
        assert_eq!(d.degradations.len(), 2);
    }
}
