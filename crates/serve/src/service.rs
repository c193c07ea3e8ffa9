//! The in-process routing service: the job ledger over in-thread
//! slots.
//!
//! [`RoutingService`] is a [`Ledger`] whose executor, [`Threads`], runs
//! each attempt on one of [`ServiceConfig::workers`] threads. A slot
//! takes the next job the moment it is free (it blocks on the queue,
//! it does not poll) and hands the attempt's [`DoneFrame`] back to the
//! ledger as a value. Behaviour that only makes sense in-process lives
//! here:
//!
//! * **Panic containment** — each attempt runs under `catch_unwind`; a
//!   panicked attempt is a lost attempt the ledger retries.
//! * **Cancelling running jobs** — the ledger's cancel token reaches the
//!   supervisor directly.
//! * **Graceful degradation** — under queue pressure attempts run with
//!   the `BestSoFar` recovery policy and a tightened wall budget: a
//!   partial result beats a timed-out queue.
//! * **Chaos** — [`ServeFaultPlan`] injects panics, stalls, and the
//!   simulated in-lifetime kill (the job checkpoints its first wave and
//!   is then abandoned; only a restarted service finishes it).
//! * **Forensics** — a per-job thread-timeline profile
//!   ([`RoutingService::profile`]) and, with
//!   [`ServiceConfig::keep_reports`], a [`RunReport`] per attempt.
//! * **Tiling reuse** — the slots share one [`TileCache`] for the
//!   service's lifetime, so a board seen before skips tiling.

use crate::backoff::BackoffConfig;
use crate::chaos::ServeFaultPlan;
use crate::events::Feed;
use crate::job::JobState;
use crate::ledger::{lock, Core, Executor, Lease, Ledger, Lost, Next, Policy};
pub use crate::ledger::{Readiness, ServeError, ServiceMetrics, SubmitError};
use crate::proto::DoneFrame;
use crate::worker::{run_attempt, Attempt};
use sprout_core::recovery::RecoveryPolicy;
use sprout_core::report::RunReport;
use sprout_core::router::RouterConfig;
use sprout_core::TileCache;
use sprout_telemetry::{self as telemetry, json::Obj};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads pulling jobs from the queue.
    pub workers: usize,
    /// Admission-queue capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Router configuration applied to every job (pitch may be
    /// overridden per job).
    pub router: RouterConfig,
    /// Supervisor threads per job (rails of one job in parallel).
    pub supervisor_threads: usize,
    /// Service-level retries per job (re-queued with backoff).
    pub max_job_retries: usize,
    /// Retry-delay schedule.
    pub backoff: BackoffConfig,
    /// Deadline for jobs that do not bring their own (ms from
    /// admission); `None` means no default deadline.
    pub default_deadline_ms: Option<f64>,
    /// Journal/checkpoint directory. `None` disables crash recovery
    /// (jobs still run, but a killed service forgets them).
    pub data_dir: Option<PathBuf>,
    /// Queue-depth fraction at which the service reports itself
    /// overloaded and degrades new attempts to `BestSoFar`.
    pub overload_watermark: f64,
    /// Per-stage wall budget (ms) applied to attempts started while
    /// overloaded.
    pub degraded_wall_ms: f64,
    /// Service-level fault injection (testing only).
    pub fault: Option<ServeFaultPlan>,
    /// Retain a [`RunReport`] per completed attempt for benches.
    pub keep_reports: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            router: RouterConfig::default(),
            supervisor_threads: 1,
            max_job_retries: 2,
            backoff: BackoffConfig::default(),
            default_deadline_ms: None,
            data_dir: None,
            overload_watermark: 0.75,
            degraded_wall_ms: 2_000.0,
            fault: None,
            keep_reports: false,
        }
    }
}

/// The in-thread executor: a pool of slot threads.
#[derive(Debug)]
pub struct Threads {
    core: Arc<Core>,
    config: ServiceConfig,
    slots: Mutex<Vec<JoinHandle<()>>>,
    // Latest attempt's profile per job, served over
    // `GET /jobs/<id>/profile`. Rendered JSON, bounded by job count.
    profiles: Mutex<HashMap<u64, String>>,
    reports: Mutex<Vec<RunReport>>,
    tiles: TileCache,
}

/// The running in-process service. Share it behind an `Arc` if multiple
/// frontends need it — the HTTP server does exactly that.
pub type RoutingService = Ledger<Threads>;

impl Executor for Threads {
    const PREFIX: &'static str = "sprout_serve_";
    const CANCELS_RUNNING: bool = true;

    fn profile(&self, id: u64) -> Option<String> {
        lock(&self.profiles).get(&id).cloned()
    }

    fn stop(&self) {
        // A dropped service stops accepting and lets its slots drain
        // the queue; killed jobs stay journaled for the next instance.
        self.core.start_draining();
        self.core.queue.close();
        self.join();
    }
}

impl Ledger<Threads> {
    /// Starts the service: prepares the data directory, re-admits every
    /// journaled job without a terminal record (crash recovery), and
    /// spawns the slot threads.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the configuration is unusable or the data
    /// directory cannot be prepared.
    pub fn start(config: ServiceConfig) -> Result<RoutingService, ServeError> {
        if config.workers == 0 && config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "a service needs at least one worker or a queue",
            ));
        }
        let core = Core::open(Policy {
            queue_capacity: config.queue_capacity,
            max_job_retries: config.max_job_retries,
            backoff: config.backoff,
            default_deadline_ms: config.default_deadline_ms,
            data_dir: config.data_dir.clone(),
            overload_watermark: config.overload_watermark,
        })?;
        let exec = Arc::new(Threads {
            core: Arc::clone(&core),
            config,
            slots: Mutex::new(Vec::new()),
            profiles: Mutex::new(HashMap::new()),
            reports: Mutex::new(Vec::new()),
            tiles: TileCache::new(),
        });
        // Built before any slot starts, so an early error return still
        // stops the slots already running.
        let service = Ledger { core, exec };
        let recorder = telemetry::current();
        for w in 0..service.exec.config.workers {
            let slot = Arc::clone(&service.exec);
            let recorder = recorder.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sprout-serve-{w}"))
                .spawn(move || {
                    let _telemetry = recorder.map(telemetry::RecorderScope::install);
                    slot.slot_loop();
                })
                .map_err(|e| ServeError::Io(e.to_string()))?;
            lock(&service.exec.slots).push(handle);
        }
        Ok(service)
    }

    /// Stops the service. With `drain` the slots empty the queue first;
    /// without it, queued jobs are finalized as cancelled. Killed jobs
    /// are left non-terminal on purpose: only a restart may finish them.
    pub fn shutdown(&self, drain: bool) {
        self.core.start_draining();
        if drain {
            self.core.queue.close();
        } else {
            for entry in self.core.queue.close_and_clear() {
                self.core.finalize(
                    entry.id,
                    JobState::Cancelled,
                    Some("service shut down before the job ran".into()),
                );
            }
        }
        self.exec.join();
    }

    /// Takes the retained per-attempt [`RunReport`]s (empty unless
    /// [`ServiceConfig::keep_reports`] is set).
    pub fn take_reports(&self) -> Vec<RunReport> {
        std::mem::take(&mut *lock(&self.exec.reports))
    }

    /// The tiling cache the slots share.
    pub fn tile_cache(&self) -> &TileCache {
        &self.exec.tiles
    }
}

impl Threads {
    fn join(&self) {
        let slots = std::mem::take(&mut *lock(&self.slots));
        for h in slots {
            let _ = h.join();
        }
    }

    fn slot_loop(&self) {
        loop {
            let lease = match self.core.next_lease(Duration::from_millis(50)) {
                Next::Lease(lease) => lease,
                Next::Idle => continue,
                Next::Closed => break,
            };
            let (job, lease_id) = (lease.job, lease.lease);
            // The slot's panic boundary: whatever the attempt does —
            // injected panics included — the loop survives and the job
            // gets a typed outcome.
            match catch_unwind(AssertUnwindSafe(|| self.run(lease))) {
                Ok((done, false)) => self.core.settle(done),
                Ok((done, true)) => self.core.mark_killed(&done),
                Err(_) => self.core.lost(job, lease_id, Lost::Panic),
            }
            telemetry::gauge!("serve.queue_depth", self.core.queue.len() as i64);
        }
    }

    /// Runs one leased attempt; `true` alongside the frame when the
    /// fault plan killed it.
    fn run(&self, lease: Lease) -> (DoneFrame, bool) {
        let (id, attempt) = (lease.job, lease.attempt);
        let c = &self.config;
        if let Some(plan) = c.fault {
            if plan.slows(id, attempt) {
                std::thread::sleep(Duration::from_millis(plan.slow_ms));
            }
            if plan.panics(id, attempt) {
                telemetry::counter!("serve.injected_panics");
                panic!("injected service worker panic (job {id}, attempt {attempt})");
            }
        }
        let mut router = c.router;
        if self.core.overloaded() {
            router.recovery.policy = RecoveryPolicy::BestSoFar;
            router.recovery.budget.wall_clock_ms =
                router.recovery.budget.wall_clock_ms.min(c.degraded_wall_ms);
            telemetry::counter!("serve.degraded_attempts");
        }
        let killed = c.fault.is_some_and(|p| p.kills(id, attempt));

        // The attempt's events go to the ledger's lease-checked
        // publish; the profiler in front of them captures the attempt's
        // thread timeline.
        let core = Arc::clone(&self.core);
        let lease_id = lease.lease;
        let feed: Feed =
            Arc::new(move |kind, fields| core.publish_live(id, lease_id, kind, fields));
        let profiler = telemetry::prof::Profiler::with_capacity(8192);
        let contention_base = telemetry::prof::snapshot();
        let (done, report) = run_attempt(Attempt {
            job: id,
            lease: lease.lease,
            spec: &lease.spec,
            router,
            supervisor_threads: c.supervisor_threads,
            deadline_ms: lease.remaining_ms(),
            checkpoint: lease.checkpoint.clone(),
            cancel: lease.cancel.clone(),
            kill_after_wave: killed.then_some(0),
            feed,
            profiler: Some(&profiler),
            tiles: &self.tiles,
        });
        telemetry::histogram!("serve.attempt_ms", done.run_ms as u64);

        let timeline = profiler.drain();
        if !timeline.is_empty() {
            // Lock stats are process-wide, so under concurrent jobs the
            // delta over-attributes shared-lock waits to each job — fine
            // for a forensic summary, stated here so nobody sums them.
            let contention = telemetry::prof::snapshot().delta_since(&contention_base);
            let diagnosis = telemetry::prof::diagnose(&timeline, &contention, c.supervisor_threads);
            let mut o = Obj::new();
            o.u64("job", id)
                .f64("attempt_ms", (done.run_ms * 1e3).round() / 1e3)
                .u64("slices", timeline.slice_count() as u64)
                .raw("diagnosis", &diagnosis.to_json());
            // Latest attempt wins: retries overwrite the failed attempt.
            lock(&self.profiles).insert(id, o.finish());
        }
        if let Some(report) = report.filter(|_| c.keep_reports) {
            lock(&self.reports).push(RunReport::from_job(&format!("serve-job-{id}"), &report));
        }
        (done, killed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Priority};
    use crate::worker::fast_router;

    fn fast_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            router: fast_router(),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_route_complete() {
        let svc = RoutingService::start(fast_config()).expect("start");
        let id = svc.submit(JobSpec::two_rail(20.0)).expect("submit");
        assert!(svc.wait_idle(Duration::from_secs(120)));
        let snap = svc.status(id).expect("known job");
        assert_eq!(snap.state, JobState::Completed);
        assert_eq!(snap.rails_complete, 2);
        assert_eq!(snap.terminal_transitions, 1);
        svc.shutdown(true);
        assert_eq!(svc.metrics().completed, 1);
    }

    #[test]
    fn completed_jobs_expose_a_profile() {
        use sprout_telemetry::json::{parse, Json};
        let svc = RoutingService::start(fast_config()).expect("start");
        let id = svc.submit(JobSpec::two_rail(20.0)).expect("submit");
        assert!(svc.wait_idle(Duration::from_secs(120)));
        assert!(svc.profile(id + 100).is_none(), "unknown job: no profile");
        let body = svc.profile(id).expect("profile recorded");
        let root = parse(&body).expect("profile is JSON");
        assert_eq!(root.get("job").and_then(Json::as_u64), Some(id));
        let diag = root.get("diagnosis").expect("diagnosis attached");
        assert!(diag.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(diag
            .get("critical_path_fraction")
            .and_then(Json::as_f64)
            .is_some());
        svc.shutdown(true);
    }

    #[test]
    fn invalid_specs_are_rejected_before_acceptance() {
        let svc = RoutingService::start(fast_config()).expect("start");
        let mut spec = JobSpec::two_rail(20.0);
        spec.rails[0].net = 99;
        match svc.submit(spec) {
            Err(SubmitError::Invalid(_)) => {}
            other => panic!("expected invalid, got {other:?}"),
        }
        assert_eq!(svc.metrics().accepted, 0);
        svc.shutdown(false);
    }

    #[test]
    fn saturation_rejects_with_retry_after() {
        let cfg = ServiceConfig {
            workers: 0, // nothing drains the queue
            queue_capacity: 2,
            router: fast_router(),
            ..ServiceConfig::default()
        };
        let svc = RoutingService::start(cfg).expect("start");
        svc.submit(JobSpec::two_rail(20.0)).expect("1");
        svc.submit(JobSpec::two_rail(20.0)).expect("2");
        match svc.submit(JobSpec::two_rail(20.0)) {
            Err(SubmitError::Saturated { retry_after_ms }) => {
                assert!(retry_after_ms > 0.0);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert_eq!(svc.metrics().rejected, 1);
        // A high-priority job sheds a queued normal one instead.
        let mut high = JobSpec::two_rail(20.0);
        high.priority = Priority::High;
        svc.submit(high).expect("high priority displaces");
        let m = svc.metrics();
        assert_eq!(m.shed, 1);
        svc.shutdown(false);
    }
}
