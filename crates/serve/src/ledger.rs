//! The job ledger: one lifecycle for every routing job, whichever
//! executor runs it.
//!
//! A [`Ledger`] owns everything that happens to a job between its
//! submission and its single terminal state:
//!
//! * **Admission** — jobs enter through a [`BoundedQueue`]; when it is
//!   full, [`Ledger::submit`] sheds a strictly-lower-priority queued
//!   job or rejects the arrival with a retry-after hint.
//! * **The journal** — one append-only file, [`JOURNAL_FILE`], in the
//!   data directory. Every accepted job is written as an `admit` line
//!   before it queues, and its terminal state as one `done` line; both
//!   carry the job's [`spec_fingerprint`]. [`replay_journal`] is the
//!   only recovery path: a restarted ledger re-admits every admitted
//!   job without a terminal record and remembers the rest as terminal.
//! * **Dispatch** — an executor slot asks the ledger for work; the
//!   ledger expires jobs whose deadline passed while queued and hands
//!   out the rest under a fresh lease id.
//! * **Settlement** — every attempt ends in a [`DoneFrame`], which the
//!   ledger classifies into a retry (re-queued after a seeded
//!   [`BackoffConfig`] delay) or a terminal state. A frame carrying a
//!   lease that is no longer current is refused and counted.
//! * **Live events** — a running attempt's events reach the job's
//!   event stream only through the ledger's lease-checked publish, so
//!   both executors feed a stream the same way and a stale lease never
//!   writes into one.
//! * **Finalize** — the one exactly-once terminal transition: one
//!   terminal counter, one terminal event, one journal line.
//!
//! What runs the attempts is an [`Executor`]: in-thread slots
//! ([`crate::service::Threads`], the [`RoutingService`]) or child
//! process slots ([`crate::fleet::Processes`], the
//! [`FleetCoordinator`]).
//!
//! Journal lines, one JSON object each:
//!
//! ```text
//! {"kind":"admit","id":7,"fp":1234567890123456789,"spec":{...},"deadline_ms":500}
//! {"kind":"done","id":7,"fp":1234567890123456789,"state":"completed"}
//! ```
//!
//! A refused submission leaves an `admit` line followed by a `done`
//! line with state `rejected`, so a restart never resurrects it.
//!
//! [`RoutingService`]: crate::service::RoutingService
//! [`FleetCoordinator`]: crate::fleet::FleetCoordinator

use crate::backoff::BackoffConfig;
use crate::events::{EventBus, EventKind, Fields};
use crate::job::{JobSnapshot, JobSpec, JobState, Priority, SpecError};
use crate::proto::{spec_fingerprint, DoneFrame, MAX_FRAME_BYTES};
use crate::queue::{Admitted, BoundedQueue, Popped, QueueEntry};
use sprout_core::recovery::CancelToken;
use sprout_core::SproutError;
use sprout_telemetry::{self as telemetry, json::Obj, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// File name of the job journal inside the data directory.
pub const JOURNAL_FILE: &str = "jobs.journal";

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed validation (HTTP 400).
    Invalid(SpecError),
    /// The queue is full and nothing in it has lower priority; retry
    /// after the hinted delay (HTTP 429 + `Retry-After`).
    Saturated {
        /// Suggested client backoff (ms).
        retry_after_ms: f64,
    },
    /// The service is draining or stopped (HTTP 503).
    Draining,
    /// The journal write failed; the job was not accepted (HTTP 500).
    Journal(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid job spec: {e}"),
            SubmitError::Saturated { retry_after_ms } => {
                write!(f, "queue saturated; retry after {retry_after_ms:.0} ms")
            }
            SubmitError::Draining => write!(f, "service is draining"),
            SubmitError::Journal(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the service could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The data directory could not be created or scanned.
    Io(String),
    /// A configuration value is unusable.
    InvalidConfig(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "service I/O error: {e}"),
            ServeError::InvalidConfig(what) => write!(f, "invalid service config: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Health/readiness of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Accepting work with headroom.
    Ready,
    /// Accepting work, but the queue is past the overload watermark.
    Overloaded,
    /// Not accepting work (draining or stopped).
    Draining,
}

impl Readiness {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Readiness::Ready => "ready",
            Readiness::Overloaded => "overloaded",
            Readiness::Draining => "draining",
        }
    }
}

/// A point-in-time snapshot of the ledger counters: the `/metrics`
/// payload of either executor. Fields an executor has no use for stay 0
/// (no worker processes in-thread, no simulated kills in processes), so
/// both backends expose the same names.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Jobs waiting in the queue (retry delays included).
    pub queue_depth: usize,
    /// Jobs currently routing.
    pub running: usize,
    /// Jobs accepted since start (recovered jobs included).
    pub accepted: u64,
    /// Submissions rejected with backpressure.
    pub rejected: u64,
    /// Terminal: completed.
    pub completed: u64,
    /// Terminal: partial results shipped.
    pub best_so_far: u64,
    /// Terminal: failed with a typed error.
    pub failed: u64,
    /// Terminal: shed under saturation.
    pub shed: u64,
    /// Terminal: deadline expired.
    pub expired: u64,
    /// Terminal: cancelled.
    pub cancelled: u64,
    /// Failed attempts re-queued with backoff.
    pub retries: u64,
    /// Jobs re-admitted from the journal at start.
    pub recovered: u64,
    /// Jobs "killed" mid-run by the in-thread fault plan.
    pub killed: u64,
    /// Worker-thread panics contained at the slot boundary.
    pub worker_panics: u64,
    /// Jobs observed in more than one terminal state — always 0 unless
    /// the exactly-once invariant broke.
    pub terminal_violations: u64,
    /// Median admission→terminal latency (ms) over terminal jobs.
    pub latency_p50_ms: f64,
    /// 99th-percentile admission→terminal latency (ms).
    pub latency_p99_ms: f64,
    /// Worker processes alive.
    pub workers_live: usize,
    /// Worker processes spawned since start (initial + replacements).
    pub workers_spawned: u64,
    /// Worker processes declared dead.
    pub workers_dead: u64,
    /// Replacement worker processes spawned after a death.
    pub worker_restarts: u64,
    /// Jobs out under a process lease.
    pub leased: usize,
    /// Leases expired by worker death and re-dispatched.
    pub redispatches: u64,
    /// Attempt results refused for carrying an expired lease or an
    /// already-terminal job — the double finalizes defeated.
    pub stale_finalizes: u64,
    /// Duplicate or conflicting journal records ignored at replay.
    pub journal_duplicates: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Events published on the per-job observability bus.
    pub events_published: u64,
    /// Bus events dropped to drop-oldest backpressure.
    pub events_dropped: u64,
    /// Median admission→start queue wait (ms) over started attempts.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile admission→start queue wait (ms).
    pub queue_wait_p99_ms: f64,
    /// Attempt starts measured for the queue-wait percentiles.
    pub queue_wait_count: u64,
    /// Sum of measured queue waits (ms) — the Prometheus `_sum`.
    pub queue_wait_sum_ms: f64,
    /// Sum of terminal latencies (ms) — the Prometheus `_sum`.
    pub latency_sum_ms: f64,
}

impl ServiceMetrics {
    /// The counters as `(name, help, value)`, in exposition order.
    fn counters(&self) -> [(&'static str, &'static str, u64); 21] {
        [
            ("accepted", "jobs accepted", self.accepted),
            ("rejected", "submissions rejected", self.rejected),
            ("completed", "jobs completed", self.completed),
            ("best_so_far", "partial results shipped", self.best_so_far),
            ("failed", "jobs failed", self.failed),
            ("shed", "jobs shed under saturation", self.shed),
            ("expired", "jobs past their deadline", self.expired),
            ("cancelled", "jobs cancelled", self.cancelled),
            ("retries", "failed attempts re-queued", self.retries),
            (
                "recovered",
                "jobs re-admitted from the journal",
                self.recovered,
            ),
            ("killed", "jobs killed mid-run", self.killed),
            (
                "worker_panics",
                "worker panics contained",
                self.worker_panics,
            ),
            (
                "terminal_violations",
                "exactly-once violations (must stay 0)",
                self.terminal_violations,
            ),
            (
                "workers_spawned",
                "worker processes spawned",
                self.workers_spawned,
            ),
            (
                "workers_dead",
                "worker processes declared dead",
                self.workers_dead,
            ),
            (
                "worker_restarts",
                "replacement worker processes",
                self.worker_restarts,
            ),
            ("redispatches", "leases re-dispatched", self.redispatches),
            (
                "stale_finalizes",
                "stale attempt results refused",
                self.stale_finalizes,
            ),
            (
                "journal_duplicates",
                "duplicate journal records ignored",
                self.journal_duplicates,
            ),
            (
                "events_published",
                "observability events published",
                self.events_published,
            ),
            (
                "events_dropped",
                "observability events dropped",
                self.events_dropped,
            ),
        ]
    }

    /// One JSON line (the `/metrics` body).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.u64("queue_depth", self.queue_depth as u64)
            .u64("running", self.running as u64)
            .u64("workers_live", self.workers_live as u64)
            .u64("leased", self.leased as u64);
        for (name, _, v) in self.counters() {
            o.u64(name, v);
        }
        o.f64("latency_p50_ms", self.latency_p50_ms)
            .f64("latency_p99_ms", self.latency_p99_ms)
            .f64("uptime_seconds", self.uptime_seconds)
            .f64("queue_wait_p50_ms", self.queue_wait_p50_ms)
            .f64("queue_wait_p99_ms", self.queue_wait_p99_ms);
        o.finish()
    }

    /// Prometheus text exposition of the same counters (the `/metrics`
    /// body under content negotiation), with `prefix` (`sprout_serve_`
    /// or `sprout_fleet_`) naming the executor.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use sprout_telemetry::prom::PromText;
        let mut p = PromText::new();
        let n = |name: &str| format!("{prefix}{name}");
        p.gauge(
            &n("queue_depth"),
            "jobs waiting in the queue",
            self.queue_depth as f64,
        )
        .gauge(&n("running"), "jobs currently routing", self.running as f64)
        .gauge(
            &n("workers_live"),
            "worker processes alive",
            self.workers_live as f64,
        )
        .gauge(
            &n("leased"),
            "jobs out under a process lease",
            self.leased as f64,
        )
        .gauge(
            &n("uptime_seconds"),
            "seconds since service start",
            self.uptime_seconds,
        );
        for (name, help, v) in self.counters() {
            p.counter(&n(&format!("{name}_total")), help, v);
        }
        let terminal = self.completed
            + self.best_so_far
            + self.failed
            + self.shed
            + self.expired
            + self.cancelled;
        p.summary(
            &n("latency_ms"),
            "admission to terminal latency (ms)",
            &[(0.5, self.latency_p50_ms), (0.99, self.latency_p99_ms)],
            terminal,
            self.latency_sum_ms,
        )
        .summary(
            &n("queue_wait_ms"),
            "admission to start queue wait (ms)",
            &[
                (0.5, self.queue_wait_p50_ms),
                (0.99, self.queue_wait_p99_ms),
            ],
            self.queue_wait_count,
            self.queue_wait_sum_ms,
        );
        // Per-stage wall time and everything else the routing layer
        // observes into the global registry rides along with the
        // workspace prefix.
        p.registry("sprout_", telemetry::metrics::global());
        p.finish()
    }
}

/// What runs the attempts a [`Ledger`] dispatches.
pub trait Executor: Send + Sync + 'static {
    /// Metric-name prefix of this executor's Prometheus exposition.
    const PREFIX: &'static str;
    /// Whether a running attempt can be cancelled. In-thread attempts
    /// share a cancel token with the ledger; a worker process has no
    /// preemption frame, so its leased job either finishes or dies.
    const CANCELS_RUNNING: bool;
    /// Adds the executor's own counters (worker processes, leases) to a
    /// metrics snapshot.
    fn gauges(&self, _metrics: &mut ServiceMetrics) {}
    /// The latest attempt's performance profile for `id`, for executors
    /// that record one.
    fn profile(&self, _id: u64) -> Option<String> {
        None
    }
    /// Stops every slot; called when the ledger is dropped.
    fn stop(&self);
}

// ---- journal -----------------------------------------------------------

/// The outcome of replaying a journal — a pure function of the journal
/// text, exposed so the idempotence tests can drive it with hand-built
/// (including hostile) journals.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Admitted jobs without a terminal record, in journal order: the
    /// work a restarted ledger must re-admit.
    pub pending: Vec<(u64, JobSpec, Option<f64>)>,
    /// First terminal record per job: `id → (state name, fingerprint)`.
    pub terminal: HashMap<u64, (String, u64)>,
    /// Duplicate admits and duplicate/conflicting terminal records
    /// ignored (first record wins).
    pub duplicates: u64,
    /// Unparseable or orphaned lines skipped.
    pub malformed: u64,
    /// One past the highest id seen.
    pub next_id: u64,
}

/// Replays a journal. First record wins throughout: a journal holding
/// duplicate or interleaved terminal records for one job — the
/// slow-then-revived worker, or a double-finalize bug — still replays
/// to exactly one terminal state per job. A terminal record whose
/// fingerprint does not match the admitted spec is ignored as
/// malformed: it cannot have been computed for that job.
pub fn replay_journal(text: &str) -> JournalReplay {
    use sprout_telemetry::json::{self, Json};
    let mut out = JournalReplay::default();
    let mut admitted: HashMap<u64, (JobSpec, u64, Option<f64>)> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let root = match json::parse(line) {
            Ok(root) if line.len() <= MAX_FRAME_BYTES => root,
            _ => {
                out.malformed += 1;
                continue;
            }
        };
        let kind = root.get("kind").and_then(Json::as_str).unwrap_or("");
        let (Some(id), Some(fp)) = (
            root.get("id").and_then(Json::as_u64),
            root.get("fp").and_then(Json::as_u64),
        ) else {
            out.malformed += 1;
            continue;
        };
        out.next_id = out.next_id.max(id + 1);
        match kind {
            "admit" => {
                let Some(Ok(spec)) = root.get("spec").map(JobSpec::from_json) else {
                    out.malformed += 1;
                    continue;
                };
                if spec_fingerprint(&spec) != fp {
                    out.malformed += 1;
                    continue;
                }
                if admitted.contains_key(&id) {
                    out.duplicates += 1;
                    continue;
                }
                let deadline = root.get("deadline_ms").and_then(Json::as_f64);
                admitted.insert(id, (spec, fp, deadline));
                order.push(id);
            }
            "done" => {
                let Some(state) = root.get("state").and_then(Json::as_str) else {
                    out.malformed += 1;
                    continue;
                };
                match admitted.get(&id) {
                    None => out.malformed += 1, // orphaned terminal record
                    Some((_, admit_fp, _)) if *admit_fp != fp => out.malformed += 1,
                    Some(_) => match out.terminal.entry(id) {
                        Entry::Occupied(_) => out.duplicates += 1, // first record wins
                        Entry::Vacant(v) => {
                            v.insert((state.to_owned(), fp));
                        }
                    },
                }
            }
            _ => out.malformed += 1,
        }
    }
    for id in order {
        if !out.terminal.contains_key(&id) {
            let (spec, _, deadline) = admitted.remove(&id).expect("ordered ids were admitted");
            out.pending.push((id, spec, deadline));
        }
    }
    out
}

fn terminal_state(name: &str) -> Option<JobState> {
    use JobState::*;
    let terminal = [Completed, BestSoFar, Failed, Shed, Expired, Cancelled];
    terminal.into_iter().find(|s| s.name() == name)
}

/// The append-only journal writer; `None` without a data directory.
#[derive(Debug)]
struct Journal(Mutex<Option<std::fs::File>>);

impl Journal {
    fn append(&self, line: Obj) -> std::io::Result<()> {
        let mut file = lock(&self.0);
        match file.as_mut() {
            Some(f) => writeln!(f, "{}", line.finish()).and_then(|_| f.flush()),
            None => Ok(()),
        }
    }

    fn admit(
        &self,
        id: u64,
        fp: u64,
        spec: &JobSpec,
        deadline_ms: Option<f64>,
    ) -> Result<(), String> {
        let mut o = Obj::new();
        o.str("kind", "admit")
            .u64("id", id)
            .u64("fp", fp)
            .raw("spec", &spec.to_json());
        if let Some(d) = deadline_ms {
            o.f64("deadline_ms", d);
        }
        self.append(o).map_err(|e| e.to_string())
    }

    fn done(&self, id: u64, fp: u64, state: &str) {
        let mut o = Obj::new();
        o.str("kind", "done")
            .u64("id", id)
            .u64("fp", fp)
            .str("state", state);
        let _ = self.append(o);
    }
}

// ---- ledger state ------------------------------------------------------

/// The lifecycle settings both configs share.
#[derive(Debug, Clone)]
pub(crate) struct Policy {
    pub queue_capacity: usize,
    pub max_job_retries: usize,
    pub backoff: BackoffConfig,
    pub default_deadline_ms: Option<f64>,
    pub data_dir: Option<PathBuf>,
    pub overload_watermark: f64,
}

/// One job's full record: its public view plus what only the ledger
/// needs.
#[derive(Debug)]
struct JobRecord {
    view: JobSnapshot,
    /// `None` for jobs replayed as already terminal: they never run
    /// again, so their spec is not re-materialized.
    spec: Option<JobSpec>,
    fp: u64,
    submitted: Instant,
    deadline_ms: Option<f64>,
    cancel_requested: bool,
    cancel: CancelToken,
    lease: Option<u64>,
}

impl JobRecord {
    fn queued(id: u64, spec: JobSpec, deadline_ms: Option<f64>, recovered: bool) -> JobRecord {
        let fp = spec_fingerprint(&spec);
        JobRecord {
            deadline_ms,
            ..JobRecord::new(id, Some(spec), fp, JobState::Queued, recovered)
        }
    }

    fn new(id: u64, spec: Option<JobSpec>, fp: u64, state: JobState, recovered: bool) -> JobRecord {
        let view = JobSnapshot {
            id,
            tag: spec.as_ref().map(|s| s.tag.clone()).unwrap_or_default(),
            state,
            priority: spec.as_ref().map_or(Priority::Normal, |s| s.priority),
            attempts: 0,
            rails_total: spec.as_ref().map_or(0, |s| s.rails.len()),
            rails_complete: 0,
            resumed: 0,
            recovered,
            killed: false,
            queue_ms: 0.0,
            run_ms: 0.0,
            solves: 0,
            area_mm2: 0.0,
            error: None,
            terminal_transitions: usize::from(state.is_terminal()),
        };
        JobRecord {
            view,
            spec,
            fp,
            // A recovered job's admission clock died with the old
            // process; its deadline restarts here.
            submitted: Instant::now(),
            deadline_ms: None,
            cancel_requested: false,
            cancel: CancelToken::new(),
            lease: None,
        }
    }

    /// Folds an attempt's result into the record.
    fn harvest(&mut self, done: &DoneFrame) {
        self.lease = None;
        let v = &mut self.view;
        v.run_ms += done.run_ms;
        v.rails_complete = done.rails_complete;
        v.resumed += done.resumed;
        v.solves += done.solves;
        v.area_mm2 = done.area_mm2;
    }

    fn elapsed_ms(&self) -> f64 {
        self.submitted.elapsed().as_secs_f64() * 1e3
    }
}

/// One dispatched attempt: what an executor slot needs to run it.
#[derive(Debug)]
pub(crate) struct Lease {
    pub job: u64,
    pub lease: u64,
    /// Dispatch attempt (0-based).
    pub attempt: usize,
    pub spec: JobSpec,
    pub checkpoint: Option<PathBuf>,
    pub cancel: CancelToken,
    submitted: Instant,
    deadline_ms: Option<f64>,
}

impl Lease {
    /// Wall budget left before the job's deadline (ms), read now.
    pub fn remaining_ms(&self) -> Option<f64> {
        self.deadline_ms
            .map(|d| d - self.submitted.elapsed().as_secs_f64() * 1e3)
    }
}

/// What [`Core::next_lease`] found.
pub(crate) enum Next {
    Lease(Lease),
    /// Nothing to run yet (or the popped job settled at dispatch).
    Idle,
    /// The queue is closed and drained.
    Closed,
}

/// How [`Core::classify`] settled an attempt.
enum Verdict {
    Final(JobState, Option<String>),
    Retry(Priority, usize),
}

/// Why an attempt ended without a result.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lost {
    /// The worker thread panicked.
    Panic,
    /// The worker process died or fell silent.
    WorkerDied,
}

/// The ledger state shared by the public handle and the executor slots.
#[derive(Debug)]
pub(crate) struct Core {
    pub policy: Policy,
    pub queue: BoundedQueue,
    pub bus: Arc<EventBus>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Signalled whenever a lease returns: every settled, lost or
    /// killed attempt, and every terminal transition.
    settled: Condvar,
    journal: Journal,
    /// The ledger's counters, kept in their published form.
    counts: Mutex<ServiceMetrics>,
    latencies: Mutex<Vec<f64>>,
    queue_waits: Mutex<Vec<f64>>,
    next_id: AtomicU64,
    next_lease: AtomicU64,
    draining: AtomicBool,
    started: Instant,
}

impl Core {
    /// Prepares the data directory and replays its journal: terminal
    /// jobs are remembered (their record guards against a late double
    /// finalize), unfinished ones re-enter the queue.
    pub fn open(policy: Policy) -> Result<Arc<Core>, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let mut file = None;
        let mut replay = JournalReplay::default();
        if let Some(dir) = &policy.data_dir {
            std::fs::create_dir_all(dir).map_err(io)?;
            let path = dir.join(JOURNAL_FILE);
            if let Ok(text) = std::fs::read_to_string(&path) {
                replay = replay_journal(&text);
            }
            file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(io)?,
            );
        }
        let mut jobs = HashMap::new();
        for (&id, (state, fp)) in &replay.terminal {
            // Tombstones (refused submissions) name no terminal state
            // and leave no record.
            if let Some(state) = terminal_state(state) {
                jobs.insert(id, JobRecord::new(id, None, *fp, state, true));
            }
        }
        let queue = BoundedQueue::new(policy.queue_capacity);
        let mut counts = ServiceMetrics {
            journal_duplicates: replay.duplicates,
            ..ServiceMetrics::default()
        };
        for (id, spec, deadline_ms) in replay.pending {
            let rec = JobRecord::queued(id, spec, deadline_ms, true);
            queue.reenter(id, rec.view.priority, 0, Duration::ZERO);
            jobs.insert(id, rec);
            counts.accepted += 1;
            counts.recovered += 1;
            telemetry::counter!("serve.recovered");
        }
        Ok(Arc::new(Core {
            policy,
            queue,
            bus: Arc::new(EventBus::default()),
            jobs: Mutex::new(jobs),
            settled: Condvar::new(),
            journal: Journal(Mutex::new(file)),
            counts: Mutex::new(counts),
            latencies: Mutex::new(Vec::new()),
            queue_waits: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(replay.next_id.max(1)),
            next_lease: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        }))
    }

    /// Updates the ledger's counters.
    pub fn count(&self, bump: impl FnOnce(&mut ServiceMetrics)) {
        bump(&mut lock(&self.counts));
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stops admission; what happens to queued work is the executor's
    /// call.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until no attempt is out with a slot, or `timeout` passes;
    /// `true` when none is.
    pub fn wait_unleased(&self, timeout: Duration) -> bool {
        self.wait(timeout, |r| r.lease.is_none())
    }

    /// Blocks until `done` holds for every job, or `timeout` passes;
    /// `true` when it does. Woken whenever a lease returns.
    fn wait(&self, timeout: Duration, done: impl Fn(&JobRecord) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut jobs = lock(&self.jobs);
        loop {
            if jobs.values().all(&done) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            jobs = self
                .settled
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// `true` when the queue is past the overload watermark.
    pub fn overloaded(&self) -> bool {
        let cap = self.queue.capacity().max(1);
        let watermark =
            (self.policy.overload_watermark.clamp(0.0, 1.0) * cap as f64).ceil() as usize;
        self.queue.len() >= watermark.max(1)
    }

    /// Waits up to `wait` for a queued job and dispatches it: a job
    /// cancelled or past its deadline is finalized here instead.
    pub fn next_lease(&self, wait: Duration) -> Next {
        match self.queue.pop(wait) {
            Popped::Entry(entry) => self.begin(entry).map_or(Next::Idle, Next::Lease),
            Popped::Timeout => Next::Idle,
            Popped::Closed => Next::Closed,
        }
    }

    fn begin(&self, entry: QueueEntry) -> Option<Lease> {
        let id = entry.id;
        let mut jobs = lock(&self.jobs);
        let rec = jobs.get_mut(&id).filter(|r| !r.view.state.is_terminal())?;
        let spec = rec.spec.clone()?;
        let elapsed_ms = rec.elapsed_ms();
        let verdict = if rec.cancel_requested {
            Some((JobState::Cancelled, "cancelled".to_owned()))
        } else {
            rec.deadline_ms
                .filter(|d| elapsed_ms >= *d)
                .map(|deadline_ms| {
                    let e = SproutError::DeadlineExpired {
                        deadline_ms,
                        elapsed_ms,
                    };
                    (JobState::Expired, e.to_string())
                })
        };
        if let Some((state, error)) = verdict {
            drop(jobs);
            self.finalize(id, state, Some(error));
            return None;
        }
        let lease = self.next_lease.fetch_add(1, Ordering::SeqCst);
        rec.view.state = JobState::Running;
        rec.view.attempts = entry.attempt + 1;
        rec.view.queue_ms = (elapsed_ms - rec.view.run_ms).max(0.0);
        rec.lease = Some(lease);
        let queue_ms = rec.view.queue_ms;
        let lease = Lease {
            job: id,
            lease,
            attempt: entry.attempt,
            spec,
            checkpoint: self.checkpoint(id),
            cancel: rec.cancel.clone(),
            submitted: rec.submitted,
            deadline_ms: rec.deadline_ms,
        };
        drop(jobs);
        lock(&self.queue_waits).push(queue_ms);
        telemetry::histogram!("serve.queue_wait_ms", queue_ms as u64);
        Some(lease)
    }

    /// The supervisor checkpoint path of job `id`: shared by every
    /// attempt, so a retry — on any slot — resumes completed waves.
    fn checkpoint(&self, id: u64) -> Option<PathBuf> {
        self.policy
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("ckpt-{id}")))
    }

    /// Takes back a lease that never reached its slot: the job re-queues
    /// without burning an attempt.
    pub fn requeue_unstarted(&self, lease: &Lease) {
        let priority = {
            let mut jobs = lock(&self.jobs);
            let Some(rec) = jobs
                .get_mut(&lease.job)
                .filter(|r| r.lease == Some(lease.lease))
            else {
                return;
            };
            rec.lease = None;
            rec.view.state = JobState::Queued;
            rec.view.priority
        };
        self.queue
            .reenter(lease.job, priority, lease.attempt, Duration::from_millis(5));
        self.settled.notify_all();
    }

    /// Publishes one event of a running attempt — the only way an
    /// attempt's events reach the bus, from either executor. An event
    /// whose lease is not the job's current one is dropped, so a zombie
    /// never writes into a stream; a terminal event is dropped too, as
    /// only [`Core::finalize`] may publish one. A `progress` event's
    /// `rails_complete` folds into the job's snapshot with `max`. The
    /// publish happens under the job lock, so no event can follow the
    /// terminal one.
    pub fn publish_live(&self, job: u64, lease: u64, kind: EventKind, mut fields: Fields) {
        let mut jobs = lock(&self.jobs);
        let Some(rec) = jobs
            .get_mut(&job)
            .filter(|r| r.lease == Some(lease) && kind != EventKind::Terminal)
        else {
            return;
        };
        if kind == EventKind::Progress {
            if let Some((_, Value::U64(n))) = fields.iter_mut().find(|(k, _)| k == "rails_complete")
            {
                rec.view.rails_complete = rec.view.rails_complete.max(*n as usize);
                *n = rec.view.rails_complete as u64;
            }
        }
        self.bus.publish(job, kind, |o| {
            for (k, v) in &fields {
                o.value(k, v);
            }
        });
    }

    /// Settles an attempt's [`DoneFrame`]. A frame whose lease is not
    /// the job's current one is refused and counted as stale.
    pub fn settle(&self, done: DoneFrame) {
        if !self.classify(done) {
            self.count(|m| m.stale_finalizes += 1);
            telemetry::counter!("serve.stale_finalizes");
        }
    }

    /// An attempt that ended without a result — its thread panicked or
    /// its process died — settles as a retryable failure.
    pub fn lost(&self, job: u64, lease: u64, why: Lost) {
        let (state, error) = match why {
            Lost::Panic => ("worker_panic", "worker panicked"),
            Lost::WorkerDied => ("worker_died", "worker died"),
        };
        let done = DoneFrame {
            state: state.into(),
            error: Some(error.into()),
            retryable: true,
            ..DoneFrame::unrun(job, lease, 0)
        };
        if self.classify(done) {
            self.count(|m| match why {
                Lost::Panic => m.worker_panics += 1,
                Lost::WorkerDied => m.redispatches += 1,
            });
        }
    }

    /// The one outcome classifier: turns an attempt's [`DoneFrame`] into
    /// a retry or a terminal state. `false` when the frame's lease is
    /// not the job's current one.
    fn classify(&self, done: DoneFrame) -> bool {
        let id = done.job;
        let verdict = {
            let mut jobs = lock(&self.jobs);
            let Some(rec) = jobs
                .get_mut(&id)
                .filter(|r| !r.view.state.is_terminal() && r.lease == Some(done.lease))
            else {
                return false;
            };
            rec.harvest(&done);
            let deadline_passed = rec.deadline_ms.is_some_and(|d| rec.elapsed_ms() >= d);
            let partial = |fallback: JobState, why: &str| {
                if done.rails_complete > 0 {
                    Verdict::Final(JobState::BestSoFar, done.error.clone())
                } else {
                    Verdict::Final(fallback, done.error.clone().or_else(|| Some(why.into())))
                }
            };
            match done.state.as_str() {
                "completed" => Verdict::Final(JobState::Completed, None),
                "cancelled" if rec.cancel_requested => {
                    Verdict::Final(JobState::Cancelled, Some("cancelled".into()))
                }
                "expired" => partial(JobState::Expired, "deadline expired"),
                _ if deadline_passed => partial(JobState::Expired, "deadline expired"),
                _ if done.retryable
                    && !rec.cancel_requested
                    && rec.view.attempts <= self.policy.max_job_retries =>
                {
                    rec.view.state = JobState::Queued;
                    Verdict::Retry(rec.view.priority, rec.view.attempts)
                }
                _ => partial(JobState::Failed, "no rail completed"),
            }
        };
        match verdict {
            Verdict::Final(state, error) => self.finalize(id, state, error),
            Verdict::Retry(priority, attempts) => {
                self.count(|m| m.retries += 1);
                let reason = match done.state.as_str() {
                    "failed" => "attempt_failed",
                    lost => lost,
                };
                telemetry::counter!("serve.retries");
                let delay = self
                    .policy
                    .backoff
                    .delay_ms(id, attempts.saturating_sub(1) as u32);
                self.bus.publish(id, EventKind::Retry, |o| {
                    o.str("reason", reason)
                        .u64("attempt", attempts as u64)
                        .f64("backoff_ms", delay);
                });
                let delay = Duration::from_secs_f64(delay / 1e3);
                self.queue.reenter(id, priority, attempts, delay);
                self.settled.notify_all();
            }
        }
        true
    }

    /// The simulated in-lifetime kill: the attempt's result is recorded
    /// but nothing is finalized or journaled, so only a restarted
    /// ledger finishes the job.
    pub fn mark_killed(&self, done: &DoneFrame) {
        {
            let mut jobs = lock(&self.jobs);
            let Some(rec) = jobs
                .get_mut(&done.job)
                .filter(|r| r.lease == Some(done.lease))
            else {
                return;
            };
            rec.harvest(done);
            rec.view.killed = true;
        }
        self.count(|m| m.killed += 1);
        telemetry::counter!("serve.killed");
        self.settled.notify_all();
    }

    /// The single terminal transition: in-memory exactly-once guard,
    /// one terminal counter, one terminal event, one journal line, and
    /// the checkpoint dropped.
    pub fn finalize(&self, id: u64, state: JobState, error: Option<String>) {
        if !state.is_terminal() {
            return;
        }
        let (latency_ms, fp, error) = {
            let mut jobs = lock(&self.jobs);
            let Some(rec) = jobs.get_mut(&id) else { return };
            rec.view.terminal_transitions += 1;
            if rec.view.terminal_transitions > 1 {
                drop(jobs);
                self.count(|m| m.terminal_violations += 1);
                telemetry::counter!("serve.terminal_violations");
                return;
            }
            rec.view.state = state;
            rec.lease = None;
            if rec.view.error.is_none() {
                rec.view.error = error;
            }
            (rec.elapsed_ms(), rec.fp, rec.view.error.clone())
        };
        self.count(|m| {
            *match state {
                JobState::Completed => &mut m.completed,
                JobState::BestSoFar => &mut m.best_so_far,
                JobState::Failed => &mut m.failed,
                JobState::Shed => &mut m.shed,
                JobState::Expired => &mut m.expired,
                _ => &mut m.cancelled,
            } += 1
        });
        telemetry::point("job_terminal")
            .field("job", id)
            .field("state", state.name())
            .field("latency_ms", latency_ms)
            .emit();
        // Exactly one Terminal event per job: the transition guard
        // above admits only the first finalize.
        self.bus.publish(id, EventKind::Terminal, |o| {
            o.str("state", state.name()).f64("latency_ms", latency_ms);
            if let Some(e) = &error {
                o.str("error", e);
            }
        });
        lock(&self.latencies).push(latency_ms);
        self.journal.done(id, fp, state.name());
        if let Some(path) = self.checkpoint(id) {
            let _ = std::fs::remove_file(path);
        }
        self.settled.notify_all();
    }
}

/// Locks `m`, recovering the data of a poisoned lock: a panicking
/// attempt must not wedge the ledger.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(p50, p99, count, sum)` of a latency sample.
fn summarize(samples: &Mutex<Vec<f64>>) -> (f64, f64, u64, f64) {
    let mut sorted = lock(samples).clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: f64| {
        let last = sorted.len().saturating_sub(1);
        sorted
            .get((last as f64 * q).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    (
        pick(0.50),
        pick(0.99),
        sorted.len() as u64,
        sorted.iter().sum(),
    )
}

// ---- public handle -----------------------------------------------------

/// A running job ledger over executor `E`. Share it behind an `Arc`
/// when several frontends need it — the HTTP server does.
#[derive(Debug)]
pub struct Ledger<E: Executor> {
    pub(crate) core: Arc<Core>,
    pub(crate) exec: Arc<E>,
}

impl<E: Executor> Ledger<E> {
    /// Submits a job. The id returns only once the admission record is
    /// journaled and the job queued — from that point the ledger
    /// guarantees exactly one terminal state.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] with the HTTP-facing rejection reason.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let core = &self.core;
        if core.draining() {
            return Err(SubmitError::Draining);
        }
        // An unresolvable job is rejected, not accepted-then-failed.
        let board = spec.resolve_board().map_err(SubmitError::Invalid)?;
        spec.requests(&board).map_err(SubmitError::Invalid)?;

        let id = core.next_id.fetch_add(1, Ordering::SeqCst);
        let deadline_ms = spec.deadline_ms.or(core.policy.default_deadline_ms);
        let rec = JobRecord::queued(id, spec, deadline_ms, false);
        let (fp, priority) = (rec.fp, rec.view.priority);
        // Journal before queueing: accepted means crash-survivable.
        let spec = rec.spec.as_ref().expect("a submitted job has its spec");
        core.journal
            .admit(id, fp, spec, deadline_ms)
            .map_err(SubmitError::Journal)?;
        lock(&core.jobs).insert(id, rec);

        match core.queue.admit(id, priority) {
            Ok(Admitted::Queued) => {}
            Ok(Admitted::Shed { victim }) => {
                telemetry::counter!("serve.sheds");
                core.finalize(
                    victim,
                    JobState::Shed,
                    Some("shed by higher-priority arrival".into()),
                );
            }
            Err(_) => {
                // Refused: tombstone the admit line so a restart never
                // resurrects a job the client was told was refused.
                lock(&core.jobs).remove(&id);
                core.journal.done(id, fp, "rejected");
                core.count(|m| m.rejected += 1);
                telemetry::counter!("serve.rejected");
                return Err(if core.draining() {
                    SubmitError::Draining
                } else {
                    SubmitError::Saturated {
                        retry_after_ms: core.policy.backoff.delay_ms(id, 0),
                    }
                });
            }
        }
        core.count(|m| m.accepted += 1);
        telemetry::counter!("serve.accepted");
        telemetry::gauge!("serve.queue_depth", core.queue.len() as i64);
        Ok(id)
    }

    /// The snapshot of one job, if known.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        lock(&self.core.jobs).get(&id).map(|r| r.view.clone())
    }

    /// Snapshots of every known job, ordered by id.
    pub fn jobs(&self) -> Vec<JobSnapshot> {
        let mut out: Vec<JobSnapshot> = lock(&self.core.jobs)
            .values()
            .map(|r| r.view.clone())
            .collect();
        out.sort_by_key(|j| j.id);
        out
    }

    /// Cancels a job: a queued job finalizes immediately; a running one
    /// has its cancel token triggered and finalizes when the supervisor
    /// yields — where the executor can cancel running work at all.
    /// `false` for unknown, terminal, and uncancellable jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let core = &self.core;
        let token = {
            let mut jobs = lock(&core.jobs);
            let Some(rec) = jobs.get_mut(&id) else {
                return false;
            };
            if rec.view.state.is_terminal()
                || (rec.view.state == JobState::Running && !E::CANCELS_RUNNING)
            {
                return false;
            }
            rec.cancel_requested = true;
            rec.cancel.clone()
        };
        token.cancel();
        if core.queue.remove(id) {
            core.finalize(
                id,
                JobState::Cancelled,
                Some("cancelled while queued".into()),
            );
        }
        true
    }

    /// Current readiness: `Draining` once a drain or shutdown began,
    /// `Overloaded` past the queue watermark.
    pub fn ready(&self) -> Readiness {
        if self.core.draining() {
            Readiness::Draining
        } else if self.core.overloaded() {
            Readiness::Overloaded
        } else {
            Readiness::Ready
        }
    }

    /// The per-job event bus feeding `GET /jobs/:id/events`.
    pub fn events(&self) -> Arc<EventBus> {
        Arc::clone(&self.core.bus)
    }

    /// The latest attempt's performance profile for `id` (rendered
    /// JSON), where the executor records one. Feeds
    /// `GET /jobs/<id>/profile`.
    pub fn profile(&self, id: u64) -> Option<String> {
        self.exec.profile(id)
    }

    /// Current counters and latency percentiles.
    pub fn metrics(&self) -> ServiceMetrics {
        let core = &self.core;
        let (latency_p50_ms, latency_p99_ms, _, latency_sum_ms) = summarize(&core.latencies);
        let (queue_wait_p50_ms, queue_wait_p99_ms, queue_wait_count, queue_wait_sum_ms) =
            summarize(&core.queue_waits);
        let counts = lock(&core.counts).clone();
        let mut m = ServiceMetrics {
            queue_depth: core.queue.len(),
            running: lock(&core.jobs)
                .values()
                .filter(|r| r.lease.is_some())
                .count(),
            latency_p50_ms,
            latency_p99_ms,
            latency_sum_ms,
            queue_wait_p50_ms,
            queue_wait_p99_ms,
            queue_wait_count,
            queue_wait_sum_ms,
            uptime_seconds: core.started.elapsed().as_secs_f64(),
            events_published: core.bus.events_published(),
            events_dropped: core.bus.events_dropped(),
            ..counts
        };
        self.exec.gauges(&mut m);
        m
    }

    /// Blocks until every accepted job is terminal (killed jobs — which
    /// only a restart can finish — excepted) or the timeout passes.
    /// `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.core
            .wait(timeout, |r| r.view.state.is_terminal() || r.view.killed)
    }
}

impl<E: Executor> Drop for Ledger<E> {
    fn drop(&mut self) {
        self.exec.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RoutingService, ServiceConfig};
    use sprout_telemetry::json::{parse, Json};

    #[test]
    fn live_events_need_the_current_lease_and_never_follow_the_terminal() {
        // No slots: the test leases the job itself.
        let svc = RoutingService::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .expect("start");
        let id = svc.submit(JobSpec::two_rail(20.0)).expect("submit");
        let Next::Lease(lease) = svc.core.next_lease(Duration::from_secs(5)) else {
            panic!("job not leased");
        };
        let core = &svc.core;
        let progress = |n| vec![("rails_complete".to_owned(), Value::U64(n))];
        let rails_complete = || -> Vec<u64> {
            let page = svc.events().snapshot_since(id, 0);
            let lines = page.events.iter().map(|e| parse(&e.line).expect("JSON"));
            lines
                .filter_map(|l| l.get("rails_complete").and_then(Json::as_u64))
                .collect()
        };

        // A stale lease and a terminal kind never reach the bus.
        core.publish_live(id, lease.lease + 1, EventKind::Progress, progress(2));
        core.publish_live(id, lease.lease, EventKind::Terminal, Vec::new());
        assert!(svc.events().snapshot_since(id, 0).events.is_empty());

        // The live lease publishes; `rails_complete` folds with `max`.
        core.publish_live(id, lease.lease, EventKind::Progress, progress(1));
        core.publish_live(id, lease.lease, EventKind::Progress, progress(0));
        assert_eq!(rails_complete(), vec![1, 1]);
        assert_eq!(svc.status(id).map(|s| s.rails_complete), Some(1));

        // Once the attempt settles, its lease is stale: nothing follows
        // the terminal event.
        core.settle(DoneFrame {
            state: "completed".into(),
            ..DoneFrame::unrun(id, lease.lease, 2)
        });
        core.publish_live(id, lease.lease, EventKind::Stage, Vec::new());
        let page = svc.events().snapshot_since(id, 0);
        assert!(page.terminal);
        assert_eq!(
            page.events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                EventKind::Progress,
                EventKind::Progress,
                EventKind::Terminal
            ]
        );
        svc.shutdown(false);
    }
}
