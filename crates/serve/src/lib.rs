//! # sprout-serve — fault-hardened routing as a service
//!
//! The supervisor (`sprout-core`) makes one routing job robust; this
//! crate makes a *stream* of jobs robust. It is built from one job
//! lifecycle and two ways of running attempts, all std-only like the
//! rest of the workspace.
//!
//! **One ledger.** [`ledger::Ledger`] owns every job from submission to
//! its single terminal state:
//!
//! * **Admission control and backpressure** — a [`queue::BoundedQueue`]
//!   caps in-flight work; saturation sheds strictly-lower-priority jobs
//!   or rejects with a retry-after hint. The queue never grows without
//!   bound.
//! * **One journal** — an append-only file ([`ledger::JOURNAL_FILE`])
//!   in the data directory: an `admit` line before a job queues, one
//!   `done` line when it finishes, both keyed by the job id and its
//!   [`proto::spec_fingerprint`]. [`ledger::replay_journal`] is the only
//!   recovery path, first record wins: a restarted ledger re-admits
//!   unfinished jobs (which resume from their supervisor checkpoints)
//!   and remembers finished ones as terminal.
//! * **Deadline propagation** — per-job deadlines, measured from
//!   admission, are checked at dispatch and flow into the supervisor and
//!   from there into every pipeline stage's wall budget.
//! * **Retries with deterministic backoff** — [`backoff::BackoffConfig`]
//!   produces a monotone, bounded, *seeded* schedule: bit-identical on
//!   any machine and thread count, so chaos runs replay exactly.
//! * **Exactly-once finalize** — every attempt comes back as a
//!   [`proto::DoneFrame`]; one classifier settles it into a retry or a
//!   terminal state, and one finalize guards the transition, publishes
//!   the terminal event and writes the journal line. A frame under an
//!   expired lease is refused.
//! * **Live observability** — every job feeds a bounded
//!   [`events::EventBus`] ring (wave progress, pipeline stage spans,
//!   solver residuals, retries, exactly one terminal event) through
//!   one lease-checked publish, whichever executor runs it, streamed
//!   to clients as chunked NDJSON via `GET /jobs/<id>/events` or a
//!   `?since=` long-poll; `/metrics` negotiates JSON or Prometheus
//!   text exposition from one [`ledger::ServiceMetrics`].
//!
//! **Two executors** behind the [`ledger::Executor`] seam run the
//! attempts, both through [`worker`]'s single attempt function:
//!
//! * **Threads** — [`service::RoutingService`]: slot threads that take
//!   a job the moment they are free and hand results back as values.
//!   Only here: panic containment, cancelling running jobs, graceful
//!   degradation past the overload watermark, the simulated in-lifetime
//!   kill of [`chaos::ServeFaultPlan`], and per-job profiles and run
//!   reports.
//! * **Processes** — [`fleet::FleetCoordinator`]: worker processes
//!   ([`worker`], speaking the framed protocol of [`proto`]) with
//!   heartbeat liveness, lease expiry, stale-finalize rejection, and
//!   bounded worker respawn — the robustness boundary above panicked
//!   threads: lost processes. [`chaos::FleetFaultPlan`] injects the
//!   process-level faults (kill -9, stalls, heartbeat blackouts).
//!
//! The invariant, asserted end to end by the chaos suites over both
//! executors: *every accepted job ends in exactly one terminal state —
//! completed, a best-so-far partial, or a typed error — and the
//! service never panics and never loses an accepted job.*
//!
//! Four binaries ship with the crate: `sprout_served` (the HTTP
//! daemon), `serve_batch` (a load-driving batch client),
//! `sprout_fleet` (the fleet coordinator CLI) and
//! `sprout_fleet_worker` (the per-process fleet worker).

#![warn(missing_docs)]

pub mod backoff;
pub mod chaos;
pub mod events;
pub mod fleet;
pub mod http;
pub mod job;
pub mod ledger;
pub mod proto;
pub mod queue;
pub mod service;
pub mod worker;

pub use backoff::BackoffConfig;
pub use chaos::{FleetFaultPlan, ServeFaultPlan};
pub use events::{EventBus, EventKind, EventPage, JobEvent};
pub use fleet::{FleetConfig, FleetCoordinator, FleetMetrics};
pub use http::{HttpServer, JobBackend};
pub use job::{JobSnapshot, JobSpec, JobState, Priority, SpecError};
pub use ledger::{replay_journal, Executor, JournalReplay, Ledger, JOURNAL_FILE};
pub use proto::{spec_fingerprint, CoordFrame, DoneFrame, ProtoError, WorkerFrame};
pub use queue::{AdmitError, Admitted, BoundedQueue};
pub use service::{
    Readiness, RoutingService, ServeError, ServiceConfig, ServiceMetrics, SubmitError,
};
pub use worker::{run_worker, WorkerConfig};
