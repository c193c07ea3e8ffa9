//! Fleet mode: the job ledger over child-process slots.
//!
//! [`FleetCoordinator`] is a [`Ledger`] whose executor, [`Processes`],
//! runs each attempt in one of N `sprout_fleet_worker` children
//! speaking the newline-delimited JSON protocol of [`crate::proto`]
//! over stdin/stdout. The ledger keeps admission, the journal, retries
//! and the single finalize; this module adds what only a process
//! boundary needs — the robustness layer for lost processes rather
//! than panicked threads:
//!
//! * **Leases** — a job goes out under the ledger's lease id. Only a
//!   `done` frame carrying the *current* lease settles the job; a
//!   slow-then-revived worker reporting under an expired lease is
//!   refused and counted in [`ServiceMetrics::stale_finalizes`]. The
//!   worker's `event` frames go to the ledger's lease-checked publish,
//!   so a zombie's events never reach a stream either.
//! * **Heartbeats** — workers beat on a timer from a dedicated thread.
//!   A worker silent past [`FleetConfig::heartbeat_timeout_ms`] is
//!   declared dead: its lease expires, its job re-enters the queue with
//!   seeded backoff, and the next healthy worker resumes it *from its
//!   last completed wave* — the supervisor checkpoint in the shared
//!   data directory is the cross-process handoff.
//! * **Supervision** — dead workers are respawned (bounded by
//!   [`FleetConfig::max_worker_restarts`]); when every worker is dead
//!   and the restart budget is spent, queued jobs fail with a typed
//!   error instead of waiting forever.
//! * **Graceful drain** — [`FleetCoordinator::drain`] stops leasing,
//!   waits for in-flight leases to finish, sends `drain` frames, and
//!   reaps the children. Jobs still queued stay journaled for the next
//!   coordinator — exactly what a SIGTERM'd deployment wants.
//!
//! The dispatcher sleeps on a condition variable until a slot is free,
//! then waits on the queue, so a queued job is leased as soon as a
//! worker can take it.

use crate::backoff::BackoffConfig;
use crate::chaos::FleetFaultPlan;
use crate::ledger::{lock, Core, Executor, Lease, Ledger, Lost, Next, Policy, ServiceMetrics};
pub use crate::ledger::{replay_journal, JournalReplay};
use crate::proto::{CoordFrame, DoneFrame, WorkerFrame};
use crate::service::ServeError;
use sprout_telemetry as telemetry;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes to spawn at start.
    pub workers: usize,
    /// Worker executable. `None` resolves `sprout_fleet_worker` next to
    /// the current executable — correct for the shipped binaries, which
    /// land in the same target directory.
    pub worker_cmd: Option<PathBuf>,
    /// Extra arguments appended to every worker invocation (e.g.
    /// `--router fast`).
    pub worker_args: Vec<String>,
    /// Admission-queue capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Journal + checkpoint directory, shared with the workers. `None`
    /// disables crash recovery *and* cross-process resume.
    pub data_dir: Option<PathBuf>,
    /// Heartbeat period workers are told to use (ms).
    pub heartbeat_ms: u64,
    /// Silence past this declares a worker dead (ms). Must comfortably
    /// exceed `heartbeat_ms`.
    pub heartbeat_timeout_ms: u64,
    /// Dispatch attempts per job before it fails terminally.
    pub max_job_retries: usize,
    /// Replacement workers spawned over the coordinator's lifetime.
    pub max_worker_restarts: usize,
    /// Seeded-jitter delay schedule for re-dispatch.
    pub backoff: BackoffConfig,
    /// Deadline for jobs that do not bring their own (ms).
    pub default_deadline_ms: Option<f64>,
    /// Queue-depth fraction at which `/readyz` reports overload.
    pub overload_watermark: f64,
    /// SIGKILL workers on death declaration. `false` leaves a silent
    /// worker running — the configuration that exercises the
    /// stale-finalize path, since the zombie eventually reports.
    pub kill_dead_workers: bool,
    /// Process-level fault plan forwarded to every worker (testing
    /// only).
    pub fault: Option<FleetFaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            worker_cmd: None,
            worker_args: Vec::new(),
            queue_capacity: 64,
            data_dir: None,
            heartbeat_ms: 50,
            heartbeat_timeout_ms: 500,
            max_job_retries: 3,
            max_worker_restarts: 8,
            backoff: BackoffConfig {
                base_ms: 20.0,
                ..BackoffConfig::default()
            },
            default_deadline_ms: None,
            overload_watermark: 0.75,
            kill_dead_workers: true,
            fault: None,
        }
    }
}

/// Fleet counters: the ledger's one metrics struct.
pub type FleetMetrics = ServiceMetrics;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Idle,
    Leased { job: u64, lease: u64 },
    Dead,
}

#[derive(Debug)]
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pid: u32,
    state: SlotState,
    last_beat: Instant,
}

/// The child-process executor: worker processes, their reader threads,
/// the dispatcher and the heartbeat monitor.
#[derive(Debug)]
pub struct Processes {
    core: Arc<Core>,
    config: FleetConfig,
    slots: Mutex<Vec<Slot>>,
    /// Signalled when a slot turns idle or dies: the dispatcher's wake.
    changed: Condvar,
    /// Replacement workers spawned: the respawn budget's count.
    restarts: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The running fleet coordinator. Share behind an `Arc` when multiple
/// frontends need it — the HTTP server does.
pub type FleetCoordinator = Ledger<Processes>;

impl Executor for Processes {
    const PREFIX: &'static str = "sprout_fleet_";
    const CANCELS_RUNNING: bool = false;

    fn gauges(&self, m: &mut ServiceMetrics) {
        let slots = lock(&self.slots);
        m.workers_live = slots.iter().filter(|w| w.state != SlotState::Dead).count();
        m.leased = slots
            .iter()
            .filter(|w| matches!(w.state, SlotState::Leased { .. }))
            .count();
        m.worker_restarts = self.restarts.load(Ordering::Relaxed);
    }

    fn stop(&self) {
        self.core.start_draining();
        self.changed.notify_all();
        for w in lock(&self.slots).iter_mut() {
            w.stdin = None;
            if let Some(mut child) = w.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        self.core.queue.close();
        self.join_threads();
    }
}

impl Ledger<Processes> {
    /// Starts the fleet: prepares the data directory, replays the
    /// journal (re-admitting unfinished jobs — coordinator crash
    /// recovery), spawns the worker processes, and starts the
    /// dispatcher and heartbeat monitor.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the configuration is unusable, the data
    /// directory cannot be prepared, or no worker can be spawned.
    pub fn start(config: FleetConfig) -> Result<FleetCoordinator, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "a fleet needs at least one worker",
            ));
        }
        if config.heartbeat_timeout_ms <= config.heartbeat_ms {
            return Err(ServeError::InvalidConfig(
                "heartbeat_timeout_ms must exceed heartbeat_ms",
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
        let exec = Arc::new(Processes {
            core: Arc::clone(&core),
            config,
            slots: Mutex::new(Vec::new()),
            changed: Condvar::new(),
            restarts: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        });
        // Built before any thread holds a reference, so an early error
        // return still stops whatever was started.
        let fleet = Ledger { core, exec };
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        for _ in 0..fleet.exec.config.workers {
            let reader = fleet.exec.spawn_worker().map_err(io)?;
            lock(&fleet.exec.threads).push(reader);
        }
        for (name, run) in [
            (
                "fleet-dispatch",
                Processes::dispatch_loop as fn(&Arc<Processes>),
            ),
            ("fleet-monitor", Processes::monitor_loop),
        ] {
            let p = Arc::clone(&fleet.exec);
            let handle = std::thread::Builder::new()
                .name(name.into())
                .spawn(move || run(&p))
                .map_err(io)?;
            lock(&fleet.exec.threads).push(handle);
        }
        Ok(fleet)
    }

    /// OS pids of the workers currently considered live — the handles
    /// the process-level chaos tests aim real `SIGKILL`/`SIGSTOP` at.
    pub fn worker_pids(&self) -> Vec<u32> {
        lock(&self.exec.slots)
            .iter()
            .filter(|w| w.state != SlotState::Dead)
            .map(|w| w.pid)
            .collect()
    }

    /// Graceful drain (the SIGTERM path): stop admitting and leasing,
    /// wait for in-flight leases to finish (bounded by `timeout`), ask
    /// every worker to exit, and reap the children. Jobs still queued
    /// stay journaled — a later coordinator recovers them. Returns
    /// `true` when every lease finished in time.
    pub fn drain(&self, timeout: Duration) -> bool {
        let p = &self.exec;
        self.core.start_draining();
        p.changed.notify_all();
        let drained = self.core.wait_unleased(timeout);
        // Ask workers to exit, then close their stdin so even a worker
        // that misses the frame sees EOF.
        for w in lock(&p.slots).iter_mut() {
            if let Some(stdin) = &mut w.stdin {
                let _ = writeln!(stdin, "{}", CoordFrame::Drain.to_json());
                let _ = stdin.flush();
            }
            w.stdin = None;
        }
        p.reap_all(Duration::from_secs(10));
        self.core.queue.close();
        p.join_threads();
        drained
    }

    /// Abrupt stop — the coordinator-crash simulation for restart
    /// tests: kill every worker, finalize nothing. The journal and
    /// checkpoints stay exactly as they were; only a fresh
    /// [`FleetCoordinator::start`] on the same data directory finishes
    /// the surviving jobs.
    pub fn shutdown_abrupt(&self) {
        self.exec.stop();
    }
}

impl Processes {
    fn join_threads(&self) {
        let threads = std::mem::take(&mut *lock(&self.threads));
        for h in threads {
            let _ = h.join();
        }
    }

    fn reap_all(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let mut alive = false;
            {
                let mut slots = lock(&self.slots);
                for w in slots.iter_mut() {
                    if let Some(child) = &mut w.child {
                        match child.try_wait() {
                            Ok(None) => alive = true,
                            Ok(Some(_)) | Err(_) => w.child = None,
                        }
                    }
                }
                if alive && Instant::now() >= deadline {
                    for w in slots.iter_mut() {
                        if let Some(mut child) = w.child.take() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return;
                }
            }
            if !alive {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // ---- worker lifecycle ----------------------------------------------

    /// Spawns one worker process and its reader thread.
    fn spawn_worker(self: &Arc<Self>) -> std::io::Result<JoinHandle<()>> {
        let c = &self.config;
        // By default the worker binary sits next to this executable —
        // where cargo puts the shipped binaries.
        let exe = c.worker_cmd.clone().unwrap_or_else(|| {
            std::env::current_exe()
                .map(|p| p.with_file_name("sprout_fleet_worker"))
                .unwrap_or_else(|_| PathBuf::from("sprout_fleet_worker"))
        });
        let mut cmd = Command::new(exe);
        cmd.arg("--heartbeat-ms")
            .arg(c.heartbeat_ms.to_string())
            .args(&c.worker_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(f) = &c.fault {
            cmd.args(f.to_args());
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("worker stdout not captured"))?;
        let pid = child.id();
        let w = {
            let mut slots = lock(&self.slots);
            slots.push(Slot {
                child: Some(child),
                stdin,
                pid,
                state: SlotState::Idle,
                last_beat: Instant::now(),
            });
            slots.len() - 1
        };
        self.core.count(|m| m.workers_spawned += 1);
        telemetry::counter!("fleet.workers_spawned");
        self.changed.notify_all();
        let p = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("fleet-read-{w}"))
            .spawn(move || p.reader_loop(w, stdout))
    }

    fn reader_loop(self: &Arc<Self>, w: usize, stdout: std::process::ChildStdout) {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let Ok(frame) = WorkerFrame::parse(&line) else {
                telemetry::counter!("fleet.bad_frames");
                continue;
            };
            {
                let mut slots = lock(&self.slots);
                let slot = &mut slots[w];
                if slot.state != SlotState::Dead {
                    slot.last_beat = Instant::now();
                }
                // Even a stale `done` means the worker finished the
                // lease it holds: free the slot.
                if let WorkerFrame::Done(d) = &frame {
                    let held = SlotState::Leased {
                        job: d.job,
                        lease: d.lease,
                    };
                    if slot.state == held {
                        slot.state = SlotState::Idle;
                        self.changed.notify_all();
                    }
                }
            }
            match frame {
                WorkerFrame::Done(done) => self.core.settle(done),
                WorkerFrame::Event {
                    job,
                    lease,
                    kind,
                    fields,
                } => self.core.publish_live(job, lease, kind, fields),
                WorkerFrame::Hello { .. } | WorkerFrame::Heartbeat { .. } => {}
            }
        }
        // EOF: the worker process is gone (exit, SIGKILL, or drain).
        self.worker_died(w, "worker pipe closed");
        let child = lock(&self.slots)[w].child.take();
        if let Some(mut c) = child {
            let _ = c.wait();
        }
    }

    /// Declares worker `w` dead (idempotent): expires its lease so the
    /// job re-enters the queue with backoff, optionally SIGKILLs the
    /// process, and spawns a replacement while the restart budget lasts.
    fn worker_died(self: &Arc<Self>, w: usize, why: &str) {
        let expired = {
            let mut slots = lock(&self.slots);
            let slot = &mut slots[w];
            if slot.state == SlotState::Dead {
                return;
            }
            let lease = match slot.state {
                SlotState::Leased { job, lease } => Some((job, lease)),
                _ => None,
            };
            slot.state = SlotState::Dead;
            slot.stdin = None;
            if self.config.kill_dead_workers {
                if let Some(child) = &mut slot.child {
                    let _ = child.kill();
                }
            }
            lease
        };
        let draining = self.core.draining();
        // A worker exiting cleanly after the Drain frame is retirement,
        // not death — don't let graceful shutdown inflate the counters.
        if !draining || expired.is_some() {
            self.core.count(|m| m.workers_dead += 1);
            telemetry::point("fleet_worker_dead")
                .field("worker", w)
                .field("why", why)
                .emit();
        }
        if let Some((job, lease)) = expired {
            self.core.lost(job, lease, Lost::WorkerDied);
        }
        // Supervision: replace the dead worker while the budget lasts.
        // The replacement's reader thread is detached — it exits on its
        // pipe's EOF, and shutdown reaps the child itself.
        if !draining
            && (self.restarts.load(Ordering::Relaxed) as usize) < self.config.max_worker_restarts
        {
            self.restarts.fetch_add(1, Ordering::Relaxed);
            if self.spawn_worker().is_err() {
                telemetry::counter!("fleet.respawn_failed");
            }
        }
        self.changed.notify_all();
    }

    /// Every worker is dead and the restart budget is spent.
    fn fleet_lost(&self, slots: &[Slot]) -> bool {
        slots.iter().all(|w| w.state == SlotState::Dead)
            && self.restarts.load(Ordering::Relaxed) as usize >= self.config.max_worker_restarts
    }

    // ---- dispatcher ----------------------------------------------------

    fn dispatch_loop(self: &Arc<Self>) {
        loop {
            let lost = {
                let mut slots = lock(&self.slots);
                loop {
                    if self.core.draining() {
                        // Drain: stop leasing. Queued jobs stay
                        // journaled for the next coordinator.
                        return;
                    }
                    if slots.iter().any(|w| w.state == SlotState::Idle) {
                        break false;
                    }
                    if self.fleet_lost(&slots) {
                        break true;
                    }
                    slots = self
                        .changed
                        .wait_timeout(slots, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            };
            let lease = match self.core.next_lease(Duration::from_millis(20)) {
                Next::Lease(lease) => lease,
                Next::Idle => continue,
                Next::Closed => return,
            };
            if lost {
                // Fail queued jobs with a typed error instead of leasing
                // into the void forever.
                let mut done = DoneFrame::unrun(lease.job, lease.lease, lease.spec.rails.len());
                done.error = Some("no live workers and the restart budget is exhausted".into());
                self.core.settle(done);
            } else {
                self.assign(lease);
            }
        }
    }

    /// Sends `lease` to an idle worker; a worker that died in between
    /// gives the lease back without burning an attempt.
    fn assign(self: &Arc<Self>, lease: Lease) {
        let mut slots = lock(&self.slots);
        let Some(w) = slots.iter().position(|w| w.state == SlotState::Idle) else {
            drop(slots);
            self.core.requeue_unstarted(&lease);
            return;
        };
        let frame = CoordFrame::Lease {
            job: lease.job,
            lease: lease.lease,
            attempt: lease.attempt,
            spec: lease.spec.clone(),
            deadline_ms: lease.remaining_ms(),
            checkpoint: lease
                .checkpoint
                .as_ref()
                .map(|c| c.to_string_lossy().into_owned()),
        };
        slots[w].state = SlotState::Leased {
            job: lease.job,
            lease: lease.lease,
        };
        let sent = slots[w].stdin.as_mut().is_some_and(|stdin| {
            writeln!(stdin, "{}", frame.to_json())
                .and_then(|_| stdin.flush())
                .is_ok()
        });
        drop(slots);
        if sent {
            telemetry::counter!("fleet.leases");
            return;
        }
        // The pipe is broken: the worker is dead. Take the lease back
        // first (no attempt burned), so the death path finds nothing
        // left to expire.
        self.core.requeue_unstarted(&lease);
        self.worker_died(w, "lease write failed");
    }

    // ---- monitor -------------------------------------------------------

    fn monitor_loop(self: &Arc<Self>) {
        let timeout = Duration::from_millis(self.config.heartbeat_timeout_ms);
        let tick = Duration::from_millis((self.config.heartbeat_timeout_ms / 4).max(5));
        while !self.core.draining() {
            let silent: Vec<usize> = lock(&self.slots)
                .iter()
                .enumerate()
                .filter(|(_, w)| w.state != SlotState::Dead && w.last_beat.elapsed() > timeout)
                .map(|(i, _)| i)
                .collect();
            for w in silent {
                self.worker_died(w, "heartbeat timeout");
            }
            std::thread::sleep(tick);
        }
    }
}

// ---- SIGTERM -----------------------------------------------------------

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler (once) and returns the flag it sets —
/// the graceful-drain trigger for the fleet binaries. On non-Unix
/// platforms the flag simply never fires.
pub fn sigterm_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            extern "C" fn handler(_sig: i32) {
                // Only the async-signal-safe atomic store happens here.
                SIGTERM.store(true, Ordering::SeqCst);
            }
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGTERM_NO: i32 = 15;
            let f: extern "C" fn(i32) = handler;
            #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
            unsafe {
                signal(SIGTERM_NO, f as usize);
            }
        });
    }
    &SIGTERM
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::proto::spec_fingerprint;
    use sprout_telemetry::json::Obj;

    fn admit_line(id: u64, spec: &JobSpec) -> String {
        let mut o = Obj::new();
        o.str("kind", "admit")
            .u64("id", id)
            .u64("fp", spec_fingerprint(spec))
            .raw("spec", &spec.to_json());
        o.finish()
    }

    fn done_line(id: u64, spec: &JobSpec, state: &str) -> String {
        let mut o = Obj::new();
        o.str("kind", "done")
            .u64("id", id)
            .u64("fp", spec_fingerprint(spec))
            .str("state", state);
        o.finish()
    }

    #[test]
    fn replay_is_first_wins_for_duplicate_terminals() {
        let spec = JobSpec::two_rail(20.0);
        let journal = [
            admit_line(1, &spec),
            done_line(1, &spec, "completed"),
            done_line(1, &spec, "failed"), // revived worker's late report
            done_line(1, &spec, "completed"),
        ]
        .join("\n");
        let r = replay_journal(&journal);
        assert_eq!(r.terminal.len(), 1);
        assert_eq!(r.terminal[&1].0, "completed");
        assert_eq!(r.duplicates, 2);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn replay_readmits_unfinished_jobs_in_order() {
        let spec = JobSpec::two_rail(20.0);
        let journal = [
            admit_line(3, &spec),
            admit_line(1, &spec),
            admit_line(2, &spec),
            done_line(2, &spec, "failed"),
        ]
        .join("\n");
        let r = replay_journal(&journal);
        let ids: Vec<u64> = r.pending.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, vec![3, 1]); // journal order, not id order
        assert_eq!(r.next_id, 4);
    }

    #[test]
    fn replay_rejects_fingerprint_mismatch_and_garbage() {
        let spec = JobSpec::two_rail(20.0);
        let other = JobSpec::two_rail(99.0);
        let journal = [
            admit_line(1, &spec),
            done_line(1, &other, "completed"), // fp of a different spec
            "not json at all".into(),
            done_line(7, &spec, "completed"), // orphan: no admit
        ]
        .join("\n");
        let r = replay_journal(&journal);
        assert!(r.terminal.is_empty(), "mismatched fp must not finalize");
        assert_eq!(r.malformed, 3);
        assert_eq!(r.pending.len(), 1, "job 1 is still pending");
    }
}
