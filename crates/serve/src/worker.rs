//! Routing attempts, and the fleet worker process that runs them.
//!
//! `run_attempt` is the one place a job's rails go through the
//! supervisor. Both executors call it — the in-thread slots of
//! [`crate::service`] directly, the fleet's worker processes through
//! [`run_worker`] — and both get back the same [`DoneFrame`]: the
//! attempt *classified* (completed / expired / cancelled / failed +
//! retryable). The job ledger owns the retry decision.
//!
//! [`run_worker`] is the whole worker process: it announces itself
//! with a `hello` frame and a first heartbeat, starts a heartbeat
//! thread, and then serves [`CoordFrame::Lease`] frames from its input
//! until EOF or a [`CoordFrame::Drain`]. Each leased job runs with the
//! lease's checkpoint path, so a job re-dispatched from a dead worker
//! resumes from whatever waves the dead worker finished — the
//! checkpoint file in the coordinator's data directory is the
//! cross-process handoff. Heartbeats run on their own thread, so they
//! keep flowing while a long job routes — only an injected blackout, a
//! SIGSTOP, or real death silences them.
//!
//! Process-level faults ([`FleetFaultPlan`]) are drawn *inside* the
//! worker from `(seed, job, attempt)` carried by the lease, so a chaos
//! schedule replays identically whichever worker a job lands on. The
//! injected kill is `exit(9)` immediately after wave 0's checkpoint is
//! on disk — by construction the coordinator can always resume what it
//! re-dispatches.

use crate::chaos::FleetFaultPlan;
use crate::events::STAGE_SPANS;
use crate::job::JobSpec;
use crate::proto::{CoordFrame, DoneFrame, WorkerFrame};
use sprout_core::recovery::{CancelToken, RecoveryConfig, RecoveryPolicy, StageBudget};
use sprout_core::router::RouterConfig;
use sprout_core::supervisor::{
    is_retryable, JobReport, Supervisor, SupervisorConfig, WaveHook, WaveProgress,
};
use sprout_core::{SproutError, TileCache};
use sprout_telemetry::{self as telemetry, Event, Recorder};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker configuration, normally parsed from the command line by
/// [`worker_main`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Heartbeat period (ms).
    pub heartbeat_ms: u64,
    /// Router configuration for every job (pitch may be overridden per
    /// job spec).
    pub router: RouterConfig,
    /// Supervisor threads per job.
    pub supervisor_threads: usize,
    /// Supervisor-level retries per rail.
    pub supervisor_retries: usize,
    /// Process-level fault injection (testing only).
    pub fault: Option<FleetFaultPlan>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_ms: 100,
            router: RouterConfig::default(),
            supervisor_threads: 1,
            supervisor_retries: 1,
            fault: None,
        }
    }
}

/// The router profile the chaos suites and smoke binaries use: coarse
/// pitch, few iterations, `BestSoFar` — fast enough to run dozens of
/// jobs per test, complete enough to exercise every wave path.
pub fn fast_router() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        recovery: RecoveryConfig {
            policy: RecoveryPolicy::BestSoFar,
            budget: StageBudget::default(),
            fault: None,
        },
        ..RouterConfig::default()
    }
}

/// One routing attempt, as an executor hands it to [`run_attempt`].
pub(crate) struct Attempt<'a> {
    pub job: u64,
    pub lease: u64,
    pub spec: &'a JobSpec,
    /// Router settings; the spec's pitch override is applied on top.
    pub router: RouterConfig,
    pub supervisor_threads: usize,
    pub supervisor_retries: usize,
    /// Wall budget left before the job's deadline (ms).
    pub deadline_ms: Option<f64>,
    pub checkpoint: Option<PathBuf>,
    pub cancel: CancelToken,
    /// Stop after this wave as if the process died (the in-thread kill).
    pub kill_after_wave: Option<usize>,
    pub on_wave: WaveHook,
    /// Installed around the supervisor run.
    pub recorder: Arc<dyn Recorder>,
    /// The executor's tiling cache, shared by all its attempts.
    pub tiles: &'a TileCache,
}

/// Runs one attempt of a job and classifies it. The supervisor report
/// comes back too, when the supervisor ran.
pub(crate) fn run_attempt(a: Attempt<'_>) -> (DoneFrame, Option<JobReport>) {
    let mut done = DoneFrame::unrun(a.job, a.lease, a.spec.rails.len());
    if let Some(left) = a.deadline_ms.filter(|ms| *ms <= 0.0) {
        done.state = "expired".into();
        done.error = Some(format!(
            "deadline passed {:.0} ms before the attempt started",
            -left
        ));
        return (done, None);
    }
    // Board + requests were validated at submit; failures here are
    // internal and terminal.
    let resolved = a
        .spec
        .resolve_board()
        .and_then(|board| a.spec.requests(&board).map(|requests| (board, requests)));
    let (board, requests) = match resolved {
        Ok(r) => r,
        Err(e) => {
            done.error = Some(e.to_string());
            return (done, None);
        }
    };
    let mut router = a.router;
    if let Some(pitch) = a.spec.tile_pitch_mm {
        router.tile_pitch_mm = pitch;
    }
    // The executor's other slots keep the rest of the host busy: tile
    // with no more threads than this attempt's own share.
    let share = a.supervisor_threads.max(1);
    router.tile.threads = match router.tile.threads {
        0 => share,
        n => n.min(share),
    };
    let sup_config = SupervisorConfig {
        threads: a.supervisor_threads,
        deadline_ms: a.deadline_ms,
        max_retries: a.supervisor_retries,
        checkpoint: a.checkpoint,
        cancel: a.cancel,
        kill_after_wave: a.kill_after_wave,
        on_wave: Some(a.on_wave),
        ..SupervisorConfig::default()
    };

    let start = Instant::now();
    let report = {
        let _telemetry = telemetry::RecorderScope::install(a.recorder);
        Supervisor::new(&board, router, sup_config)
            .with_tile_cache(a.tiles.clone())
            .run(&requests)
    };
    done.run_ms = start.elapsed().as_secs_f64() * 1e3;
    done.resumed = report.resumed;
    done.rails_complete = report
        .rails
        .iter()
        .filter(|r| r.outcome.is_complete())
        .count();
    done.solves = report.results().map(|r| r.timings.solves as u64).sum();
    done.area_mm2 = report.shapes().iter().map(|(_, _, sh)| sh.area_mm2()).sum();

    if report.is_complete() {
        done.state = "completed".into();
        return (done, Some(report));
    }
    let (mut any_deadline, mut all_cancelled) = (false, true);
    for (_, e) in report.failures() {
        if done.error.is_none() {
            done.error = Some(e.to_string());
        }
        done.retryable |= is_retryable(e);
        any_deadline |= matches!(e, SproutError::DeadlineExpired { .. });
        all_cancelled &= matches!(e, SproutError::Cancelled);
    }
    done.state = if done.error.is_some() && all_cancelled {
        "cancelled"
    } else if any_deadline {
        "expired"
    } else {
        "failed"
    }
    .into();
    (done, Some(report))
}

struct Outbound<W: Write> {
    out: Mutex<W>,
}

impl<W: Write> Outbound<W> {
    fn send(&self, frame: &WorkerFrame) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A closed pipe means the coordinator is gone; the read loop
        // will see EOF and exit — nothing useful to do with the error.
        let _ = writeln!(out, "{}", frame.to_json());
        let _ = out.flush();
    }
}

/// Telemetry adapter installed around each leased run: pipeline stage
/// span ends (`grow`, `refine`, … — [`STAGE_SPANS`]) go out as
/// enriched [`WorkerFrame::Progress`] frames so the coordinator can
/// republish them on its event bus, giving `--fleet N` the same
/// per-stage stream in-process jobs get from their `JobRecorder`.
/// Wave attribution comes from watching `wave`/`job` span starts.
struct StageRecorder<W: Write> {
    out: Arc<Outbound<W>>,
    job: u64,
    lease: u64,
    wave: AtomicU64,
    waves: AtomicU64,
    inner: Option<Arc<dyn Recorder>>,
}

fn field_u64(fields: &[(&'static str, telemetry::Value)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| {
        if *k != key {
            return None;
        }
        match v {
            telemetry::Value::U64(n) => Some(*n),
            telemetry::Value::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    })
}

impl<W: Write + Send> Recorder for StageRecorder<W> {
    fn record(&self, event: &Event) {
        match event {
            Event::SpanStart {
                name: "job",
                fields,
                ..
            } => {
                if let Some(w) = field_u64(fields, "waves") {
                    self.waves.store(w, Ordering::Relaxed);
                }
            }
            Event::SpanStart {
                name: "wave",
                fields,
                ..
            } => {
                if let Some(w) = field_u64(fields, "wave") {
                    self.wave.store(w, Ordering::Relaxed);
                }
            }
            Event::SpanEnd {
                name, elapsed_ns, ..
            } if STAGE_SPANS.contains(name) => {
                self.out.send(&WorkerFrame::Progress {
                    job: self.job,
                    lease: self.lease,
                    wave: self.wave.load(Ordering::Relaxed) as usize,
                    waves: self.waves.load(Ordering::Relaxed) as usize,
                    // Stage frames carry no rail count; the coordinator
                    // folds `rails_complete` in with `max`, so 0 is inert.
                    rails_complete: 0,
                    stage: (*name).to_owned(),
                    elapsed_ms: *elapsed_ns as f64 / 1e6,
                    solve_ms: 0.0,
                });
            }
            _ => {}
        }
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

/// Runs the worker protocol over the given streams until EOF or a
/// drain frame. Returns the number of jobs completed (all outcomes).
///
/// Input is normally the process's stdin and output its stdout; tests
/// drive it with in-memory pipes.
pub fn run_worker<R, W>(config: WorkerConfig, input: R, output: W) -> usize
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let out = Arc::new(Outbound {
        out: Mutex::new(output),
    });
    out.send(&WorkerFrame::Hello {
        pid: std::process::id(),
    });
    // The first beat goes out before anything else can happen, so even
    // a worker whose input closes at once has announced its liveness.
    out.send(&WorkerFrame::Heartbeat { seq: 0 });

    // Further heartbeats flow on their own thread for the whole process
    // lifetime; `blackout` silences them without stopping the clock.
    let stop = Arc::new(AtomicBool::new(false));
    let blackout = Arc::new(AtomicBool::new(false));
    let beat = {
        let out = Arc::clone(&out);
        let stop = Arc::clone(&stop);
        let blackout = Arc::clone(&blackout);
        let period = Duration::from_millis(config.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            for seq in 1.. {
                std::thread::sleep(period);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if !blackout.load(Ordering::SeqCst) {
                    out.send(&WorkerFrame::Heartbeat { seq });
                }
            }
        })
    };

    // One tiling cache for the process lifetime: a board this worker
    // has routed before skips tiling.
    let tiles = TileCache::new();
    let mut served = 0usize;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match CoordFrame::parse(&line) {
            Ok(CoordFrame::Lease {
                job,
                lease,
                attempt,
                spec,
                deadline_ms,
                checkpoint,
            }) => {
                let done = run_lease(
                    &config,
                    &out,
                    &blackout,
                    &tiles,
                    job,
                    lease,
                    attempt,
                    &spec,
                    deadline_ms,
                    checkpoint.map(PathBuf::from),
                );
                out.send(&WorkerFrame::Done(done));
                served += 1;
            }
            Ok(CoordFrame::Drain) => break,
            // A frame this worker cannot parse is the coordinator's
            // bug, not a reason to die: skip it and keep heartbeating.
            Err(_) => continue,
        }
    }

    stop.store(true, Ordering::SeqCst);
    let _ = beat.join();
    served
}

#[allow(clippy::too_many_arguments)]
fn run_lease<W>(
    config: &WorkerConfig,
    out: &Arc<Outbound<W>>,
    blackout: &Arc<AtomicBool>,
    tiles: &TileCache,
    job: u64,
    lease: u64,
    attempt: usize,
    spec: &JobSpec,
    deadline_ms: Option<f64>,
    checkpoint: Option<PathBuf>,
) -> DoneFrame
where
    W: Write + Send + 'static,
{
    // Injected process faults, decided from (seed, job, attempt) so the
    // schedule is identical whichever worker the job lands on.
    let mut kill = false;
    if let Some(plan) = config.fault {
        if plan.stalls(job, attempt) {
            std::thread::sleep(Duration::from_millis(plan.stall_ms));
        }
        if plan.blackouts(job, attempt) {
            // The slow-then-revived worker: heartbeats stop long enough
            // for the lease to expire, but the job still finishes and
            // reports — the stale `done` the coordinator must ignore.
            blackout.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(plan.blackout_ms));
            blackout.store(false, Ordering::SeqCst);
        }
        kill = plan.kills(job, attempt);
    }

    let on_wave: WaveHook = {
        let out = Arc::clone(out);
        Arc::new(move |p: WaveProgress| {
            out.send(&WorkerFrame::Progress {
                job,
                lease,
                wave: p.wave,
                waves: p.waves,
                rails_complete: p.rails_complete,
                stage: "wave".into(),
                elapsed_ms: p.elapsed_ms,
                solve_ms: p.solve_ms,
            });
            if kill && p.wave == 0 {
                // The deterministic `kill -9`: wave 0's checkpoint is
                // on disk (the hook fires after the save), the progress
                // frame above is flushed, and the process dies without
                // unwinding — exactly what a real SIGKILL leaves behind.
                std::process::exit(9);
            }
        })
    };
    // Stage spans flow out as enriched progress frames for the
    // coordinator's event bus; the scope chains to whatever recorder
    // was already current so nothing is hidden from existing sinks.
    let recorder = Arc::new(StageRecorder {
        out: Arc::clone(out),
        job,
        lease,
        wave: AtomicU64::new(0),
        waves: AtomicU64::new(0),
        inner: telemetry::current(),
    });
    run_attempt(Attempt {
        job,
        lease,
        spec,
        router: config.router,
        supervisor_threads: config.supervisor_threads,
        supervisor_retries: config.supervisor_retries,
        deadline_ms,
        checkpoint,
        cancel: CancelToken::new(),
        kill_after_wave: None,
        on_wave,
        recorder,
        tiles,
    })
    .0
}

/// The `sprout_fleet_worker` entry point: parses the worker command
/// line and serves leases over stdin/stdout. Shared as a library
/// function so the integration-test harness can build a bit-identical
/// worker binary in its own package.
pub fn worker_main() {
    let mut config = WorkerConfig::default();
    let mut fault = FleetFaultPlan::quiet(0);
    let mut have_fault = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--heartbeat-ms" => {
                config.heartbeat_ms =
                    parse(&take(&args, &mut i, "--heartbeat-ms"), "--heartbeat-ms")
            }
            "--router" => match take(&args, &mut i, "--router").as_str() {
                "fast" => config.router = fast_router(),
                "default" => config.router = RouterConfig::default(),
                other => {
                    eprintln!("unknown router profile `{other}` (expected fast|default)");
                    std::process::exit(2);
                }
            },
            "--supervisor-threads" => {
                config.supervisor_threads = parse(
                    &take(&args, &mut i, "--supervisor-threads"),
                    "--supervisor-threads",
                )
            }
            "--supervisor-retries" => {
                config.supervisor_retries = parse(
                    &take(&args, &mut i, "--supervisor-retries"),
                    "--supervisor-retries",
                )
            }
            flag if FleetFaultPlan::FLAGS.contains(&flag) => {
                let value = take(&args, &mut i, flag);
                if let Err(e) = fault.set_flag(flag, &value) {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                have_fault = true;
            }
            "--help" | "-h" => {
                println!(
                    "sprout_fleet_worker [--heartbeat-ms N] [--router fast|default] \
                     [--supervisor-threads N] [--supervisor-retries N] [--chaos-seed S] \
                     [--kill-rate F] [--stall-rate F] [--stall-ms N] \
                     [--blackout-rate F] [--blackout-ms N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if have_fault {
        config.fault = Some(fault);
    }

    let stdin = std::io::stdin();
    run_worker(config, stdin.lock(), std::io::stdout());
}

fn take(args: &[String], i: &mut usize, what: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("missing value for {what}");
        std::process::exit(2);
    })
}

fn parse<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{v}` for {what}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A Vec<u8> sink shared with the test thread.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frames(buf: &SharedBuf) -> Vec<WorkerFrame> {
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| WorkerFrame::parse(l).expect("worker emits valid frames"))
            .collect()
    }

    #[test]
    fn worker_serves_a_lease_in_process() {
        let lease = CoordFrame::Lease {
            job: 1,
            lease: 100,
            attempt: 0,
            spec: JobSpec::two_rail(20.0),
            deadline_ms: None,
            checkpoint: None,
        };
        let input = format!("{}\n{}\n", lease.to_json(), CoordFrame::Drain.to_json());
        let out = SharedBuf::default();
        let config = WorkerConfig {
            router: fast_router(),
            ..WorkerConfig::default()
        };
        let served = run_worker(config, Cursor::new(input), out.clone());
        assert_eq!(served, 1);
        let fs = frames(&out);
        assert!(matches!(fs.first(), Some(WorkerFrame::Hello { .. })));
        let done = fs
            .iter()
            .find_map(|f| match f {
                WorkerFrame::Done(d) => Some(d.clone()),
                _ => None,
            })
            .expect("done frame");
        assert_eq!(done.job, 1);
        assert_eq!(done.lease, 100);
        assert_eq!(done.state, "completed");
        assert_eq!(done.rails_complete, 2);
        // Two rails on one layer = two waves = two wave-progress
        // frames; stage spans ride along as their own frames.
        let wave_frames: Vec<_> = fs
            .iter()
            .filter(|f| matches!(f, WorkerFrame::Progress { stage, .. } if stage == "wave"))
            .collect();
        assert_eq!(wave_frames.len(), 2);
        assert!(
            fs.iter()
                .any(|f| matches!(f, WorkerFrame::Progress { stage, .. } if stage == "grow")),
            "stage spans must be forwarded as progress frames"
        );
        let timed = fs.iter().any(|f| {
            matches!(f, WorkerFrame::Progress { stage, elapsed_ms, .. }
                if stage == "wave" && *elapsed_ms > 0.0)
        });
        assert!(timed, "wave frames must carry elapsed_ms");
    }

    #[test]
    fn worker_heartbeats_while_idle_and_skips_garbage() {
        // No lease at all: just garbage lines, then EOF.
        let input = "nonsense\n{\"type\":\"warp\"}\n";
        let out = SharedBuf::default();
        let config = WorkerConfig {
            heartbeat_ms: 5,
            router: fast_router(),
            ..WorkerConfig::default()
        };
        let served = run_worker(config, Cursor::new(input), out.clone());
        assert_eq!(served, 0);
        // The heartbeat thread gets at least the startup beat out.
        assert!(frames(&out)
            .iter()
            .any(|f| matches!(f, WorkerFrame::Heartbeat { .. })));
    }
}
