//! Routing attempts, and the fleet worker process that runs them.
//!
//! `run_attempt` is the one place a job's rails go through the
//! supervisor. Both executors call it — the in-thread slots of
//! [`crate::service`] directly, the fleet's worker processes through
//! [`run_worker`] — and both get back the same [`DoneFrame`]: the
//! attempt *classified* (completed / expired / cancelled / failed +
//! retryable). The job ledger owns the retry decision. `run_attempt`
//! is also the one place an attempt's wave hook and job recorder are
//! built: the executor passes only a feed, so both executors stream
//! the same events for the same job (see [`crate::events`]).
//!
//! [`run_worker`] is the whole worker process: it announces itself
//! with a `hello` frame and a first heartbeat, starts a heartbeat
//! thread, and then serves [`CoordFrame::Lease`] frames from its input
//! until EOF or a [`CoordFrame::Drain`]. Each leased job runs with the
//! lease's checkpoint path, so a job re-dispatched from a dead worker
//! resumes from whatever waves the dead worker finished — the
//! checkpoint file in the coordinator's data directory is the
//! cross-process handoff. The attempt's events go out as `event`
//! frames. Heartbeats run on their own thread, so they keep flowing
//! while a long job routes — only an injected blackout, a SIGSTOP, or
//! real death silences them.
//!
//! Process-level faults ([`FleetFaultPlan`]) are drawn *inside* the
//! worker from `(seed, job, attempt)` carried by the lease, so a chaos
//! schedule replays identically whichever worker a job lands on. The
//! injected kill stops the attempt after wave 0 — the same
//! `kill_after_wave` the in-thread kill uses — and the worker then
//! `exit(9)`s without sending `done`: wave 0's checkpoint is on disk
//! and its `progress` frame flushed, so the coordinator can always
//! resume what it re-dispatches.

use crate::chaos::FleetFaultPlan;
use crate::cli::{parse, take};
use crate::events::{EventKind, Feed, JobRecorder};
use crate::job::JobSpec;
use crate::proto::{CoordFrame, DoneFrame, WorkerFrame};
use sprout_core::recovery::{CancelToken, RecoveryConfig, RecoveryPolicy, StageBudget};
use sprout_core::router::RouterConfig;
use sprout_core::supervisor::{
    is_retryable, JobReport, Supervisor, SupervisorConfig, WaveHook, WaveProgress,
};
use sprout_core::{SproutError, TileCache};
use sprout_telemetry::prof::Profiler;
use sprout_telemetry::{self as telemetry, Recorder, Value};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Process-level fault injection (testing only).
    pub fault: Option<FleetFaultPlan>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_ms: 100,
            router: RouterConfig::default(),
            supervisor_threads: 1,
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
    /// Wall budget left before the job's deadline (ms).
    pub deadline_ms: Option<f64>,
    pub checkpoint: Option<PathBuf>,
    pub cancel: CancelToken,
    /// Stop after this wave as if the process died (the injected kill).
    pub kill_after_wave: Option<usize>,
    /// Where the attempt's events go.
    pub feed: Feed,
    /// Records the attempt's thread timeline in front of its events.
    pub profiler: Option<&'a Profiler>,
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
    // and evaluate with no more threads than this attempt's own share.
    let share = a.supervisor_threads.max(1);
    router.threads = match router.threads {
        0 => share,
        n => n.min(share),
    };
    // Wave completions and the allowlisted telemetry (stage spans,
    // residual and panic points) both go out on the feed; the
    // hook runs after the wave's checkpoint save, off the hot path.
    let on_wave: WaveHook = {
        let feed = Arc::clone(&a.feed);
        Arc::new(move |p: WaveProgress| {
            let count = |n: usize| Value::U64(n as u64);
            feed(
                EventKind::Progress,
                vec![
                    ("wave".into(), count(p.wave)),
                    ("waves".into(), count(p.waves)),
                    ("rails_complete".into(), count(p.rails_complete)),
                    ("rails_total".into(), count(p.rails_total)),
                    ("elapsed_ms".into(), Value::F64(p.elapsed_ms)),
                    ("solve_ms".into(), Value::F64(p.solve_ms)),
                ],
            );
        })
    };
    let events: Arc<dyn Recorder> = Arc::new(JobRecorder {
        feed: a.feed,
        inner: telemetry::current(),
    });
    let recorder = match a.profiler {
        Some(profiler) => profiler.recorder(Some(events)),
        None => events,
    };
    let sup_config = SupervisorConfig {
        threads: a.supervisor_threads,
        deadline_ms: a.deadline_ms,
        checkpoint: a.checkpoint,
        cancel: a.cancel,
        kill_after_wave: a.kill_after_wave,
        on_wave: Some(on_wave),
    };

    let start = Instant::now();
    let report = {
        let _telemetry = telemetry::RecorderScope::install(recorder);
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

/// Writes one frame line. A closed pipe means the coordinator is gone;
/// the read loop will see EOF and exit — nothing useful to do with the
/// error.
fn send<W: Write>(out: &Mutex<W>, frame: &WorkerFrame) {
    let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(out, "{}", frame.to_json());
    let _ = out.flush();
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
    let out = Arc::new(Mutex::new(output));
    send(
        &out,
        &WorkerFrame::Hello {
            pid: std::process::id(),
        },
    );
    // The first beat goes out before anything else can happen, so even
    // a worker whose input closes at once has announced its liveness.
    send(&out, &WorkerFrame::Heartbeat { seq: 0 });

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
                    send(&out, &WorkerFrame::Heartbeat { seq });
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
        let frame = CoordFrame::parse(&line);
        let Ok(CoordFrame::Lease {
            job,
            lease,
            attempt,
            spec,
            deadline_ms,
            checkpoint,
        }) = frame
        else {
            if matches!(frame, Ok(CoordFrame::Drain)) {
                break;
            }
            // A frame this worker cannot parse is the coordinator's
            // bug, not a reason to die: skip it and keep heartbeating.
            continue;
        };

        // Injected process faults, decided from (seed, job, attempt) so
        // the schedule is identical whichever worker the job lands on.
        let mut kill = false;
        if let Some(plan) = config.fault {
            if plan.stalls(job, attempt) {
                std::thread::sleep(Duration::from_millis(plan.stall_ms));
            }
            if plan.blackouts(job, attempt) {
                // The slow-then-revived worker: heartbeats stop long
                // enough for the lease to expire, but the job still
                // finishes and reports — the stale `done` the
                // coordinator must ignore.
                blackout.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(plan.blackout_ms));
                blackout.store(false, Ordering::SeqCst);
            }
            kill = plan.kills(job, attempt);
        }

        let feed: Feed = {
            let out = Arc::clone(&out);
            Arc::new(move |kind, fields| {
                let event = WorkerFrame::Event {
                    job,
                    lease,
                    kind,
                    fields,
                };
                send(&out, &event);
            })
        };
        let (done, _) = run_attempt(Attempt {
            job,
            lease,
            spec: &spec,
            router: config.router,
            supervisor_threads: config.supervisor_threads,
            deadline_ms,
            checkpoint: checkpoint.map(PathBuf::from),
            cancel: CancelToken::new(),
            kill_after_wave: kill.then_some(0),
            feed,
            profiler: None,
            tiles: &tiles,
        });
        if kill {
            // The deterministic `kill -9`: the attempt stopped after
            // wave 0, whose checkpoint is on disk and whose progress
            // frame is flushed; the process dies without unwinding or
            // reporting — exactly what a real SIGKILL leaves behind.
            std::process::exit(9);
        }
        send(&out, &WorkerFrame::Done(done));
        served += 1;
    }

    stop.store(true, Ordering::SeqCst);
    let _ = beat.join();
    served
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
                     [--supervisor-threads N] [--chaos-seed S] \
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
        // Two rails on one layer = two waves = two progress events;
        // stage spans and residual points ride along as their own
        // event frames, all under the lease.
        let events: Vec<_> = fs
            .iter()
            .filter_map(|f| match f {
                WorkerFrame::Event {
                    job: 1,
                    lease: 100,
                    kind,
                    fields,
                } => Some((*kind, fields)),
                _ => None,
            })
            .collect();
        let field = |fields: &[(String, Value)], key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let waves: Vec<_> = events
            .iter()
            .filter(|(kind, _)| *kind == EventKind::Progress)
            .collect();
        assert_eq!(waves.len(), 2);
        assert!(
            waves
                .iter()
                .all(|(_, f)| matches!(field(f, "elapsed_ms"), Some(Value::F64(ms)) if ms > 0.0)),
            "wave events must carry elapsed_ms"
        );
        assert!(
            events.iter().any(|(kind, f)| *kind == EventKind::Stage
                && field(f, "stage") == Some(Value::Str("grow".into()))
                && field(f, "solves").is_some()),
            "stage spans must be forwarded with their exit fields"
        );
        assert!(
            events.iter().any(|(kind, _)| *kind == EventKind::Residual),
            "residual points must be forwarded"
        );
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
