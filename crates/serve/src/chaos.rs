//! Deterministic service-level fault injection.
//!
//! [`ServeFaultPlan`] is the service's counterpart to the router's
//! `FaultPlan`: a seeded, reproducible description of what to break.
//! Decisions are pure functions of `(seed, job id, attempt)` through
//! [`sprout_rng::hash3`] — no RNG state, no ordering sensitivity — so a
//! chaos sweep that fails replays identically from its seed.
//!
//! Faults injected at this layer:
//!
//! * **Worker panic** — the service worker panics before the job runs;
//!   the service's `catch_unwind` boundary must convert it to a typed
//!   retryable error. Injected only on attempt 0, so a retried job
//!   always makes progress.
//! * **Mid-job kill** — the job routes its first wave, checkpoints, and
//!   then its worker "dies" (the deterministic stand-in for `kill -9`):
//!   the job never finalizes and no completion record is journaled.
//!   Only a restarted service can recover it — which is exactly what
//!   the crash-recovery tests assert. Mutually exclusive with the panic
//!   fault and injected only on attempt 0.
//! * **Slow job** — the worker stalls before routing, driving deadline
//!   and backpressure paths.

use sprout_rng::{hash3, u64_to_f64};

/// Seeded service-fault plan. `None` everywhere in production.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeFaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability a job's first attempt panics in the worker.
    pub panic_rate: f64,
    /// Probability a job's first attempt is killed mid-job after its
    /// first checkpoint. Exclusive with `panic_rate` per job: a job
    /// that panics is never also killed.
    pub kill_rate: f64,
    /// Probability any attempt stalls for [`ServeFaultPlan::slow_ms`]
    /// before routing.
    pub slow_rate: f64,
    /// Stall duration for slow jobs (ms).
    pub slow_ms: u64,
}

impl ServeFaultPlan {
    /// A quiet plan: nothing injected.
    pub fn quiet(seed: u64) -> ServeFaultPlan {
        ServeFaultPlan {
            seed,
            panic_rate: 0.0,
            kill_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
        }
    }

    fn draw(&self, salt: u64, job: u64, attempt: usize) -> f64 {
        u64_to_f64(hash3(self.seed ^ salt, job, attempt as u64))
    }

    /// Should this attempt panic in the worker? (Attempt 0 only.)
    pub fn panics(&self, job: u64, attempt: usize) -> bool {
        attempt == 0 && self.draw(0x50A71C, job, attempt) < self.panic_rate
    }

    /// Should this attempt be killed mid-job? (Attempt 0 only, never
    /// when the panic fault already claimed the job.)
    pub fn kills(&self, job: u64, attempt: usize) -> bool {
        attempt == 0
            && !self.panics(job, attempt)
            && self.draw(0x4B11, job, attempt) < self.kill_rate
    }

    /// Should this attempt stall before routing?
    pub fn slows(&self, job: u64, attempt: usize) -> bool {
        self.draw(0x510, job, attempt) < self.slow_rate
    }
}

/// Seeded *process-level* fault plan for fleet workers — the
/// [`ServeFaultPlan`] idea one robustness boundary out. Decisions are
/// pure functions of `(seed, job id, attempt)`, drawn inside the worker
/// process itself, so a fleet chaos run replays identically from its
/// seed at any worker count.
///
/// * **Kill** — the worker calls `exit(9)` right after the first wave's
///   checkpoint hits disk (the deterministic stand-in for `kill -9`).
///   The coordinator sees EOF on the worker's pipe, expires the lease,
///   and re-dispatches the job; the next worker resumes from the
///   checkpoint. Attempt 0 only, so a re-dispatched job always makes
///   progress.
/// * **Stall** — the worker sleeps before routing (SIGSTOP stand-in);
///   long stalls trip the heartbeat timeout and force re-dispatch.
/// * **Heartbeat blackout** — the worker keeps routing but suppresses
///   heartbeats for a window, then *finishes and reports anyway*: the
///   slow-then-revived case whose stale completion the coordinator must
///   reject. Attempt 0 only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability a job's first attempt kills its worker process right
    /// after the first checkpoint.
    pub kill_rate: f64,
    /// Probability any attempt stalls before routing.
    pub stall_rate: f64,
    /// Stall duration (ms).
    pub stall_ms: u64,
    /// Probability a job's first attempt suppresses heartbeats for
    /// [`FleetFaultPlan::blackout_ms`] while still finishing the job.
    pub blackout_rate: f64,
    /// Heartbeat-blackout window (ms). Longer than the coordinator's
    /// heartbeat timeout, or nothing interesting happens.
    pub blackout_ms: u64,
}

impl FleetFaultPlan {
    /// A quiet plan: nothing injected.
    pub fn quiet(seed: u64) -> FleetFaultPlan {
        FleetFaultPlan {
            seed,
            kill_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 0,
            blackout_rate: 0.0,
            blackout_ms: 0,
        }
    }

    fn draw(&self, salt: u64, job: u64, attempt: usize) -> f64 {
        u64_to_f64(hash3(self.seed ^ salt, job, attempt as u64))
    }

    /// The command-line flags that set each field of a plan.
    pub const FLAGS: [&'static str; 6] = [
        "--chaos-seed",
        "--kill-rate",
        "--stall-rate",
        "--stall-ms",
        "--blackout-rate",
        "--blackout-ms",
    ];

    /// The plan as command-line flags, in [`FleetFaultPlan::FLAGS`]
    /// order: how the coordinator hands it to each worker process.
    pub fn to_args(&self) -> Vec<String> {
        let values = [
            self.seed.to_string(),
            self.kill_rate.to_string(),
            self.stall_rate.to_string(),
            self.stall_ms.to_string(),
            self.blackout_rate.to_string(),
            self.blackout_ms.to_string(),
        ];
        Self::FLAGS
            .iter()
            .zip(values)
            .flat_map(|(flag, value)| [flag.to_string(), value])
            .collect()
    }

    /// Sets the field named by `flag` (one of
    /// [`FleetFaultPlan::FLAGS`]) from its command-line `value`.
    ///
    /// # Errors
    ///
    /// A message naming the flag when it is unknown or the value does
    /// not parse.
    pub fn set_flag(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let bad = || format!("bad value `{value}` for {flag}");
        match flag {
            "--chaos-seed" => self.seed = value.parse().map_err(|_| bad())?,
            "--kill-rate" => self.kill_rate = value.parse().map_err(|_| bad())?,
            "--stall-rate" => self.stall_rate = value.parse().map_err(|_| bad())?,
            "--stall-ms" => self.stall_ms = value.parse().map_err(|_| bad())?,
            "--blackout-rate" => self.blackout_rate = value.parse().map_err(|_| bad())?,
            "--blackout-ms" => self.blackout_ms = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown fault flag {flag}")),
        }
        Ok(())
    }

    /// Should this attempt kill the worker process after the first
    /// wave's checkpoint? (Attempt 0 only.)
    pub fn kills(&self, job: u64, attempt: usize) -> bool {
        attempt == 0 && self.draw(0xF1EE74B11, job, attempt) < self.kill_rate
    }

    /// Should this attempt stall before routing?
    pub fn stalls(&self, job: u64, attempt: usize) -> bool {
        self.draw(0xF1EE7510, job, attempt) < self.stall_rate
    }

    /// Should this attempt black out heartbeats while still finishing?
    /// (Attempt 0 only, never on an attempt that already kills.)
    pub fn blackouts(&self, job: u64, attempt: usize) -> bool {
        attempt == 0
            && !self.kills(job, attempt)
            && self.draw(0xF1EE7B1AC, job, attempt) < self.blackout_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_decisions_are_deterministic_and_kill_excludes_blackout() {
        let plan = FleetFaultPlan {
            seed: 42,
            kill_rate: 0.5,
            stall_rate: 0.3,
            stall_ms: 5,
            blackout_rate: 0.5,
            blackout_ms: 50,
        };
        for job in 0..64 {
            assert_eq!(plan.kills(job, 0), plan.kills(job, 0));
            assert!(
                !(plan.kills(job, 0) && plan.blackouts(job, 0)),
                "kill and blackout are exclusive"
            );
            // Re-dispatched attempts always make progress.
            assert!(!plan.kills(job, 1));
            assert!(!plan.blackouts(job, 1));
        }
        let quiet = FleetFaultPlan::quiet(7);
        for job in 0..32 {
            assert!(!quiet.kills(job, 0) && !quiet.stalls(job, 0) && !quiet.blackouts(job, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_exclusive() {
        let plan = ServeFaultPlan {
            seed: 42,
            panic_rate: 0.5,
            kill_rate: 0.5,
            slow_rate: 0.3,
            slow_ms: 5,
        };
        for job in 0..64 {
            assert_eq!(plan.panics(job, 0), plan.panics(job, 0));
            assert_eq!(plan.kills(job, 0), plan.kills(job, 0));
            assert!(
                !(plan.panics(job, 0) && plan.kills(job, 0)),
                "panic and kill are exclusive"
            );
            // Retries always make progress: no attempt-1 injection.
            assert!(!plan.panics(job, 1));
            assert!(!plan.kills(job, 1));
        }
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ServeFaultPlan::quiet(7);
        for job in 0..32 {
            for attempt in 0..3 {
                assert!(!plan.panics(job, attempt));
                assert!(!plan.kills(job, attempt));
                assert!(!plan.slows(job, attempt));
            }
        }
    }
}
