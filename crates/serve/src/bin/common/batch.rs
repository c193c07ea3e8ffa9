//! The batch binaries' submit sweep and terminal-state tally, shared by
//! `serve_batch` (threads) and `sprout_fleet` (processes).

use sprout_serve::backoff::BackoffConfig;
use sprout_serve::job::{JobSpec, JobState};
use sprout_serve::ledger::{Executor, Ledger, SubmitError};
use std::time::Duration;

/// Saturation retries per job before giving up on it.
pub const SUBMIT_ATTEMPTS: u32 = 4;

/// Submits `jobs` two-rail jobs over a budget sweep — all comfortably
/// routable, so any failure is a fault plan's doing rather than the
/// budget's — and returns the accepted ids. Saturation rides the same
/// seeded backoff schedule the ledger uses, never shorter than its
/// retry-after hint; any other refusal exits with status 1.
pub fn submit_sweep<E: Executor>(ledger: &Ledger<E>, jobs: usize, name: &str) -> Vec<u64> {
    let backoff = BackoffConfig::default();
    let mut ids = Vec::new();
    for k in 0..jobs {
        let spec = JobSpec::two_rail(20.0 + (k % 3) as f64 * 2.0);
        let mut attempt = 0u32;
        let outcome = loop {
            match ledger.submit(spec.clone()) {
                Err(SubmitError::Saturated { retry_after_ms }) if attempt + 1 < SUBMIT_ATTEMPTS => {
                    let delay_ms = backoff.delay_ms(k as u64, attempt).max(retry_after_ms);
                    std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
                    attempt += 1;
                }
                other => break other,
            }
        };
        match outcome {
            Ok(id) => ids.push(id),
            Err(SubmitError::Saturated { .. }) => {
                eprintln!("{name}: job {k} rejected after {SUBMIT_ATTEMPTS} attempts")
            }
            Err(e) => {
                eprintln!("{name}: submit {k}: {e}");
                std::process::exit(1);
            }
        }
    }
    ids
}

/// How a batch of jobs ended.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs per terminal state, in [`Tally::STATES`] order.
    pub by_state: [usize; 6],
    /// Accepted jobs with no terminal state.
    pub lost: usize,
    /// Jobs that restored at least one rail from a checkpoint.
    pub resumed: usize,
}

impl Tally {
    /// The terminal states, in `by_state` order.
    pub const STATES: [JobState; 6] = [
        JobState::Completed,
        JobState::BestSoFar,
        JobState::Failed,
        JobState::Shed,
        JobState::Expired,
        JobState::Cancelled,
    ];

    /// Tallies the jobs `ids` of `ledger`.
    pub fn of<E: Executor>(ledger: &Ledger<E>, ids: &[u64]) -> Tally {
        let mut t = Tally::default();
        for snap in ids.iter().filter_map(|&id| ledger.status(id)) {
            if let Some(k) = Tally::STATES.iter().position(|&s| s == snap.state) {
                t.by_state[k] += 1;
                t.resumed += usize::from(snap.resumed > 0);
            }
        }
        t.lost = ids.len() - t.by_state.iter().sum::<usize>();
        t
    }

    /// `completed N best_so_far N … cancelled N resumed N`.
    pub fn summary(&self) -> String {
        let states = Tally::STATES.iter().zip(self.by_state);
        let mut parts: Vec<String> = states.map(|(s, n)| format!("{} {n}", s.name())).collect();
        parts.push(format!("resumed {}", self.resumed));
        parts.join(" ")
    }
}
