//! The solve-and-reduce kernel behind
//! [`NodalSession::eval`](crate::session::NodalSession::eval), split
//! across threads without changing a bit.
//!
//! The pairs are dealt into equal-width blocks: `k` blocks, `k` the
//! [`BLOCK`]-wide block count rounded up to a multiple of the thread
//! count, each `ceil(P / k)` pairs wide (the last may be narrower).
//! Block `b` belongs to lane `b % lanes`; lane 0 is the calling thread
//! and every other lane a persistent helper. A lane substitutes each of
//! its blocks and, while the block is still in cache, writes the block's
//! `|g·(y_a − y_b)|` edge currents into a transposed buffer: compact
//! node `v` owns the run `node_ptr[v]·w .. node_ptr[v+1]·w` of a block
//! slot of width `w`, holding its incident edge currents pair-major,
//! edge-ascending — the order in which
//! [`current::metric_from_factor`](crate::current) adds them into `v`.
//! After one barrier each lane sums every block's runs, in block order,
//! for its own contiguous range of compact nodes, so every node sees
//! exactly the reference sequence of additions. The calling thread then
//! folds the pair drops into R_eff in pair order.
//!
//! A column's substituted bits depend on neither its block's width nor
//! the other columns in the block (each column keeps its own
//! accumulators, and `substitute_permuted`'s leading-zero skip is
//! exact), so the split matches the one-thread kernel, and both match
//! [`current::node_current`](crate::current::node_current), bit for bit.
//!
//! One thread, or an evaluation with a single block, runs the same
//! kernel inline. Helpers are spawned on the first split evaluation,
//! wait for the next one by spinning briefly and then parking on a
//! condition variable, and are joined when the [`Pool`] drops. An error
//! or a panic on any lane releases the barrier, and the calling thread
//! always waits for every helper to hand its round back before it
//! returns.

use crate::current::InjectionPair;
use crate::SproutError;
use sprout_linalg::cholesky::{SparseCholesky, BLOCK};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A lap timer: each [`Clock::lap`] returns the nanoseconds since the
/// previous lap, so consecutive laps tile the wall clock exactly.
#[derive(Debug)]
pub(crate) struct Clock(Instant);

impl Clock {
    pub(crate) fn start() -> Self {
        Clock(Instant::now())
    }

    pub(crate) fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from((now - self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// The calling thread's kernel time by phase, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Split {
    /// Stamping injections and substituting them.
    pub substitute_ns: u64,
    /// Edge currents, node sums and the resistance fold.
    pub reduce_ns: u64,
    /// Posting a split round, at the barrier and waiting for the
    /// helpers' hand-back.
    pub wait_ns: u64,
}

/// An induced edge: its conductance, the factor rows and compact
/// nodes of its ends, and its rank among each end's incident edges in
/// ascending order. In a block slot of width `w`, node `v` owns
/// `node_ptr[v]·w .. node_ptr[v+1]·w`, and the edge's current for pair
/// column `c` sits at `node_ptr[v]·w + rank + c·degree(v)` in it.
#[derive(Debug, Clone, Copy)]
struct Edge {
    g: f64,
    rows: [u32; 2],
    nodes: [u32; 2],
    rank: [u32; 2],
}

/// One evaluation's read-only inputs, shared with the helpers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Kernel {
    /// Factor dimension; row `n` is the ground's zero sentinel.
    n: usize,
    /// Pairs per block (every block but the last is exactly this wide).
    width: usize,
    blocks: usize,
    /// Threads this evaluation runs on.
    lanes: usize,
    /// Per pair: the factor rows of its source and sink, and its current.
    pairs: Vec<(usize, usize, f64)>,
    /// Induced edges, ascending.
    edges: Vec<Edge>,
    /// Compact node `v`'s incident currents fill `node_ptr[v]..node_ptr[v+1]`
    /// (times the block width) of every block slot.
    node_ptr: Vec<usize>,
    /// Lane `t` sums compact nodes `bounds[t]..bounds[t + 1]`.
    bounds: Vec<usize>,
    /// Test hook: the block whose substitution fails.
    #[cfg(test)]
    pub(crate) fault: Option<Fault>,
}

/// How an injected block failure fails.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fault {
    /// The block's substitution returns an error.
    Error(usize),
    /// The block's substitution panics.
    Panic(usize),
}

impl Kernel {
    /// Loads one evaluation: pair and edge rows (`rows[compact]` is a
    /// member's factor row, the ground's is `n`), the incidence layout
    /// and the deal of blocks and node ranges over up to `threads`
    /// lanes. `pairs` must be non-empty.
    ///
    /// # Errors
    ///
    /// [`SproutError::Internal`] when a factor row or an incidence
    /// offset does not fit the kernel's 32-bit edge table.
    pub(crate) fn load(
        &mut self,
        n: usize,
        rows: &[usize],
        compact: &[usize],
        pairs: &[InjectionPair],
        edges: &[(usize, usize, f64)],
        threads: usize,
    ) -> Result<(), SproutError> {
        self.n = n;
        self.pairs.clear();
        self.pairs.extend(pairs.iter().map(|p| {
            (
                rows[compact[p.source.index()]],
                rows[compact[p.sink.index()]],
                p.current_a,
            )
        }));

        let m = rows.len();
        // Every row is at most `n`, every node below `m` and every rank
        // below `2·edges`: with all three in range the casts below are
        // lossless.
        if u32::try_from(n.max(m).max(2 * edges.len())).is_err() {
            return Err(SproutError::Internal(
                "system too large for the evaluation kernel",
            ));
        }
        // One pass counts degrees; an edge's rank at an end is that
        // end's count before it.
        self.node_ptr.clear();
        self.node_ptr.resize(m + 1, 0);
        self.edges.clear();
        for &(a, b, g) in edges {
            let rank = [self.node_ptr[a + 1], self.node_ptr[b + 1]];
            self.node_ptr[a + 1] += 1;
            self.node_ptr[b + 1] += 1;
            self.edges.push(Edge {
                g,
                rows: [rows[a] as u32, rows[b] as u32],
                nodes: [a as u32, b as u32],
                rank: [rank[0] as u32, rank[1] as u32],
            });
        }
        for v in 0..m {
            self.node_ptr[v + 1] += self.node_ptr[v];
        }

        let p = pairs.len();
        let threads = threads.max(1);
        let k = p.div_ceil(BLOCK).div_ceil(threads) * threads;
        self.width = p.div_ceil(k).max(1);
        self.blocks = p.div_ceil(self.width);
        self.lanes = threads.min(self.blocks).max(1);
        let total = self.node_ptr[m];
        self.bounds.clear();
        for t in 0..self.lanes {
            let target = total * t / self.lanes;
            self.bounds
                .push(self.node_ptr.partition_point(|&x| x < target).min(m));
        }
        self.bounds.push(m);
        Ok(())
    }

    /// Threads this evaluation runs on.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The pairs of block `b`.
    fn block(&self, b: usize) -> &[(usize, usize, f64)] {
        let lo = b * self.width;
        &self.pairs[lo..(lo + self.width).min(self.pairs.len())]
    }

    /// Substitutes lane `t`'s blocks and writes their transposed edge
    /// currents and pair drops into `out`.
    fn substitute_lane(
        &self,
        factor: &SparseCholesky,
        t: usize,
        y: &mut Vec<f64>,
        out: &mut LaneOut,
        clock: &mut Clock,
        split: &mut Split,
    ) -> Result<(), SproutError> {
        let n = self.n;
        let stride = self.node_ptr[self.node_ptr.len() - 1] * self.width;
        let slots = (self.blocks - t).div_ceil(self.lanes);
        out.currents.resize(slots * stride, 0.0);
        out.drops.resize(slots * self.width, 0.0);
        for (slot, b) in (t..self.blocks).step_by(self.lanes).enumerate() {
            #[cfg(test)]
            match self.fault {
                Some(Fault::Error(f)) if f == b => {
                    return Err(SproutError::Internal("injected block failure"));
                }
                Some(Fault::Panic(f)) if f == b => panic!("injected block panic"),
                _ => {}
            }
            let pairs = self.block(b);
            let w = pairs.len();
            y.clear();
            y.resize((n + 1) * w, 0.0);
            for (c, &(source, sink, i)) in pairs.iter().enumerate() {
                y[source * w + c] += i;
                y[sink * w + c] -= i;
            }
            // Injections at the ground are absorbed: the sentinel row
            // reads zero.
            y[n * w..].fill(0.0);
            factor.substitute_permuted(&mut y[..n * w], w)?;
            split.substitute_ns += clock.lap();

            let cur = &mut out.currents[slot * stride..];
            let ptr = &self.node_ptr;
            for e in &self.edges {
                let (va, vb) = (e.nodes[0] as usize, e.nodes[1] as usize);
                let ya = &y[e.rows[0] as usize * w..][..w];
                let yb = &y[e.rows[1] as usize * w..][..w];
                let mut ia = ptr[va] * w + e.rank[0] as usize;
                let mut ib = ptr[vb] * w + e.rank[1] as usize;
                let (da, db) = (ptr[va + 1] - ptr[va], ptr[vb + 1] - ptr[vb]);
                for (&pa, &pb) in ya.iter().zip(yb) {
                    let i_edge = (e.g * (pa - pb)).abs();
                    cur[ia] = i_edge;
                    cur[ib] = i_edge;
                    ia += da;
                    ib += db;
                }
            }
            let drops = &mut out.drops[slot * self.width..];
            for (c, &(source, sink, _)) in pairs.iter().enumerate() {
                drops[c] = y[source * w + c] - y[sink * w + c];
            }
            split.reduce_ns += clock.lap();
        }
        Ok(())
    }

    /// Sums lane `t`'s node range over every block, in block order,
    /// into the lane's `sums`.
    fn reduce_range(&self, t: usize, lanes: &[Lane]) {
        let (lo, hi) = (self.bounds[t], self.bounds[t + 1]);
        let mut sums = lock(&lanes[t].sums);
        sums.clear();
        sums.resize(hi - lo, 0.0);
        let stride = self.node_ptr[self.node_ptr.len() - 1] * self.width;
        let ptr = &self.node_ptr[lo..=hi];
        for b in 0..self.blocks {
            let w = self.block(b).len();
            let out = read(&lanes[b % self.lanes].out);
            let cur = &out.currents[(b / self.lanes) * stride..];
            for (acc, run) in sums.iter_mut().zip(ptr.windows(2)) {
                for &x in &cur[run[0] * w..run[1] * w] {
                    *acc += x;
                }
            }
        }
    }

    /// Writes every lane's node sums into `node_metric` (member-indexed
    /// by `members`) and returns `Σ drop`, folded in pair order.
    fn gather(&self, lanes: &[Lane], members: &[crate::NodeId], node_metric: &mut [f64]) -> f64 {
        for (t, lane) in lanes.iter().take(self.lanes).enumerate() {
            let sums = lock(&lane.sums);
            let ids = &members[self.bounds[t]..self.bounds[t + 1]];
            for (&id, &v) in ids.iter().zip(sums.iter()) {
                node_metric[id.index()] = v;
            }
        }
        let mut resistance_weighted = 0.0f64;
        for b in 0..self.blocks {
            let w = self.block(b).len();
            let out = read(&lanes[b % self.lanes].out);
            let drops = &out.drops[(b / self.lanes) * self.width..][..w];
            for &drop in drops {
                resistance_weighted += drop; // = R_eff · i_pair
            }
        }
        resistance_weighted
    }
}

/// What one lane wrote for its blocks, read by every lane after the
/// barrier.
#[derive(Debug, Default)]
struct LaneOut {
    /// Transposed edge currents, one slot per block.
    currents: Vec<f64>,
    /// Potential drop across each pair, `width` per block slot.
    drops: Vec<f64>,
}

#[derive(Debug, Default)]
struct Lane {
    out: RwLock<LaneOut>,
    /// The lane's node sums.
    sums: Mutex<Vec<f64>>,
}

#[derive(Debug, Clone)]
struct Job {
    factor: Arc<SparseCholesky>,
    kernel: Arc<Kernel>,
}

/// How long a waiting thread spins before it parks on the condition
/// variable: a little longer than the planning and factoring between
/// two evaluations, so a helper is awake when the next round is posted
/// (a wake-up costs more than the spin), while an idle session's helper
/// soon gives its core back.
const SPIN: Duration = Duration::from_micros(300);

/// The round handshake. Every flag is read and written `SeqCst`, and a
/// thread that sleeps first counts itself in `sleepers` under `sleep`,
/// so a waker that sees no sleeper knows the waiter will see its store.
#[derive(Debug, Default)]
struct Shared {
    /// Bumped once per split evaluation.
    round: AtomicU64,
    job: Mutex<Option<Job>>,
    /// Lanes past their substitution this round.
    arrived: AtomicUsize,
    /// Helpers that finished this round and dropped its [`Job`].
    returned: AtomicUsize,
    /// The round has an error: releases the barrier.
    failed: AtomicBool,
    error: Mutex<Option<SproutError>>,
    /// A helper panicked: the pool is rebuilt before the next split.
    lost: AtomicBool,
    shutdown: AtomicBool,
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    lanes: Vec<Lane>,
}

impl Shared {
    /// Spins for up to [`SPIN`], then parks, until `ready`.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let start = Instant::now();
        while !ready() {
            if start.elapsed() >= SPIN {
                let mut guard = lock(&self.sleep);
                self.sleepers.fetch_add(1, SeqCst);
                while !ready() {
                    guard = self
                        .wake
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, SeqCst);
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Wakes the sleepers, if any, after a flag store.
    fn notify(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(lock(&self.sleep));
            self.wake.notify_all();
        }
    }

    /// Records the round's first error and releases the barrier.
    fn fail(&self, e: SproutError) {
        lock(&self.error).get_or_insert(e);
        self.failed.store(true, SeqCst);
        self.notify();
    }

    /// Records a lane's arrival (and its error) and waits until every
    /// lane has arrived or one failed. Returns whether the round may go
    /// on to the node sums.
    fn arrive(&self, res: Result<(), SproutError>, lanes: usize) -> bool {
        if let Err(e) = res {
            self.fail(e);
        }
        self.arrived.fetch_add(1, SeqCst);
        self.notify();
        self.wait_until(|| self.arrived.load(SeqCst) >= lanes || self.failed.load(SeqCst));
        !self.failed.load(SeqCst)
    }
}

// A lane that panics mid-round can poison a lock. Its data stays
// usable: the round is failed, and every round rewrites each buffer
// before anything reads it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// A session's lanes and, once an evaluation splits, its helpers.
#[derive(Debug)]
pub(crate) struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// The calling thread's substitution block.
    y: Vec<f64>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool of `threads` lanes; no thread is spawned until an
    /// evaluation splits.
    pub(crate) fn new(threads: usize) -> Self {
        Pool {
            shared: Arc::new(Shared {
                lanes: (0..threads.max(1)).map(|_| Lane::default()).collect(),
                ..Shared::default()
            }),
            helpers: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Lanes (threads, the caller included) this pool can run.
    pub(crate) fn threads(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Runs `kernel` against `factor` and writes the node metric into
    /// `node_metric`; returns `Σ drop` over the pairs, folded in pair
    /// order. Splits across the helpers when the kernel has more than
    /// one lane and they can be started, else runs every lane inline.
    pub(crate) fn run(
        &mut self,
        factor: &Arc<SparseCholesky>,
        kernel: &Arc<Kernel>,
        members: &[crate::NodeId],
        node_metric: &mut [f64],
        clock: &mut Clock,
        split: &mut Split,
    ) -> Result<f64, SproutError> {
        if kernel.lanes > 1 && self.ensure_helpers() {
            self.run_split(factor, kernel, clock, split)?;
        } else {
            let lanes = &self.shared.lanes;
            for (t, lane) in lanes.iter().enumerate().take(kernel.lanes) {
                let mut out = write(&lane.out);
                kernel.substitute_lane(factor, t, &mut self.y, &mut out, clock, split)?;
            }
            for t in 0..kernel.lanes {
                kernel.reduce_range(t, lanes);
            }
        }
        let resistance_weighted = kernel.gather(&self.shared.lanes, members, node_metric);
        split.reduce_ns += clock.lap();
        Ok(resistance_weighted)
    }

    /// Starts the helpers if they are not running (again, after a
    /// panic). Returns `false` when a thread cannot be spawned.
    fn ensure_helpers(&mut self) -> bool {
        if self.shared.lost.load(SeqCst) {
            self.stop();
        }
        // A new helper starts at the current round: it must not take a
        // finished round for a posted one.
        let round = self.shared.round.load(SeqCst);
        while self.helpers.len() + 1 < self.threads() {
            let lane = self.helpers.len() + 1;
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("sprout-eval-{lane}"))
                .spawn(move || helper(&shared, lane, round));
            match spawned {
                Ok(handle) => self.helpers.push(handle),
                Err(_) => {
                    self.stop();
                    return false;
                }
            }
        }
        true
    }

    /// One split round: post the job, run lane 0, meet the helpers at
    /// the barrier, sum lane 0's nodes and wait for the hand-back.
    fn run_split(
        &mut self,
        factor: &Arc<SparseCholesky>,
        kernel: &Arc<Kernel>,
        clock: &mut Clock,
        split: &mut Split,
    ) -> Result<(), SproutError> {
        let shared = &*self.shared;
        *lock(&shared.job) = Some(Job {
            factor: Arc::clone(factor),
            kernel: Arc::clone(kernel),
        });
        *lock(&shared.error) = None;
        shared.failed.store(false, SeqCst);
        shared.arrived.store(0, SeqCst);
        shared.returned.store(0, SeqCst);
        shared.round.fetch_add(1, SeqCst);
        shared.notify();
        split.wait_ns += clock.lap();
        let mut round = Round {
            shared,
            helpers: self.helpers.len(),
            arrived: false,
        };
        let res = {
            let mut out = write(&shared.lanes[0].out);
            kernel.substitute_lane(factor, 0, &mut self.y, &mut out, clock, split)
        };
        round.arrived = true;
        let go = shared.arrive(res, kernel.lanes);
        split.wait_ns += clock.lap();
        if go {
            kernel.reduce_range(0, &shared.lanes);
            split.reduce_ns += clock.lap();
        }
        round.wait();
        split.wait_ns += clock.lap();
        match lock(&shared.error).take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Stops and joins every helper.
    fn stop(&mut self) {
        if self.helpers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, SeqCst);
        self.shared.notify();
        for handle in self.helpers.drain(..) {
            // A helper that panicked already reported it through `lost`.
            let _ = handle.join();
        }
        self.shared.shutdown.store(false, SeqCst);
        self.shared.lost.store(false, SeqCst);
    }

    /// The shared state, to observe from a test that the helpers let go
    /// of it.
    #[cfg(test)]
    pub(crate) fn probe(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }

    /// Helpers currently running.
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.len()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The calling thread's side of a round. [`Round::wait`] — called on
/// return, and by `drop` while unwinding — releases the barrier if lane
/// 0 never reached it and waits until every helper has handed the round
/// back, so no helper is left waiting and none still holds the job's
/// factor when the session next mutates it.
struct Round<'a> {
    shared: &'a Shared,
    helpers: usize,
    arrived: bool,
}

impl Round<'_> {
    fn wait(&mut self) {
        if !self.arrived {
            self.arrived = true;
            self.shared.fail(SproutError::Internal(
                "evaluation aborted on the calling thread",
            ));
        }
        let shared = self.shared;
        shared.wait_until(|| shared.returned.load(SeqCst) >= self.helpers);
        *lock(&shared.job) = None;
    }
}

impl Drop for Round<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

/// Marks a helper's round as handed back when dropped — after the
/// helper's [`Job`] is gone, and also when the helper panics.
struct HandBack<'a>(&'a Shared);

impl Drop for HandBack<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lost.store(true, SeqCst);
            self.0
                .fail(SproutError::Internal("evaluation helper panicked"));
        }
        self.0.returned.fetch_add(1, SeqCst);
        self.0.notify();
    }
}

/// A helper's loop: wait until a round after `seen` is posted (or
/// shutdown), run lane `lane` of it, hand it back.
fn helper(shared: &Shared, lane: usize, mut seen: u64) {
    let mut y = Vec::new();
    loop {
        shared.wait_until(|| shared.shutdown.load(SeqCst) || shared.round.load(SeqCst) != seen);
        if shared.shutdown.load(SeqCst) {
            return;
        }
        seen = shared.round.load(SeqCst);
        let job = lock(&shared.job).clone();
        let _back = HandBack(shared);
        if let Some(job) = job {
            run_lane(shared, lane, &mut y, job);
        }
    }
}

/// Lane `lane` of one round; the job is dropped on return.
fn run_lane(shared: &Shared, lane: usize, y: &mut Vec<f64>, job: Job) {
    let kernel = &*job.kernel;
    if lane >= kernel.lanes {
        return;
    }
    let (mut clock, mut split) = (Clock::start(), Split::default());
    let res = {
        let mut out = write(&shared.lanes[lane].out);
        kernel.substitute_lane(&job.factor, lane, y, &mut out, &mut clock, &mut split)
    };
    if shared.arrive(res, kernel.lanes) {
        kernel.reduce_range(lane, &shared.lanes);
    }
}
