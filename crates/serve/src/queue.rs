//! Bounded admission queue with priorities, delayed retries, and
//! explicit backpressure.
//!
//! The queue is the service's robustness boundary: it never grows
//! beyond its capacity. When full, [`BoundedQueue::admit`] either sheds
//! the lowest-priority queued job to make room for a strictly
//! higher-priority arrival, or rejects the arrival outright — the
//! caller turns that into an HTTP 429 with a `Retry-After` hint.
//! Retries and crash-recovered jobs re-enter through
//! [`BoundedQueue::reenter`], which bypasses the capacity check: a job
//! the service already accepted is never dropped by its own queue.
//!
//! Ordering: highest priority first; FIFO (admission sequence) within a
//! priority; entries with a future `ready_at` (retry backoff) are
//! invisible until their delay elapses.

use crate::job::Priority;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued job.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// Job id.
    pub id: u64,
    /// Admission priority.
    pub priority: Priority,
    /// Admission sequence number (FIFO tie-break within a priority).
    pub seq: u64,
    /// The entry is invisible to [`BoundedQueue::pop`] before this
    /// instant (retry backoff delay).
    pub ready_at: Instant,
    /// Service-level attempt counter (0 = first run).
    pub attempt: usize,
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity and no queued job has a strictly lower
    /// priority than the arrival.
    Full,
    /// The queue is closed (service draining or stopped).
    Closed,
}

/// The result of a successful admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// There was room.
    Queued,
    /// The queue was full; the returned lower-priority job was shed to
    /// make room. The caller must finalize the shed job.
    Shed {
        /// Id of the evicted job.
        victim: u64,
    },
}

/// What [`BoundedQueue::pop`] returned.
#[derive(Debug)]
pub enum Popped {
    /// A ready entry, removed from the queue.
    Entry(QueueEntry),
    /// Nothing became ready within the timeout.
    Timeout,
    /// The queue is closed and drained.
    Closed,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<QueueEntry>,
    seq: u64,
    closed: bool,
}

/// The bounded, priority-aware admission queue. All methods are
/// thread-safe; blocking is confined to [`BoundedQueue::pop`].
#[derive(Debug)]
pub struct BoundedQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    /// An empty queue holding at most `capacity` admitted jobs
    /// (re-entered jobs are exempt; capacity 0 is clamped to 1).
    pub fn new(capacity: usize) -> BoundedQueue {
        BoundedQueue {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued entries right now (including not-yet-ready retries).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a new job, enforcing the capacity bound. On a full queue
    /// the lowest-priority entry is shed if it is strictly lower
    /// priority than the arrival (newest victim first, so older work is
    /// preserved); otherwise the arrival is rejected.
    pub fn admit(&self, id: u64, priority: Priority) -> Result<Admitted, AdmitError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(AdmitError::Closed);
        }
        let mut outcome = Admitted::Queued;
        if inner.entries.len() >= self.capacity {
            // Victim: minimum priority, newest seq among that priority.
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.seq)))
                .map(|(i, e)| (i, e.priority, e.id));
            match victim {
                Some((i, vp, vid)) if vp < priority => {
                    inner.entries.swap_remove(i);
                    outcome = Admitted::Shed { victim: vid };
                }
                _ => return Err(AdmitError::Full),
            }
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.entries.push(QueueEntry {
            id,
            priority,
            seq,
            ready_at: Instant::now(),
            attempt: 0,
        });
        drop(inner);
        self.cv.notify_one();
        Ok(outcome)
    }

    /// Re-enters an already-accepted job (retry or crash recovery)
    /// after `delay`. Exempt from the capacity bound, and recorded even
    /// on a closed queue, whose `pop` still drains it: an accepted job
    /// is never dropped by its own queue.
    pub fn reenter(&self, id: u64, priority: Priority, attempt: usize, delay: Duration) {
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        inner.entries.push(QueueEntry {
            id,
            priority,
            seq,
            ready_at: Instant::now() + delay,
            attempt,
        });
        drop(inner);
        self.cv.notify_one();
    }

    /// Removes a queued (not yet running) job; `true` if it was found.
    pub fn remove(&self, id: u64) -> bool {
        let mut inner = self.lock();
        match inner.entries.iter().position(|e| e.id == id) {
            Some(i) => {
                inner.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Pops the best ready entry: highest priority, then lowest
    /// admission sequence. Blocks up to `timeout` waiting for an entry
    /// to become ready. Closed queues still drain their backlog.
    pub fn pop(&self, timeout: Duration) -> Popped {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let now = Instant::now();
            let best = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.ready_at <= now)
                .min_by_key(|(_, e)| (std::cmp::Reverse(e.priority), e.seq))
                .map(|(i, _)| i);
            if let Some(i) = best {
                return Popped::Entry(inner.entries.swap_remove(i));
            }
            if inner.closed && inner.entries.is_empty() {
                return Popped::Closed;
            }
            if now >= deadline {
                return Popped::Timeout;
            }
            // Wake at the earliest ready_at, the pop deadline, or the
            // next close/notify — whichever comes first — and look again.
            let wake = inner
                .entries
                .iter()
                .map(|e| e.ready_at)
                .min()
                .map_or(deadline, |t| t.min(deadline));
            inner = self
                .cv
                .wait_timeout(inner, wake.saturating_duration_since(now))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Closes the queue: no new admissions; `pop` drains the backlog
    /// then reports [`Popped::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Closes the queue and removes every pending entry, returning the
    /// removed entries so the caller can finalize them.
    pub fn close_and_clear(&self) -> Vec<QueueEntry> {
        let mut inner = self.lock();
        inner.closed = true;
        let drained = std::mem::take(&mut inner.entries);
        drop(inner);
        self.cv.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let q = BoundedQueue::new(8);
        q.admit(1, Priority::Normal).unwrap();
        q.admit(2, Priority::Low).unwrap();
        q.admit(3, Priority::High).unwrap();
        q.admit(4, Priority::Normal).unwrap();
        let order: Vec<u64> = (0..4)
            .map(|_| match q.pop(Duration::from_millis(10)) {
                Popped::Entry(e) => e.id,
                other => panic!("expected entry, got {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn full_queue_sheds_lowest_priority_for_higher_arrival() {
        let q = BoundedQueue::new(2);
        q.admit(1, Priority::Low).unwrap();
        q.admit(2, Priority::Low).unwrap();
        // Equal priority: rejected, nothing shed.
        assert_eq!(q.admit(3, Priority::Low), Err(AdmitError::Full));
        // Higher priority: the *newest* low-priority job is shed.
        assert_eq!(q.admit(4, Priority::High), Ok(Admitted::Shed { victim: 2 }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn reenter_bypasses_capacity() {
        let q = BoundedQueue::new(1);
        q.admit(1, Priority::Normal).unwrap();
        q.reenter(2, Priority::Normal, 1, Duration::ZERO);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn delayed_entries_are_invisible_until_ready() {
        let q = BoundedQueue::new(4);
        q.reenter(1, Priority::Normal, 1, Duration::from_millis(50));
        match q.pop(Duration::from_millis(5)) {
            Popped::Timeout => {}
            other => panic!("not ready yet, got {other:?}"),
        }
        match q.pop(Duration::from_millis(500)) {
            Popped::Entry(e) => assert_eq!(e.id, 1),
            other => panic!("expected entry, got {other:?}"),
        }
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.admit(1, Priority::Normal).unwrap();
        q.close();
        assert_eq!(q.admit(2, Priority::High), Err(AdmitError::Closed));
        match q.pop(Duration::from_millis(10)) {
            Popped::Entry(e) => assert_eq!(e.id, 1),
            other => panic!("expected entry, got {other:?}"),
        }
        match q.pop(Duration::from_millis(10)) {
            Popped::Closed => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }
}
