//! Thread-timeline capture: per-thread rings of begin/end slices fed
//! by the existing span stream.
//!
//! A [`Profiler`] hands out a [`Recorder`] (via
//! [`Profiler::recorder`]) that observes `SpanStart`/`SpanEnd`/`Point`
//! events and completes them into [`Slice`]s — `{name, start, dur,
//! depth, wave/net from the rail tag, exclusive alloc count/bytes}` —
//! in a bounded ring owned by the emitting thread. Slices are keyed by
//! the *existing* span names (`route`, `tile`, `grow`, `rail`, `wave`, …),
//! so instrumented code needs no changes to become profilable.
//!
//! Rings are single-writer and never block: the owner thread pushes
//! with a `try_lock` (uncontended — one CAS), and the only possible
//! contender is a concurrent [`Profiler::drain`], in which case the
//! push is dropped and counted instead of waiting. Long-running spans
//! are pushed at their *end*, so drop-oldest eviction under pressure
//! sheds fine-grained inner slices first and keeps the job/wave/rail
//! skeleton intact.

use super::alloc;
use crate::{Event, Recorder};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// Default per-thread ring capacity, in slices. A supervisor bench job
/// emits a few hundred slices per thread; the default leaves two
/// orders of magnitude of headroom before eviction starts.
pub const DEFAULT_SLICE_CAPACITY: usize = 65_536;

/// What a slice represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// A completed span (`dur_ns` is its inclusive duration).
    Span,
    /// An instant point event (`dur_ns` is 0).
    Instant,
}

/// One completed timeline entry on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Span or point name (the existing telemetry names).
    pub name: &'static str,
    /// Span vs instant point.
    pub kind: SliceKind,
    /// Start, nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Inclusive duration (0 for instants).
    pub dur_ns: u64,
    /// Span nesting depth at open.
    pub depth: u16,
    /// Wave of the event's [`RailTag`](crate::RailTag) (the
    /// critical-path key).
    pub wave: Option<u64>,
    /// Net of the event's [`RailTag`](crate::RailTag).
    pub net: Option<u64>,
    /// Allocations attributed exclusively to this slice (child spans'
    /// allocations are subtracted). Zero unless the counting-allocator
    /// shim is linked in (see [`super::alloc`]).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Slice {
    /// End, nanoseconds since the profiler's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

#[derive(Debug)]
struct RingBuf {
    buf: Vec<Slice>,
    cap: usize,
    /// Index of the oldest slice once the buffer is full.
    head: usize,
    overwritten: u64,
}

/// Single-writer bounded slice ring. `push` never blocks (see module
/// docs); `take` drains in chronological order.
#[derive(Debug)]
struct Ring {
    slots: Mutex<RingBuf>,
    contended_drops: AtomicU64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            slots: Mutex::new(RingBuf {
                buf: Vec::new(),
                cap: cap.max(1),
                head: 0,
                overwritten: 0,
            }),
            contended_drops: AtomicU64::new(0),
        }
    }

    fn push(&self, s: Slice) {
        let mut b = match self.slots.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // A drain is in flight on another thread: drop rather
                // than stall the routing hot path.
                self.contended_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if b.buf.len() < b.cap {
            b.buf.push(s);
        } else {
            let head = b.head;
            b.buf[head] = s;
            b.head = (head + 1) % b.cap;
            b.overwritten += 1;
        }
    }

    fn take(&self) -> (Vec<Slice>, u64) {
        let mut b = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let head = b.head;
        let mut out = std::mem::take(&mut b.buf);
        let n = out.len();
        out.rotate_left(head.min(n));
        b.head = 0;
        let dropped = b.overwritten + self.contended_drops.swap(0, Ordering::Relaxed);
        b.overwritten = 0;
        (out, dropped)
    }
}

#[derive(Debug)]
struct ThreadRing {
    tid: u64,
    name: String,
    slices: Ring,
}

/// An open span being tracked on its owning thread.
struct Frame {
    span_id: u64,
    start_ns: u64,
    allocs0: u64,
    bytes0: u64,
    child_allocs: u64,
    child_bytes: u64,
}

struct ThreadState {
    prof_id: u64,
    ring: Arc<ThreadRing>,
    stack: Vec<Frame>,
}

thread_local! {
    /// Per-thread capture state, keyed by profiler id so concurrent
    /// independent profilers (e.g. one per service job) never mix.
    /// Capped: stale entries for finished profilers age out.
    static STATES: RefCell<Vec<ThreadState>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_PROF_ID: AtomicU64 = AtomicU64::new(1);
const MAX_THREAD_STATES: usize = 8;

#[derive(Debug)]
struct Inner {
    id: u64,
    epoch: Instant,
    armed: AtomicBool,
    cap: usize,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
}

/// Owns the capture session: epoch, armed flag, and the registry of
/// per-thread rings. Cheap to clone (an `Arc` handle).
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// An armed profiler with [`DEFAULT_SLICE_CAPACITY`] per thread.
    pub fn new() -> Profiler {
        Profiler::with_capacity(DEFAULT_SLICE_CAPACITY)
    }

    /// An armed profiler whose per-thread rings hold at most `cap`
    /// slices (clamped to at least 1).
    pub fn with_capacity(cap: usize) -> Profiler {
        Profiler {
            inner: Arc::new(Inner {
                id: NEXT_PROF_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                armed: AtomicBool::new(true),
                cap: cap.max(1),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Arms or disarms capture. Disarmed, the recorder's observation
    /// path is one relaxed atomic load — the overhead the
    /// `telemetry_overhead` bin gates under 2 %.
    pub fn set_armed(&self, on: bool) {
        self.inner.armed.store(on, Ordering::Relaxed);
    }

    /// `true` when slices are being captured.
    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this profiler's epoch.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// A [`Recorder`] capturing into this profiler and forwarding every
    /// event to `downstream` (pass [`crate::current`]'s result to keep
    /// previously-installed sinks live). Install it with
    /// [`crate::RecorderScope::install`]; worker-spawning code that
    /// re-installs [`crate::current`] keeps the capture flowing across
    /// threads.
    pub fn recorder(&self, downstream: Option<Arc<dyn Recorder>>) -> Arc<ProfRecorder> {
        Arc::new(ProfRecorder {
            inner: Arc::clone(&self.inner),
            downstream,
        })
    }

    /// Collects and clears every thread's slices. Open spans are not
    /// included (a slice exists only once its span ends); threads keep
    /// their rings and continue capturing into the emptied buffers.
    pub fn drain(&self) -> Timeline {
        let rings: Vec<Arc<ThreadRing>> = {
            let t = self.inner.threads.lock().unwrap_or_else(|e| e.into_inner());
            t.clone()
        };
        let mut threads: Vec<ThreadTimeline> = rings
            .iter()
            .filter_map(|r| {
                let (slices, dropped) = r.slices.take();
                if slices.is_empty() && dropped == 0 {
                    return None;
                }
                Some(ThreadTimeline {
                    tid: r.tid,
                    name: r.name.clone(),
                    slices,
                    dropped,
                })
            })
            .collect();
        threads.sort_by_key(|t| t.tid);
        Timeline { threads }
    }
}

/// One thread's drained slices, in completion order.
#[derive(Debug, Clone)]
pub struct ThreadTimeline {
    /// Process-unique profiler thread id (stable per OS thread).
    pub tid: u64,
    /// The OS thread's name at registration ("" when unnamed).
    pub name: String,
    /// Completed slices, ordered by span *end* time.
    pub slices: Vec<Slice>,
    /// Slices lost to ring eviction or drain contention.
    pub dropped: u64,
}

impl ThreadTimeline {
    /// Display label: the thread name, else `thread-<tid>`.
    pub fn label(&self) -> String {
        if self.name.is_empty() {
            format!("thread-{}", self.tid)
        } else {
            self.name.clone()
        }
    }
}

/// A drained capture: every participating thread's slices, on one
/// shared clock (nanoseconds since the profiler epoch).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Per-thread timelines, ordered by tid.
    pub threads: Vec<ThreadTimeline>,
}

impl Timeline {
    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Total slices across all threads.
    pub fn slice_count(&self) -> usize {
        self.threads.iter().map(|t| t.slices.len()).sum()
    }

    /// Total slices lost to eviction or drain contention.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// `(earliest start, latest end)` across all slices, or `(0, 0)`
    /// when empty.
    pub fn extent_ns(&self) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for t in &self.threads {
            for s in &t.slices {
                lo = lo.min(s.start_ns);
                hi = hi.max(s.end_ns());
            }
        }
        if lo == u64::MAX {
            (0, 0)
        } else {
            (lo, hi)
        }
    }
}

/// The capturing [`Recorder`] returned by [`Profiler::recorder`].
pub struct ProfRecorder {
    inner: Arc<Inner>,
    downstream: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for ProfRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfRecorder")
            .field("profiler", &self.inner.id)
            .field("chained", &self.downstream.is_some())
            .finish()
    }
}

impl Recorder for ProfRecorder {
    fn record(&self, event: &Event) {
        if self.inner.armed.load(Ordering::Relaxed) {
            observe(&self.inner, event);
        }
        if let Some(d) = &self.downstream {
            d.record(event);
        }
    }

    fn flush(&self) {
        if let Some(d) = &self.downstream {
            d.flush();
        }
    }
}

fn clamp_depth(depth: usize) -> u16 {
    depth.min(u16::MAX as usize) as u16
}

/// Runs `f` with this thread's state for `inner`'s profiler,
/// registering a fresh ring on first contact.
fn with_state(inner: &Arc<Inner>, f: impl FnOnce(&mut ThreadState)) {
    STATES.with(|states| {
        let mut states = states.borrow_mut();
        if let Some(st) = states.iter_mut().find(|st| st.prof_id == inner.id) {
            f(st);
            return;
        }
        let tid = TID.with(|t| *t);
        let name = std::thread::current().name().unwrap_or("").to_owned();
        let ring = Arc::new(ThreadRing {
            tid,
            name,
            slices: Ring::new(inner.cap),
        });
        {
            let mut threads = inner.threads.lock().unwrap_or_else(|e| e.into_inner());
            threads.push(Arc::clone(&ring));
        }
        if states.len() >= MAX_THREAD_STATES {
            // Age out the entry registered longest ago; its profiler is
            // almost certainly finished.
            states.remove(0);
        }
        states.push(ThreadState {
            prof_id: inner.id,
            ring,
            stack: Vec::new(),
        });
        f(states.last_mut().expect("just pushed"));
    });
}

fn observe(inner: &Arc<Inner>, event: &Event) {
    match event {
        Event::SpanStart { id, .. } => {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            let (a0, b0) = alloc::thread_totals();
            with_state(inner, |st| {
                st.stack.push(Frame {
                    span_id: *id,
                    start_ns: now,
                    allocs0: a0,
                    bytes0: b0,
                    child_allocs: 0,
                    child_bytes: 0,
                });
            });
        }
        Event::SpanEnd {
            id,
            name,
            depth,
            tag,
            ..
        } => {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            let (a1, b1) = alloc::thread_totals();
            with_state(inner, |st| {
                // A span that started before this thread armed has no
                // frame: skip it rather than fabricate a start time.
                let Some(pos) = st.stack.iter().rposition(|f| f.span_id == *id) else {
                    return;
                };
                let frame = st.stack.remove(pos);
                let incl_allocs = a1.saturating_sub(frame.allocs0);
                let incl_bytes = b1.saturating_sub(frame.bytes0);
                if let Some(parent) = st.stack.last_mut() {
                    parent.child_allocs += incl_allocs;
                    parent.child_bytes += incl_bytes;
                }
                st.ring.slices.push(Slice {
                    name,
                    kind: SliceKind::Span,
                    start_ns: frame.start_ns,
                    dur_ns: now.saturating_sub(frame.start_ns),
                    depth: clamp_depth(*depth),
                    wave: tag.wave,
                    net: tag.net,
                    allocs: incl_allocs.saturating_sub(frame.child_allocs),
                    alloc_bytes: incl_bytes.saturating_sub(frame.child_bytes),
                });
            });
        }
        Event::Point {
            name, depth, tag, ..
        } => {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            with_state(inner, |st| {
                st.ring.slices.push(Slice {
                    name,
                    kind: SliceKind::Instant,
                    start_ns: now,
                    dur_ns: 0,
                    depth: clamp_depth(*depth),
                    wave: tag.wave,
                    net: tag.net,
                    allocs: 0,
                    alloc_bytes: 0,
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{self as telemetry, RecorderScope};

    #[test]
    fn captures_nested_spans_points_and_attribution() {
        let prof = Profiler::new();
        {
            let _scope = RecorderScope::install(prof.recorder(None));
            let _outer = telemetry::span("rail")
                .field("net", 3u64)
                .field("wave", 1u64)
                .enter();
            telemetry::point("retry").emit();
            {
                let _inner = telemetry::span("grow").enter();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let t = prof.drain();
        assert_eq!(t.threads.len(), 1);
        let slices = &t.threads[0].slices;
        // Completion order: point, inner span, outer span.
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].name, "retry");
        assert_eq!(slices[0].kind, SliceKind::Instant);
        assert_eq!(slices[1].name, "grow");
        assert_eq!(slices[1].depth, 1);
        // The inner slice inherits the rail tag of the span it runs in.
        assert_eq!((slices[1].net, slices[1].wave), (Some(3), Some(1)));
        assert!(slices[1].dur_ns >= 1_000_000);
        let outer = &slices[2];
        assert_eq!(outer.name, "rail");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.wave, Some(1));
        assert_eq!(outer.net, Some(3));
        // Nesting: outer contains inner on the shared clock.
        assert!(outer.start_ns <= slices[1].start_ns);
        assert!(outer.end_ns() >= slices[1].end_ns());
        // A second drain is empty.
        assert!(prof.drain().is_empty());
    }

    #[test]
    fn disarmed_profiler_records_nothing_but_forwards() {
        let prof = Profiler::new();
        prof.set_armed(false);
        let downstream = Arc::new(crate::sinks::MemorySink::new());
        {
            let _scope = RecorderScope::install(prof.recorder(Some(downstream.clone())));
            let _g = telemetry::span("tile").enter();
        }
        assert!(prof.drain().is_empty());
        assert_eq!(downstream.names(), ["tile", "tile"]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let prof = Profiler::with_capacity(4);
        {
            let _scope = RecorderScope::install(prof.recorder(None));
            for _ in 0..10 {
                telemetry::point("grow_iter").emit();
            }
        }
        let t = prof.drain();
        assert_eq!(t.slice_count(), 4);
        assert_eq!(t.dropped(), 6);
        // Chronological order is preserved across the wrap.
        let s = &t.threads[0].slices;
        assert!(s.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn worker_threads_register_separate_rings() {
        let prof = Profiler::new();
        let recorder = prof.recorder(None);
        {
            let _scope = RecorderScope::install(recorder.clone());
            let _job = telemetry::span("job").enter();
            std::thread::scope(|scope| {
                for i in 0..2u64 {
                    let recorder = recorder.clone();
                    scope.spawn(move || {
                        let _scope = RecorderScope::install(recorder);
                        let _g = telemetry::span("rail").field("wave", i).enter();
                    });
                }
            });
        }
        let t = prof.drain();
        assert_eq!(t.threads.len(), 3);
        let rails: Vec<&Slice> = t
            .threads
            .iter()
            .flat_map(|th| th.slices.iter())
            .filter(|s| s.name == "rail")
            .collect();
        assert_eq!(rails.len(), 2);
        assert!(rails.iter().any(|s| s.wave == Some(0)));
        assert!(rails.iter().any(|s| s.wave == Some(1)));
    }

    #[test]
    fn concurrent_profilers_do_not_mix() {
        let a = Profiler::new();
        let b = Profiler::new();
        {
            // b chains under a: both observe, each into its own rings.
            let _sa = RecorderScope::install(b.recorder(Some(a.recorder(None))));
            let _g = telemetry::span("space").enter();
        }
        assert_eq!(a.drain().slice_count(), 1);
        assert_eq!(b.drain().slice_count(), 1);
    }
}
