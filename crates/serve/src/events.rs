//! Bounded per-job event bus: the live observability plane.
//!
//! Everything a client can watch over `GET /jobs/:id/events` flows
//! through one [`EventBus`]: supervisor wave progress, per-stage span
//! timings (grow/refine/reheat — the paper's §II stages), solver
//! residual points, worker panics, the ledger's job retries, and
//! exactly one terminal event per job. Producers never block on consumers: each job owns a
//! bounded drop-oldest ring and every publish is a short mutex hold
//! plus a condvar notify — whether zero or many HTTP streams are
//! attached.
//!
//! Events carry a per-job monotone sequence number starting at 1, so a
//! long-poll client can resume with `?since=seq` and replay is
//! idempotent: the same `since` always yields the same suffix (minus
//! anything the ring has dropped, which the `dropped` counters admit
//! to).
//!
//! A running attempt has one feed, whichever executor runs it: the
//! attempt's wave hook and its [`JobRecorder`] turn supervisor waves,
//! stage spans and points into `(kind, fields)` pairs and hand them to
//! the executor's [`Feed`]. An in-thread slot's feed is the ledger's
//! lease-checked publish; a fleet worker's feed sends each pair as an
//! `event` frame, which the coordinator hands to that same publish.
//! Only the ledger's exactly-once finalize publishes the terminal
//! event.

use sprout_core::report::{CONVERGENCE_POINTS, STAGE_ORDER};
use sprout_telemetry::json::Obj;
use sprout_telemetry::prof::ProfMutex;
use sprout_telemetry::{Event, RailTag, Recorder, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Default per-job ring capacity. Generous for a routing job (a few
/// dozen stage spans plus iteration points per rail) while bounding a
/// pathological producer to ~tens of KiB of rendered lines per job.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// What a bus event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A supervisor wave finished (checkpoint already on disk).
    Progress,
    /// A pipeline stage span closed (space/tile/seed/grow/refine/
    /// reheat/backconv).
    Stage,
    /// A solver/iteration point: objective residuals, a rail's final
    /// record, solver fallbacks, budget overruns.
    Residual,
    /// The job ledger re-queued the job for another attempt.
    Retry,
    /// A worker panic was caught at the isolation boundary.
    Panic,
    /// The job reached its single terminal state. Always the last
    /// event of a stream.
    Terminal,
}

impl EventKind {
    /// Wire name used in the `"event"` field of every NDJSON line.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Progress => "progress",
            EventKind::Stage => "stage",
            EventKind::Residual => "residual",
            EventKind::Retry => "retry",
            EventKind::Panic => "panic",
            EventKind::Terminal => "terminal",
        }
    }

    /// The kind whose wire name is `name`.
    pub(crate) fn from_name(name: &str) -> Option<EventKind> {
        use EventKind::*;
        let kinds = [Progress, Stage, Residual, Retry, Panic, Terminal];
        kinds.into_iter().find(|k| k.name() == name)
    }
}

/// An event's kind-specific members, in line order.
pub type Fields = Vec<(String, Value)>;

/// Where a running attempt's events go; see the module docs.
pub(crate) type Feed = Arc<dyn Fn(EventKind, Fields) + Send + Sync>;

/// One published event: the rendered NDJSON line plus the metadata
/// consumers filter on without re-parsing it.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Per-job monotone sequence number, starting at 1.
    pub seq: u64,
    /// The job this event belongs to.
    pub job: u64,
    /// Event class.
    pub kind: EventKind,
    /// Rendered JSON object (single line, no trailing newline).
    pub line: String,
}

/// A `snapshot_since`/`wait_since` result page.
#[derive(Debug, Clone, Default)]
pub struct EventPage {
    /// Events with `seq > since`, in sequence order.
    pub events: Vec<JobEvent>,
    /// Events this job's ring has dropped so far (drop-oldest).
    pub dropped: u64,
    /// Whether the job's terminal event has been published. Once true
    /// the stream is complete: no further events will ever arrive.
    pub terminal: bool,
}

#[derive(Debug, Default)]
struct Channel {
    events: VecDeque<JobEvent>,
    next_seq: u64,
    dropped: u64,
    terminals: u64,
}

/// The bus: per-job bounded rings plus process-wide publish/drop
/// counters surfaced as `events_published`/`events_dropped` metrics.
#[derive(Debug)]
pub struct EventBus {
    capacity: usize,
    // Contention-accounted: every publisher and every streaming client
    // serializes here, so under load this lock is the first suspect the
    // profiler's ScalingDiagnosis should be able to confirm or clear.
    channels: ProfMutex<HashMap<u64, Channel>>,
    wake: Condvar,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventBus {
    /// A bus whose per-job rings hold at most `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> EventBus {
        EventBus {
            capacity: capacity.max(1),
            channels: ProfMutex::new("serve.event_bus", HashMap::new()),
            wake: Condvar::new(),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publishes one event for `job`. The bus assigns the sequence
    /// number and renders the line as
    /// `{"seq":N,"job":J,"event":"kind",...}` with `fields` appending
    /// the kind-specific rest. Never blocks on consumers: a full ring
    /// drops its oldest event and counts it.
    pub fn publish(&self, job: u64, kind: EventKind, fields: impl FnOnce(&mut Obj)) {
        let mut channels = self.channels.lock();
        let ch = channels.entry(job).or_default();
        ch.next_seq += 1;
        let seq = ch.next_seq;
        let mut obj = Obj::new();
        obj.u64("seq", seq)
            .u64("job", job)
            .str("event", kind.name());
        fields(&mut obj);
        if ch.events.len() >= self.capacity {
            ch.events.pop_front();
            ch.dropped += 1;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if kind == EventKind::Terminal {
            ch.terminals += 1;
        }
        ch.events.push_back(JobEvent {
            seq,
            job,
            kind,
            line: obj.finish(),
        });
        self.published.fetch_add(1, Ordering::Relaxed);
        drop(channels);
        self.wake.notify_all();
    }

    /// Every buffered event for `job` with `seq > since`, without
    /// waiting. An unknown job yields an empty non-terminal page.
    pub fn snapshot_since(&self, job: u64, since: u64) -> EventPage {
        let channels = self.channels.lock();
        Self::page(&channels, job, since)
    }

    /// Like [`EventBus::snapshot_since`], but blocks until the page is
    /// non-empty, the job is terminal, or `timeout` elapses — the
    /// long-poll primitive.
    pub fn wait_since(&self, job: u64, since: u64, timeout: Duration) -> EventPage {
        let deadline = Instant::now() + timeout;
        let mut channels = self.channels.lock();
        loop {
            let page = Self::page(&channels, job, since);
            if !page.events.is_empty() || page.terminal {
                return page;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return page;
            };
            if left.is_zero() {
                return page;
            }
            let (guard, _timed_out) = self
                .wake
                .wait_timeout(channels, left)
                .unwrap_or_else(|e| e.into_inner());
            channels = guard;
        }
    }

    fn page(channels: &HashMap<u64, Channel>, job: u64, since: u64) -> EventPage {
        let Some(ch) = channels.get(&job) else {
            return EventPage::default();
        };
        EventPage {
            events: ch
                .events
                .iter()
                .filter(|e| e.seq > since)
                .cloned()
                .collect(),
            dropped: ch.dropped,
            terminal: ch.terminals > 0,
        }
    }

    /// Terminal events ever published for `job` — the exactly-once
    /// observability contract (counted even if the ring later drops
    /// the event itself).
    pub fn terminal_events(&self, job: u64) -> u64 {
        let channels = self.channels.lock();
        channels.get(&job).map(|c| c.terminals).unwrap_or(0)
    }

    /// Total events published since the bus was created.
    pub fn events_published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Total events dropped to drop-oldest backpressure.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A [`Recorder`] adapter that turns an attempt's telemetry into
/// events on its [`Feed`], chaining to whatever recorder was already
/// current so existing sinks keep seeing everything.
///
/// Only an allowlist is forwarded — stage span ends
/// ([`STAGE_ORDER`]), [`CONVERGENCE_POINTS`] as residuals, and worker
/// panic points — so the per-event cost stays a filtered match for the
/// torrent of solver-internal events. Each forwarded event names its
/// rail: the event's tag keys follow the lead fields, and the event's
/// own fields follow without them.
pub(crate) struct JobRecorder {
    pub feed: Feed,
    pub inner: Option<Arc<dyn Recorder>>,
}

/// `lead`, then `event`'s rail tag, then the event's own fields.
fn with_fields(mut lead: Fields, event: &Event) -> Fields {
    let tag = event.tag();
    lead.extend(tag.pairs().map(|(k, v)| (k.to_owned(), Value::U64(v))));
    let rest = RailTag::untagged(event.fields());
    lead.extend(rest.map(|(k, v)| ((*k).to_owned(), v.clone())));
    lead
}

impl Recorder for JobRecorder {
    fn record(&self, event: &Event) {
        match event {
            Event::SpanEnd {
                name, elapsed_ns, ..
            } if STAGE_ORDER.contains(name) => {
                let lead = vec![
                    ("stage".into(), Value::Str((*name).to_owned())),
                    ("elapsed_ms".into(), Value::F64(*elapsed_ns as f64 / 1e6)),
                ];
                (self.feed)(EventKind::Stage, with_fields(lead, event));
            }
            Event::Point { name, .. } => {
                let kind = match *name {
                    "worker_panic" => EventKind::Panic,
                    n if CONVERGENCE_POINTS.contains(&n) => EventKind::Residual,
                    _ => {
                        if let Some(inner) = &self.inner {
                            inner.record(event);
                        }
                        return;
                    }
                };
                let lead = vec![("point".into(), Value::Str((*name).to_owned()))];
                (self.feed)(kind, with_fields(lead, event));
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

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_telemetry::json::{parse, Json};
    use sprout_telemetry::{self as telemetry, RecorderScope};

    #[test]
    fn sequences_are_monotone_and_replay_is_idempotent() {
        let bus = EventBus::new(16);
        for i in 0..5u64 {
            bus.publish(7, EventKind::Progress, |o| {
                o.u64("wave", i);
            });
        }
        let all = bus.snapshot_since(7, 0);
        assert_eq!(all.events.len(), 5);
        assert_eq!(
            all.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // Replay from the same cursor twice: identical pages.
        let a = bus.snapshot_since(7, 2);
        let b = bus.snapshot_since(7, 2);
        assert_eq!(
            a.events.iter().map(|e| &e.line).collect::<Vec<_>>(),
            b.events.iter().map(|e| &e.line).collect::<Vec<_>>()
        );
        assert_eq!(a.events.first().map(|e| e.seq), Some(3));
        // Every line parses and self-describes.
        let root = parse(&all.events[0].line).expect("event line is JSON");
        assert_eq!(root.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(root.get("job").and_then(Json::as_u64), Some(7));
        assert_eq!(root.get("event").and_then(Json::as_str), Some("progress"));
    }

    #[test]
    fn full_ring_drops_oldest_and_counts_it() {
        let bus = EventBus::new(3);
        for i in 0..5u64 {
            bus.publish(1, EventKind::Progress, |o| {
                o.u64("wave", i);
            });
        }
        let page = bus.snapshot_since(1, 0);
        assert_eq!(page.events.len(), 3);
        assert_eq!(page.events[0].seq, 3, "oldest two evicted");
        assert_eq!(page.dropped, 2);
        assert_eq!(bus.events_published(), 5);
        assert_eq!(bus.events_dropped(), 2);
    }

    #[test]
    fn exactly_at_capacity_nothing_drops_one_more_evicts_first() {
        let bus = EventBus::new(4);
        for i in 0..4u64 {
            bus.publish(9, EventKind::Progress, |o| {
                o.u64("wave", i);
            });
        }
        // Exactly full: every event still present, nothing dropped.
        let page = bus.snapshot_since(9, 0);
        assert_eq!(
            page.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(page.dropped, 0);
        assert_eq!(bus.events_dropped(), 0);
        // One past capacity: exactly the oldest goes.
        bus.publish(9, EventKind::Progress, |o| {
            o.u64("wave", 4);
        });
        let page = bus.snapshot_since(9, 0);
        assert_eq!(
            page.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(page.dropped, 1);
    }

    #[test]
    fn since_cursor_replays_consistently_across_eviction() {
        let bus = EventBus::new(3);
        for i in 0..6u64 {
            bus.publish(5, EventKind::Progress, |o| {
                o.u64("wave", i);
            });
        }
        // Ring now holds seqs 4..6; the client's cursor (1) predates
        // the eviction horizon. The page yields the surviving suffix
        // and admits to the gap via `dropped`.
        let a = bus.snapshot_since(5, 1);
        assert_eq!(
            a.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(a.dropped, 3);
        // Replay with the same cursor is idempotent...
        let b = bus.snapshot_since(5, 1);
        assert_eq!(
            a.events.iter().map(|e| &e.line).collect::<Vec<_>>(),
            b.events.iter().map(|e| &e.line).collect::<Vec<_>>()
        );
        // ...and a caught-up cursor yields an empty page, not an error.
        let done = bus.snapshot_since(5, 6);
        assert!(done.events.is_empty());
        assert_eq!(done.dropped, 3);
    }

    #[test]
    fn terminal_state_survives_full_ring_eviction() {
        let bus = EventBus::new(2);
        bus.publish(8, EventKind::Terminal, |o| {
            o.str("state", "completed");
        });
        // Flood the ring until the terminal *event* itself is evicted.
        for i in 0..5u64 {
            bus.publish(8, EventKind::Progress, |o| {
                o.u64("wave", i);
            });
        }
        let page = bus.snapshot_since(8, 0);
        assert!(
            page.events.iter().all(|e| e.kind != EventKind::Terminal),
            "terminal event was evicted from the ring"
        );
        // The terminal *state* must survive eviction: streams still
        // complete and the exactly-once counter still reads 1.
        assert!(page.terminal);
        assert_eq!(bus.terminal_events(8), 1);
        let t0 = Instant::now();
        let page = bus.wait_since(8, 6, Duration::from_secs(10));
        assert!(page.terminal && page.events.is_empty());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "terminal job must not block the long-poll"
        );
    }

    #[test]
    fn wait_since_wakes_on_publish_and_on_terminal() {
        let bus = Arc::new(EventBus::new(8));
        let b2 = Arc::clone(&bus);
        let waiter = std::thread::spawn(move || b2.wait_since(3, 0, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(30));
        bus.publish(3, EventKind::Terminal, |o| {
            o.str("state", "completed");
        });
        let page = waiter.join().expect("waiter");
        assert_eq!(page.events.len(), 1);
        assert!(page.terminal);
        assert_eq!(bus.terminal_events(3), 1);
        // A drained cursor on a terminal job returns immediately.
        let t0 = Instant::now();
        let page = bus.wait_since(3, 1, Duration::from_secs(10));
        assert!(page.terminal && page.events.is_empty());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn recorder_adapter_forwards_the_allowlist_with_attribution() {
        let bus = Arc::new(EventBus::new(32));
        {
            let to_bus = Arc::clone(&bus);
            let feed: Feed = Arc::new(move |kind, fields| {
                to_bus.publish(42, kind, |o| {
                    for (k, v) in &fields {
                        o.value(k, v);
                    }
                });
            });
            let rec = Arc::new(JobRecorder { feed, inner: None });
            let _scope = RecorderScope::install(rec);
            let _rail = telemetry::span("rail")
                .field("net", 1u64)
                .field("layer", 6u64)
                .field("wave", 0u64)
                .enter();
            let _stage = telemetry::span("grow").enter();
            telemetry::point("grow_iter").field("iter", 0u64).emit();
            telemetry::point("worker_panic").field("why", "test").emit();
            telemetry::point("uninteresting").emit();
            telemetry::point("route_final")
                .field("net", 1u64)
                .field("layer", 6u64)
                .field("solves", 9u64)
                .emit();
            // `_stage` drops here: SpanEnd("grow") forwarded.
        }
        let page = bus.snapshot_since(42, 0);
        let kinds: Vec<EventKind> = page.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Residual,
                EventKind::Panic,
                EventKind::Residual,
                EventKind::Stage
            ]
        );
        for e in &page.events {
            let root = parse(&e.line).expect("line parses");
            assert_eq!(root.get("job").and_then(Json::as_u64), Some(42));
            // Every event names its rail, each key once.
            let members = root.as_object().expect("object");
            for (key, want) in [("net", 1), ("layer", 6), ("wave", 0)] {
                assert_eq!(root.get(key).and_then(Json::as_u64), Some(want));
                assert_eq!(members.iter().filter(|(k, _)| k == key).count(), 1);
            }
        }
        let stage = &page.events[3];
        let root = parse(&stage.line).expect("stage line parses");
        assert_eq!(root.get("stage").and_then(Json::as_str), Some("grow"));
        assert!(root.get("elapsed_ms").and_then(Json::as_f64).is_some());
    }
}
