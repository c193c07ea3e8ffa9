//! # sprout-telemetry
//!
//! Zero-dependency structured observability for the SPROUT workspace:
//! hierarchical spans with monotonic timing, typed lock-free metrics,
//! and pluggable sinks.
//!
//! The routing pipeline (available space → tiling → seed → SmartGrow →
//! SmartRefine → reheat → back conversion, §II of the paper) is a long
//! chain of numerical stages whose cost and quality the paper accounts
//! per stage (Table III, Fig. 12, §II-H). This crate is the measurement
//! substrate for that accounting: every stage, solver-ladder climb,
//! boolean-op call, supervisor wave, and checkpoint write can report
//! itself without printing, without allocating when nobody listens, and
//! without pulling a single external crate into the workspace.
//!
//! ## Model
//!
//! * [`Event`] — what instrumented code emits: span start/end pairs,
//!   instant [`Event::Point`]s, each carrying typed key/value
//!   [`Fields`].
//! * [`Recorder`] — where events go. The default is *nobody*: with no
//!   recorder installed, [`span`] and [`point`] skip field collection
//!   entirely and cost a thread-local read.
//! * Sinks — [`sinks::StderrSink`] (pretty tree for humans),
//!   [`sinks::JsonlSink`] (one JSON object per line for machines),
//!   [`sinks::MemorySink`] (test inspection).
//! * [`metrics`] — always-on lock-free counters/gauges/histograms,
//!   aggregated globally and snapshotted into run reports.
//!
//! ## Rail attribution
//!
//! The pipeline runs once per rail, so every event carries a
//! [`RailTag`]: the `net`, `layer` and `wave` of the rail it belongs
//! to. A span inherits its parent's tag and overrides it with its own
//! U64 fields of those names; a point does the same over its enclosing
//! span. The tag is resolved once, when the span opens or the point is
//! emitted, so recorders read attribution straight off the event.
//!
//! ## Installation
//!
//! [`RecorderScope::install`] installs a recorder on the current
//! thread, innermost-wins, mirroring the scope discipline of the
//! router's fault and cancel scopes. Code that spawns worker threads
//! (the supervisor) captures [`current`] and re-installs it inside each
//! worker so spans keep flowing.
//!
//! ## Example
//!
//! ```
//! use sprout_telemetry::{self as telemetry, sinks::MemorySink, Event, RecorderScope};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! {
//!     let _scope = RecorderScope::install(sink.clone());
//!     let mut outer = telemetry::span("grow").field("rail", 1u64).enter();
//!     {
//!         let _inner = telemetry::span("solve").enter();
//!     }
//!     outer.record("solves", 42u64);
//! }
//! let events = sink.events();
//! assert_eq!(events.len(), 4); // two starts, two ends
//! match &events[1] {
//!     Event::SpanStart { name, depth, .. } => {
//!         assert_eq!(*name, "solve");
//!         assert_eq!(*depth, 1); // nested under `grow`
//!     }
//!     other => panic!("expected inner start, got {other:?}"),
//! }
//! ```

pub mod json;
pub mod metrics;
pub mod prof;
pub mod prom;
pub mod sinks;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed field value attached to spans and points.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (times, areas, residuals).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text (labels, reasons).
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.3}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Ordered key/value pairs attached to an event.
pub type Fields = Vec<(&'static str, Value)>;

/// The rail an event belongs to: the `net`, `layer` and `wave` it
/// inherits from its enclosing spans, each overridden by the event's own
/// U64 field of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RailTag {
    /// Net id.
    pub net: Option<u64>,
    /// Routing layer.
    pub layer: Option<u64>,
    /// Supervisor wave.
    pub wave: Option<u64>,
}

impl RailTag {
    /// The field names a tag resolves.
    const KEYS: [&'static str; 3] = ["net", "layer", "wave"];

    /// This tag overridden by `fields`' own U64 `net`/`layer`/`wave`.
    fn resolve(mut self, fields: &Fields) -> RailTag {
        for (key, value) in fields {
            if let Value::U64(v) = value {
                match *key {
                    "net" => self.net = Some(*v),
                    "layer" => self.layer = Some(*v),
                    "wave" => self.wave = Some(*v),
                    _ => {}
                }
            }
        }
        self
    }

    /// The keys that are set, with their values, in `net`, `layer`,
    /// `wave` order.
    pub fn pairs(&self) -> impl Iterator<Item = (&'static str, u64)> {
        RailTag::KEYS
            .into_iter()
            .zip([self.net, self.layer, self.wave])
            .filter_map(|(key, v)| Some((key, v?)))
    }

    /// `fields` minus the keys a tag owns: what a sink writes after
    /// [`RailTag::pairs`], so no key repeats.
    pub fn untagged(fields: &Fields) -> impl Iterator<Item = &(&'static str, Value)> {
        fields
            .iter()
            .filter(|(key, _)| !RailTag::KEYS.contains(key))
    }
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Process-unique span id.
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Span name (a pipeline stage, a job phase, …).
        name: &'static str,
        /// Nesting depth at open (0 = root).
        depth: usize,
        /// The rail this span belongs to.
        tag: RailTag,
        /// Entry fields.
        fields: Fields,
    },
    /// A span closed.
    SpanEnd {
        /// Id from the matching [`Event::SpanStart`].
        id: u64,
        /// Span name, repeated so sinks need not join.
        name: &'static str,
        /// Nesting depth at close (matches the start's depth).
        depth: usize,
        /// Monotonic wall time between start and end (ns).
        elapsed_ns: u64,
        /// The tag resolved when the span opened.
        tag: RailTag,
        /// Exit fields recorded via [`SpanGuard::record`].
        fields: Fields,
    },
    /// An instant event (a retry, a fallback, a checkpoint written).
    Point {
        /// Event name.
        name: &'static str,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Nesting depth (0 = outside all spans).
        depth: usize,
        /// The rail this point belongs to.
        tag: RailTag,
        /// Payload.
        fields: Fields,
    },
}

impl Event {
    /// The event's name.
    pub fn name(&self) -> &'static str {
        match self {
            Event::SpanStart { name, .. }
            | Event::SpanEnd { name, .. }
            | Event::Point { name, .. } => name,
        }
    }

    /// The rail the event belongs to.
    pub fn tag(&self) -> RailTag {
        match self {
            Event::SpanStart { tag, .. }
            | Event::SpanEnd { tag, .. }
            | Event::Point { tag, .. } => *tag,
        }
    }

    /// The event's fields.
    pub fn fields(&self) -> &Fields {
        match self {
            Event::SpanStart { fields, .. }
            | Event::SpanEnd { fields, .. }
            | Event::Point { fields, .. } => fields,
        }
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Where events go. Implementations must be cheap and non-blocking —
/// they are called from routing hot paths (though only between stages
/// and solves, never inside inner numeric loops).
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
    /// Flushes buffered output (JSONL writers). Default: no-op.
    fn flush(&self) {}
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SCOPED: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    /// Open spans on this thread, innermost last, with their tags.
    static SPAN_STACK: RefCell<Vec<(u64, RailTag)>> = const { RefCell::new(Vec::new()) };
}

/// The recorder active on this thread: the innermost
/// [`RecorderScope`], else `None`.
pub fn current() -> Option<Arc<dyn Recorder>> {
    SCOPED.with(|s| s.borrow().last().cloned())
}

/// `true` when any recorder would receive events from this thread.
pub fn active() -> bool {
    SCOPED.with(|s| !s.borrow().is_empty())
}

/// For a span or point about to open with `fields`: the innermost open
/// span on this thread, the depth it opens at, and its resolved tag.
fn enclosing(fields: &Fields) -> (Option<u64>, usize, RailTag) {
    SPAN_STACK.with(|s| {
        let s = s.borrow();
        let (parent, tag) = s
            .last()
            .map_or((None, RailTag::default()), |&(id, t)| (Some(id), t));
        (parent, s.len(), tag.resolve(fields))
    })
}

/// Installs a recorder on the current thread for the guard's lifetime.
/// Scopes nest; the innermost wins. Worker-spawning code (the routing
/// supervisor) captures [`current`] before spawning and re-installs it
/// in each worker so spans keep flowing across thread boundaries.
pub struct RecorderScope(());

impl RecorderScope {
    /// Installs `recorder`; deactivates when the guard drops.
    pub fn install(recorder: Arc<dyn Recorder>) -> RecorderScope {
        SCOPED.with(|s| s.borrow_mut().push(recorder));
        RecorderScope(())
    }
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Builder for a span. Created by [`span`]; call
/// [`field`](SpanBuilder::field) to attach entry fields and
/// [`enter`](SpanBuilder::enter) to start timing.
#[must_use = "a span only starts when .enter() is called"]
pub struct SpanBuilder {
    name: &'static str,
    recorder: Option<Arc<dyn Recorder>>,
    fields: Fields,
}

impl SpanBuilder {
    /// Attaches an entry field (skipped entirely when no recorder is
    /// active).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.recorder.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Starts the span: emits [`Event::SpanStart`] and returns a guard
    /// that emits [`Event::SpanEnd`] with monotonic elapsed time when
    /// dropped.
    #[must_use = "bind the guard — dropping it immediately closes the span"]
    pub fn enter(self) -> SpanGuard {
        let Some(recorder) = self.recorder else {
            return SpanGuard { active: None };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, depth, tag) = enclosing(&self.fields);
        recorder.record(&Event::SpanStart {
            id,
            parent,
            name: self.name,
            depth,
            tag,
            fields: self.fields,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push((id, tag)));
        SpanGuard {
            active: Some(ActiveSpan {
                id,
                name: self.name,
                depth,
                tag,
                recorder,
                start: Instant::now(),
                exit_fields: Vec::new(),
            }),
        }
    }
}

struct ActiveSpan {
    id: u64,
    name: &'static str,
    depth: usize,
    tag: RailTag,
    recorder: Arc<dyn Recorder>,
    start: Instant,
    exit_fields: Fields,
}

/// An open span. Dropping it (including during unwinding) closes the
/// span and emits the end event with its monotonic duration.
#[must_use = "bind the guard — dropping it immediately closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Attaches an exit field, reported on the span's end event.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(a) = &mut self.active {
            a.exit_fields.push((key, value.into()));
        }
    }

    /// `true` when a recorder is listening (lets callers skip expensive
    /// field computation).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        // Pop this span; tolerate out-of-order drops by removing the
        // matching id wherever it sits (never panics during unwind).
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().map(|&(id, _)| id) == Some(a.id) {
                s.pop();
            } else if let Some(pos) = s.iter().rposition(|&(id, _)| id == a.id) {
                s.remove(pos);
            }
        });
        a.recorder.record(&Event::SpanEnd {
            id: a.id,
            name: a.name,
            depth: a.depth,
            elapsed_ns: a.start.elapsed().as_nanos() as u64,
            tag: a.tag,
            fields: a.exit_fields,
        });
    }
}

/// Opens a span builder. With no recorder active this is a thread-local
/// read and the returned guard does nothing.
pub fn span(name: &'static str) -> SpanBuilder {
    SpanBuilder {
        name,
        recorder: current(),
        fields: Vec::new(),
    }
}

/// Builder for an instant event. Created by [`point`]; call
/// [`emit`](PointBuilder::emit) to send it.
#[must_use = "a point is only recorded when .emit() is called"]
pub struct PointBuilder {
    name: &'static str,
    recorder: Option<Arc<dyn Recorder>>,
    fields: Fields,
}

impl PointBuilder {
    /// Attaches a field (skipped when no recorder is active).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.recorder.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Emits the event to the active recorder, tagged with the current
    /// span context.
    pub fn emit(self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        let (parent, depth, tag) = enclosing(&self.fields);
        recorder.record(&Event::Point {
            name: self.name,
            parent,
            depth,
            tag,
            fields: self.fields,
        });
    }
}

/// Opens an instant-event builder (a retry, a solver fallback, a
/// checkpoint written). Free when no recorder is active.
pub fn point(name: &'static str) -> PointBuilder {
    PointBuilder {
        name,
        recorder: current(),
        fields: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::sinks::MemorySink;
    use super::*;

    #[test]
    fn no_recorder_means_no_events_and_inert_guards() {
        assert!(current().is_none());
        let mut g = span("idle").field("k", 1u64).enter();
        assert!(!g.is_recording());
        g.record("x", 2u64);
        point("nothing").field("y", 3u64).emit();
        drop(g);
        // Span stack stays empty: the inert guard never pushed.
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let sink = Arc::new(MemorySink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            let mut outer = span("outer")
                .field("rail", 7u64)
                .field("net", 3u64)
                .field("layer", 6u64)
                .enter();
            point("mid")
                .field("why", "because")
                .field("wave", 1u64)
                .emit();
            {
                let _inner = span("inner").field("layer", 8u64).enter();
            }
            outer.record("solves", 3u64);
        }
        let events = sink.events();
        assert_eq!(events.len(), 5);
        let (outer_id, outer_depth) = match &events[0] {
            Event::SpanStart {
                id,
                name: "outer",
                depth,
                parent: None,
                fields,
                ..
            } => {
                assert_eq!(fields[0], ("rail", Value::U64(7)));
                (*id, *depth)
            }
            other => panic!("bad first event {other:?}"),
        };
        assert_eq!(outer_depth, 0);
        // Tags: inherited from the enclosing span, overridden by the
        // event's own U64 net/layer/wave, carried to the span's end.
        let tag = |net, layer, wave| RailTag { net, layer, wave };
        let tags: Vec<RailTag> = events.iter().map(Event::tag).collect();
        assert_eq!(
            tags,
            [
                tag(Some(3), Some(6), None),
                tag(Some(3), Some(6), Some(1)),
                tag(Some(3), Some(8), None),
                tag(Some(3), Some(8), None),
                tag(Some(3), Some(6), None),
            ]
        );
        match &events[1] {
            Event::Point {
                name: "mid",
                parent,
                depth,
                ..
            } => {
                assert_eq!(*parent, Some(outer_id));
                assert_eq!(*depth, 1);
            }
            other => panic!("bad point {other:?}"),
        }
        match &events[2] {
            Event::SpanStart {
                name: "inner",
                parent,
                depth,
                ..
            } => {
                assert_eq!(*parent, Some(outer_id));
                assert_eq!(*depth, 1);
            }
            other => panic!("bad inner start {other:?}"),
        }
        match &events[4] {
            Event::SpanEnd {
                id,
                name: "outer",
                fields,
                ..
            } => {
                assert_eq!(*id, outer_id);
                assert_eq!(fields[0], ("solves", Value::U64(3)));
            }
            other => panic!("bad outer end {other:?}"),
        }
    }

    #[test]
    fn inner_scope_wins_and_pops_cleanly() {
        let outer = Arc::new(MemorySink::new());
        let inner = Arc::new(MemorySink::new());
        {
            let _outer = RecorderScope::install(outer.clone());
            {
                let _inner = RecorderScope::install(inner.clone());
                let _g = span("inner-only").enter();
            }
            let _g = span("outer-only").enter();
        }
        assert!(current().is_none() && !active());
        assert_eq!(inner.names(), ["inner-only", "inner-only"]);
        assert_eq!(outer.names(), ["outer-only", "outer-only"]);
    }

    #[test]
    fn elapsed_is_monotonic_and_positive() {
        let sink = Arc::new(MemorySink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            let _g = span("timed").enter();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.events();
        match &events[1] {
            Event::SpanEnd { elapsed_ns, .. } => assert!(*elapsed_ns >= 1_000_000),
            other => panic!("expected end, got {other:?}"),
        }
    }

    #[test]
    fn value_conversions_and_lookup() {
        let sink = Arc::new(MemorySink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            point("p")
                .field("u", 1usize)
                .field("i", -2i64)
                .field("f", 0.5f64)
                .field("b", true)
                .field("s", "text")
                .emit();
        }
        let events = sink.events();
        let e = &events[0];
        assert_eq!(e.field("u"), Some(&Value::U64(1)));
        assert_eq!(e.field("i"), Some(&Value::I64(-2)));
        assert_eq!(e.field("f"), Some(&Value::F64(0.5)));
        assert_eq!(e.field("b"), Some(&Value::Bool(true)));
        assert_eq!(e.field("s"), Some(&Value::Str("text".into())));
        assert_eq!(e.field("missing"), None);
    }
}
