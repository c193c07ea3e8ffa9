//! Recorder implementations: no-op, stderr pretty-printer, JSONL
//! writer, a fan-out tee, and an in-memory collector for tests.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::json::Obj;
use crate::{Event, Recorder};

/// Discards every event. Useful for measuring instrumentation overhead
/// with the dispatch path exercised but no I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: &Event) {}
}

/// Verbosity of one event, for [`StderrSink`]'s level filter.
/// Ordered from most to least severe, so `level_of(e) <= threshold`
/// means "print".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something broke: worker panics.
    Error,
    /// Degraded but recovering: retries, fallbacks, budget overruns.
    Warn,
    /// Pipeline shape: shallow spans (job/wave level).
    Info,
    /// Everything else: deep spans and routine points.
    Debug,
}

impl Level {
    /// Parses `error`/`warn`/`info`/`debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Classifies an event for the level filter. Spans carry no explicit
/// level, so the classification is by shape: panics are errors, the
/// recovery/fallback points are warnings, shallow spans (depth ≤ 1 —
/// jobs and waves) are info, and everything else is debug.
pub fn level_of(event: &Event) -> Level {
    match event {
        Event::Point { name, .. } => match *name {
            "worker_panic" => Level::Error,
            "retry" | "budget_overrun" | "solver_fallback" | "ladder_fallback"
            | "cg_not_converged" | "edges_sanitized" => Level::Warn,
            _ => Level::Debug,
        },
        Event::SpanStart { depth, .. } | Event::SpanEnd { depth, .. } => {
            if *depth <= 1 {
                Level::Info
            } else {
                Level::Debug
            }
        }
    }
}

/// The process-wide threshold from `SPROUT_LOG` (parsed once);
/// unset or unparseable means [`Level::Debug`] — print everything,
/// preserving historical behavior.
fn env_level() -> Level {
    static ENV_LEVEL: std::sync::OnceLock<Level> = std::sync::OnceLock::new();
    *ENV_LEVEL.get_or_init(|| {
        std::env::var("SPROUT_LOG")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Debug)
    })
}

/// Pretty-prints events to stderr as a depth-indented tree:
///
/// ```text
/// ▶ route net=vdd1 layer=0
///   ▶ grow
///   ◀ grow 12.4ms solves=31
///   · solver_fallback rung=cg
/// ◀ route 48.1ms
/// ```
///
/// Events are filtered by [`Level`]: an explicit threshold from
/// [`with_level`](StderrSink::with_level), or else the `SPROUT_LOG`
/// environment variable (`error`/`warn`/`info`/`debug`, default
/// `debug` = print everything).
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink {
    level: Option<Level>,
}

impl StderrSink {
    /// A sink whose threshold comes from `SPROUT_LOG`.
    pub fn new() -> StderrSink {
        StderrSink { level: None }
    }

    /// A sink with a fixed threshold, ignoring the environment.
    pub fn with_level(level: Level) -> StderrSink {
        StderrSink { level: Some(level) }
    }

    fn should_log(&self, event: &Event) -> bool {
        level_of(event) <= self.level.unwrap_or_else(env_level)
    }

    fn render(event: &Event) -> String {
        let mut line = String::new();
        let (marker, depth) = match event {
            Event::SpanStart { depth, .. } => ("\u{25b6}", *depth),
            Event::SpanEnd { depth, .. } => ("\u{25c0}", *depth),
            Event::Point { depth, .. } => ("\u{b7}", *depth),
        };
        for _ in 0..depth {
            line.push_str("  ");
        }
        line.push_str(marker);
        line.push(' ');
        line.push_str(event.name());
        if let Event::SpanEnd { elapsed_ns, .. } = event {
            line.push_str(&format!(" {:.1}ms", *elapsed_ns as f64 / 1e6));
        }
        for (k, v) in event.fields() {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

impl Recorder for StderrSink {
    fn record(&self, event: &Event) {
        if self.should_log(event) {
            eprintln!("{}", Self::render(event));
        }
    }
}

/// Writes one JSON object per event, one per line, to any
/// `Write + Send` target (a file, stderr, an in-memory buffer).
///
/// Schema per line:
/// `{"ev":"span_start"|"span_end"|"point","name":...,"id":...,
///   "parent":...,"depth":...,"elapsed_ns":...,<fields...>}`
/// Field keys are emitted at the top level, so `jq '.rail'` works
/// directly.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer`; each event becomes one line.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Consumes the sink and returns the writer (flushing first).
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().unwrap_or_else(|e| e.into_inner());
        let _ = w.flush();
        w
    }
}

/// Renders one event as a single JSONL line (no trailing newline).
pub fn event_to_json(event: &Event) -> String {
    let mut o = Obj::new();
    match event {
        Event::SpanStart {
            id,
            parent,
            name,
            depth,
            fields,
            ..
        } => {
            o.str("ev", "span_start")
                .str("name", name)
                .u64("id", *id)
                .u64("depth", *depth as u64);
            if let Some(p) = parent {
                o.u64("parent", *p);
            }
            for (k, v) in fields {
                o.value(k, v);
            }
        }
        Event::SpanEnd {
            id,
            name,
            depth,
            elapsed_ns,
            fields,
            ..
        } => {
            o.str("ev", "span_end")
                .str("name", name)
                .u64("id", *id)
                .u64("depth", *depth as u64)
                .u64("elapsed_ns", *elapsed_ns);
            for (k, v) in fields {
                o.value(k, v);
            }
        }
        Event::Point {
            name,
            parent,
            depth,
            fields,
            ..
        } => {
            o.str("ev", "point")
                .str("name", name)
                .u64("depth", *depth as u64);
            if let Some(p) = parent {
                o.u64("parent", *p);
            }
            for (k, v) in fields {
                o.value(k, v);
            }
        }
    }
    o.finish()
}

impl<W: Write + Send> Recorder for JsonlSink<W> {
    fn record(&self, event: &Event) {
        let line = event_to_json(event);
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.flush();
    }
}

/// Forwards every event to each of a fixed set of recorders, in order.
///
/// Lets one scope feed multiple consumers at once — e.g. `--trace`
/// streaming to stderr while a `TraceSink` captures convergence
/// records for JSONL export.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl TeeSink {
    /// Wraps `sinks`; events are forwarded in the given order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl Recorder for TeeSink {
    fn record(&self, event: &Event) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Collects every event in memory, in arrival order. The test sink:
/// assert on [`events`](MemorySink::events) after the scope closes.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copies out everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Names of recorded events, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|e| e.name())
            .collect()
    }

    /// Removes and returns everything recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect()
    }
}

impl Recorder for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fields, RailTag, Value};

    fn sample_start() -> Event {
        Event::SpanStart {
            id: 9,
            parent: Some(4),
            name: "grow",
            depth: 2,
            tag: RailTag::default(),
            fields: vec![
                ("rail", Value::Str("vdd1".into())),
                ("layer", Value::U64(0)),
            ],
        }
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let line = event_to_json(&sample_start());
        assert_eq!(
            line,
            r#"{"ev":"span_start","name":"grow","id":9,"depth":2,"parent":4,"rail":"vdd1","layer":0}"#
        );
        let end = Event::SpanEnd {
            id: 9,
            name: "grow",
            depth: 2,
            elapsed_ns: 1_500_000,
            tag: RailTag::default(),
            fields: vec![("solves", Value::U64(7))],
        };
        assert_eq!(
            event_to_json(&end),
            r#"{"ev":"span_end","name":"grow","id":9,"depth":2,"elapsed_ns":1500000,"solves":7}"#
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&sample_start());
        sink.record(&Event::Point {
            name: "retry",
            parent: None,
            depth: 0,
            tag: RailTag::default(),
            fields: Fields::new(),
        });
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"ev":"span_start""#));
        assert!(lines[1].starts_with(r#"{"ev":"point","name":"retry""#));
    }

    #[test]
    fn stderr_rendering_indents_by_depth() {
        let line = StderrSink::render(&sample_start());
        assert_eq!(line, "    \u{25b6} grow rail=vdd1 layer=0");
        let end = Event::SpanEnd {
            id: 9,
            name: "grow",
            depth: 1,
            elapsed_ns: 2_000_000,
            tag: RailTag::default(),
            fields: Fields::new(),
        };
        assert_eq!(StderrSink::render(&end), "  \u{25c0} grow 2.0ms");
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn events_classify_by_shape() {
        let point = |name: &'static str| Event::Point {
            name,
            parent: None,
            depth: 3,
            tag: RailTag::default(),
            fields: Fields::new(),
        };
        assert_eq!(level_of(&point("worker_panic")), Level::Error);
        assert_eq!(level_of(&point("retry")), Level::Warn);
        assert_eq!(level_of(&point("ladder_fallback")), Level::Warn);
        assert_eq!(level_of(&point("grow_iter")), Level::Debug);
        // Shallow spans are info, deep spans debug.
        assert_eq!(level_of(&sample_start()), Level::Debug);
        let shallow = Event::SpanStart {
            id: 1,
            parent: None,
            name: "job",
            depth: 0,
            tag: RailTag::default(),
            fields: Fields::new(),
        };
        assert_eq!(level_of(&shallow), Level::Info);
    }

    #[test]
    fn stderr_sink_filters_below_threshold() {
        let warn_only = StderrSink::with_level(Level::Warn);
        let retry = Event::Point {
            name: "retry",
            parent: None,
            depth: 2,
            tag: RailTag::default(),
            fields: Fields::new(),
        };
        assert!(warn_only.should_log(&retry));
        assert!(!warn_only.should_log(&sample_start()));
        // Default (no env override in tests): print everything.
        assert!(StderrSink::with_level(Level::Debug).should_log(&sample_start()));
    }

    #[test]
    fn tee_sink_fans_out_to_every_branch() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn Recorder>, b.clone()]);
        tee.record(&sample_start());
        tee.flush();
        assert_eq!(a.names(), ["grow"]);
        assert_eq!(b.names(), ["grow"]);
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.record(&sample_start());
        sink.record(&Event::Point {
            name: "p",
            parent: None,
            depth: 0,
            tag: RailTag::default(),
            fields: Fields::new(),
        });
        assert_eq!(sink.names(), ["grow", "p"]);
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.events().is_empty());
    }
}
