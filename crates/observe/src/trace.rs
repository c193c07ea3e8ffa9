//! Convergence-trace capture: a [`TraceSink`] recorder that keeps the
//! router's per-iteration points and the solvers' residual summaries,
//! tagged with the rail they belong to, for JSONL export.

use sprout_core::report::CONVERGENCE_POINTS;
use sprout_telemetry::{Event, Fields, RailTag, Recorder, Value};
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// One captured convergence record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Point name (`grow_iter`, `cg_solve`, …).
    pub name: &'static str,
    /// The rail the point belongs to.
    pub tag: RailTag,
    /// The point's fields, in emission order.
    pub fields: Fields,
}

impl TraceRecord {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A field as `f64` (converting integer values), if present.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    fn to_json_line(&self) -> String {
        let mut obj = sprout_telemetry::json::Obj::new();
        obj.str("event", self.name);
        for (k, v) in self.tag.pairs() {
            obj.u64(k, v);
        }
        for (k, v) in RailTag::untagged(&self.fields) {
            // Residual curves arrive as pre-rendered JSON arrays in a
            // string field; splice them in raw so consumers see a real
            // array, not a quoted blob.
            match v {
                Value::Str(s) if s.starts_with('[') && s.ends_with(']') => {
                    obj.raw(k, s);
                }
                _ => {
                    obj.value(k, v);
                }
            }
        }
        obj.finish()
    }
}

/// A [`Recorder`] that captures the [`CONVERGENCE_POINTS`] for later
/// export, each with the rail tag it was emitted under.
///
/// Install it directly, or fan it out alongside a live sink with
/// [`TeeSink`](sprout_telemetry::sinks::TeeSink). Thread-safe; capture
/// order is the arrival order of events at the sink.
#[derive(Default)]
pub struct TraceSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the captured records.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().clone()
    }

    /// Discards all captured records.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Serializes the capture as JSONL, one record per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.lock().iter() {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Streams the JSONL serialization into `w`.
    ///
    /// # Errors
    ///
    /// Any error from the underlying writer.
    pub fn write_jsonl<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }

    /// Writes the JSONL capture to `path`, creating or truncating it.
    ///
    /// # Errors
    ///
    /// Any error from creating or writing the file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut buf = io::BufWriter::new(file);
        self.write_jsonl(&mut buf)?;
        io::Write::flush(&mut buf)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceRecord>> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for TraceSink {
    fn record(&self, event: &Event) {
        if let Event::Point {
            name, tag, fields, ..
        } = event
        {
            if CONVERGENCE_POINTS.contains(name) {
                self.lock().push(TraceRecord {
                    name,
                    tag: *tag,
                    fields: fields.clone(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_telemetry::{self as telemetry, RecorderScope};
    use std::sync::Arc;

    #[test]
    fn captures_only_convergence_points() {
        let sink = Arc::new(TraceSink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            telemetry::point("grow_iter").field("iter", 0u64).emit();
            telemetry::point("unrelated").field("x", 1u64).emit();
            telemetry::point("cg_solve")
                .field("iterations", 7u64)
                .emit();
        }
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "grow_iter");
        assert_eq!(records[1].name, "cg_solve");
    }

    #[test]
    fn points_inherit_route_span_rail_context() {
        let sink = Arc::new(TraceSink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            let route = telemetry::span("route")
                .field("net", 3u64)
                .field("layer", 6u64)
                .enter();
            {
                // Nested stage span: context must flow through.
                let _grow = telemetry::span("grow").enter();
                telemetry::point("grow_iter").field("iter", 0u64).emit();
            }
            drop(route);
            telemetry::point("cg_solve")
                .field("iterations", 1u64)
                .emit();
        }
        let records = sink.records();
        assert_eq!(records[0].tag.net, Some(3));
        assert_eq!(records[0].tag.layer, Some(6));
        // Outside any route span: untagged.
        assert_eq!(records[1].tag, RailTag::default());
    }

    #[test]
    fn jsonl_lines_parse_and_splice_curves_as_arrays() {
        let sink = Arc::new(TraceSink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            telemetry::point("cg_solve")
                .field("iterations", 4u64)
                .field("residual", 1e-9)
                .field("curve", "[1.0,0.5,0.1]".to_owned())
                .emit();
        }
        let jsonl = sink.to_jsonl();
        let line = jsonl.lines().next().unwrap();
        let parsed = telemetry::json::parse(line).unwrap();
        assert_eq!(
            parsed.get("event").and_then(|v| v.as_str()),
            Some("cg_solve")
        );
        let curve = parsed.get("curve").and_then(|v| v.as_array()).unwrap();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].as_f64(), Some(1.0));
    }

    #[test]
    fn clear_resets_capture() {
        let sink = Arc::new(TraceSink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            telemetry::point("route_final").field("net", 0u64).emit();
        }
        assert!(!sink.is_empty());
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }
}
