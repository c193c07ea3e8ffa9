//! Convergence-trace capture: a [`TraceSink`] recorder that keeps the
//! router's per-iteration points and the solvers' residual summaries,
//! tagged with the rail they belong to, for JSONL export.

use sprout_telemetry::{Event, Fields, Recorder, Value};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Point names the sink captures. Everything else (metrics snapshots,
/// fault-injection points, …) passes through untouched.
const CAPTURED: [&str; 6] = [
    "grow_iter",
    "refine_iter",
    "reheat_iter",
    "route_final",
    "cg_solve",
    "cg_not_converged",
];

/// One captured convergence record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Point name (`grow_iter`, `cg_solve`, …).
    pub name: &'static str,
    /// Net id of the enclosing `route` span, when inside one.
    pub net: Option<u64>,
    /// Layer of the enclosing `route` span, when inside one.
    pub layer: Option<u64>,
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
        if let Some(net) = self.net {
            obj.u64("net", net);
        }
        if let Some(layer) = self.layer {
            obj.u64("layer", layer);
        }
        for (k, v) in &self.fields {
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

#[derive(Default)]
struct Inner {
    /// Rail context per live span id: the (net, layer) of the nearest
    /// enclosing `route` span, propagated at span start via the
    /// parent id (exact even when rails route on worker threads).
    context: HashMap<u64, Option<(u64, u64)>>,
    records: Vec<TraceRecord>,
}

/// A [`Recorder`] that captures convergence points for later export.
///
/// Install it directly, or fan it out alongside a live sink with
/// [`TeeSink`](sprout_telemetry::sinks::TeeSink). Thread-safe; capture
/// order is the arrival order of events at the sink.
#[derive(Default)]
pub struct TraceSink {
    inner: Mutex<Inner>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// `true` when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the captured records.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.lock().records.clone()
    }

    /// Discards all captured records (rail contexts are kept).
    pub fn clear(&self) {
        self.lock().records.clear();
    }

    /// Serializes the capture as JSONL, one record per line.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for r in &inner.records {
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn field_u64(fields: &Fields, key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            Value::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
}

impl Recorder for TraceSink {
    fn record(&self, event: &Event) {
        match event {
            Event::SpanStart {
                id,
                parent,
                name,
                fields,
                ..
            } => {
                let mut inner = self.lock();
                let ctx = if *name == "route" {
                    match (field_u64(fields, "net"), field_u64(fields, "layer")) {
                        (Some(net), Some(layer)) => Some((net, layer)),
                        _ => None,
                    }
                } else {
                    parent
                        .and_then(|p| inner.context.get(&p).copied())
                        .flatten()
                };
                inner.context.insert(*id, ctx);
            }
            Event::SpanEnd { id, .. } => {
                self.lock().context.remove(id);
            }
            Event::Point {
                name,
                parent,
                fields,
                ..
            } => {
                if !CAPTURED.contains(name) {
                    return;
                }
                let mut inner = self.lock();
                let ctx = parent
                    .and_then(|p| inner.context.get(&p).copied())
                    .flatten();
                inner.records.push(TraceRecord {
                    name,
                    net: ctx.map(|(n, _)| n),
                    layer: ctx.map(|(_, l)| l),
                    fields: fields.clone(),
                });
            }
            _ => {}
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
        assert_eq!(records[0].net, Some(3));
        assert_eq!(records[0].layer, Some(6));
        // Outside any route span: untagged.
        assert_eq!(records[1].net, None);
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
