//! Per-solve residual-curve capture for the convergence observatory.
//!
//! The iterative solver (CG) calls [`ResidualTrace::start`]
//! before the iteration loop, [`push`](ResidualTrace::push) once per
//! iteration, and [`emit`](ResidualTrace::emit) on convergence. With no
//! recorder listening the whole thing is a single branch and no
//! allocation, so the solver hot loop stays clean.

use sprout_telemetry as telemetry;

/// Maximum points kept in an exported residual curve. Longer solves
/// are downsampled (first and last iterations always survive).
pub const MAX_CURVE_POINTS: usize = 32;

/// Collects per-iteration relative residuals when a recorder is
/// listening; inert otherwise.
#[derive(Debug, Default)]
pub struct ResidualTrace {
    curve: Option<Vec<f64>>,
}

impl ResidualTrace {
    /// Starts a trace; allocates only when telemetry is active.
    pub fn start() -> ResidualTrace {
        ResidualTrace {
            curve: telemetry::active().then(Vec::new),
        }
    }

    /// Records one iteration's relative residual `‖r‖/‖b‖`.
    pub fn push(&mut self, residual: f64) {
        if let Some(c) = &mut self.curve {
            c.push(residual);
        }
    }

    /// Emits a `<solver>_solve` point carrying the iteration count,
    /// final residual, and the downsampled residual curve rendered as
    /// a JSON array string in the `curve` field.
    pub fn emit(self, point_name: &'static str, iterations: usize, residual: f64) {
        let Some(curve) = self.curve else { return };
        telemetry::point(point_name)
            .field("iterations", iterations)
            .field("residual", residual)
            .field("curve", curve_json(&curve))
            .emit();
    }
}

/// Renders a residual curve as a JSON array string with at most
/// [`MAX_CURVE_POINTS`] entries. Downsampling keeps the first and
/// last samples so the curve's endpoints stay exact.
pub fn curve_json(curve: &[f64]) -> String {
    let mut out = String::from("[");
    let n = curve.len();
    let picked: Vec<usize> = if n <= MAX_CURVE_POINTS {
        (0..n).collect()
    } else {
        let stride = n.div_ceil(MAX_CURVE_POINTS);
        let mut idx: Vec<usize> = (0..n).step_by(stride).collect();
        if idx.last() != Some(&(n - 1)) {
            idx.push(n - 1);
        }
        idx
    };
    for (k, &i) in picked.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        telemetry::json::fmt_f64(&mut out, curve[i]);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_telemetry::{sinks::MemorySink, RecorderScope, Value};
    use std::sync::Arc;

    #[test]
    fn inert_without_recorder() {
        let mut t = ResidualTrace::start();
        t.push(0.5);
        t.emit("cg_solve", 1, 0.5); // must not panic or emit
    }

    #[test]
    fn emits_curve_when_listening() {
        let sink = Arc::new(MemorySink::new());
        {
            let _scope = RecorderScope::install(sink.clone());
            let mut t = ResidualTrace::start();
            t.push(1.0);
            t.push(0.1);
            t.push(0.001);
            t.emit("cg_solve", 3, 0.001);
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name(), "cg_solve");
        assert_eq!(events[0].field("iterations"), Some(&Value::U64(3)));
        match events[0].field("curve") {
            Some(Value::Str(s)) => {
                let parsed = sprout_telemetry::json::parse(s).unwrap();
                let arr = parsed.as_array().unwrap();
                assert_eq!(arr.len(), 3);
                assert_eq!(arr[0].as_f64(), Some(1.0));
                assert_eq!(arr[2].as_f64(), Some(0.001));
            }
            other => panic!("curve missing or wrong type: {other:?}"),
        }
    }

    #[test]
    fn long_curves_downsample_keeping_endpoints() {
        let curve: Vec<f64> = (0..1000).map(|i| 1.0 / (i + 1) as f64).collect();
        let s = curve_json(&curve);
        let parsed = sprout_telemetry::json::parse(&s).unwrap();
        let arr = parsed.as_array().unwrap();
        assert!(arr.len() <= MAX_CURVE_POINTS + 1, "len {}", arr.len());
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr.last().unwrap().as_f64(), Some(1.0 / 1000.0));
    }
}
