//! Machine-readable run reports.
//!
//! A [`RunReport`] condenses a routing run — one rail or a whole
//! supervised job — into a single JSON line per run: per-stage wall
//! time with monotonic start offsets (the §II-H breakdown), solve
//! counts, metal area against the budget, solver-fallback counts, and
//! every [`Degradation`] verbatim. Bench binaries append these lines to
//! JSONL files under `target/experiments/`, so a regression sweep is a
//! `jq` query instead of a scrape of pretty-printed stdout.
//!
//! The report is built from data the pipeline already carries —
//! [`StageTimings`], [`RouteDiagnostics`], [`JobReport`] — plus a
//! snapshot of the global telemetry counters, so producing one costs
//! nothing beyond formatting.

use crate::recovery::RouteDiagnostics;
use crate::router::{RouteResult, StageTimings};
use crate::supervisor::{JobReport, RailOutcome};
use sprout_telemetry::json::{array, str_array, Obj};
use sprout_telemetry::metrics;

/// Pipeline stage names in execution order — the span names the router
/// emits and the keys of [`StageTimings`].
pub const STAGE_ORDER: [&str; 7] = [
    "space", "tile", "seed", "grow", "refine", "reheat", "backconv",
];

/// Point names the convergence trace and a job's event stream carry:
/// per-iteration objective samples, each rail's final record, and
/// solver incidents.
pub const CONVERGENCE_POINTS: [&str; 8] = [
    "grow_iter",
    "refine_iter",
    "reheat_iter",
    "route_final",
    "cg_solve",
    "cg_not_converged",
    "solver_fallback",
    "budget_overrun",
];

/// One stage's slice of a rail's wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// Stage name (one of [`STAGE_ORDER`]).
    pub name: &'static str,
    /// Offset from rail start (ms). Cumulative over the pipeline order,
    /// so offsets are monotonically non-decreasing by construction.
    pub start_ms: f64,
    /// Stage duration (ms).
    pub duration_ms: f64,
}

/// Builds the per-stage breakdown from [`StageTimings`], in pipeline
/// order with cumulative start offsets.
pub fn stage_breakdown(t: &StageTimings) -> Vec<StageBreakdown> {
    let durations = [
        t.space_ms,
        t.tile_ms,
        t.seed_ms,
        t.grow_ms,
        t.refine_ms,
        t.reheat_ms,
        t.backconv_ms,
    ];
    let mut start_ms = 0.0;
    STAGE_ORDER
        .iter()
        .zip(durations)
        .map(|(&name, duration_ms)| {
            let s = StageBreakdown {
                name,
                start_ms,
                duration_ms,
            };
            start_ms += duration_ms;
            s
        })
        .collect()
}

/// One rail of a [`RunReport`].
#[derive(Debug, Clone, Default)]
pub struct RailRunRecord {
    /// Routed net id.
    pub net: usize,
    /// Routing layer.
    pub layer: usize,
    /// Requested area budget (mm²).
    pub budget_mm2: f64,
    /// `"routed"`, `"restored"`, `"failed"`, or `"skipped"`.
    pub outcome: &'static str,
    /// Shipped metal area (mm²); 0 when nothing shipped.
    pub area_mm2: f64,
    /// Final objective in squares (`None` when nothing shipped or the
    /// objective was never evaluated).
    pub final_resistance_sq: Option<f64>,
    /// Linear solves performed.
    pub solves: usize,
    /// Full Cholesky factorizations computed.
    pub factorizations: usize,
    /// Evaluations served from the incremental session without a full
    /// factorization (reuse, numeric refactor, SMW correction).
    pub factor_updates: usize,
    /// Routing graphs tiled from scratch.
    pub tile_rebuilds: usize,
    /// Routing graphs shared from the tiling cache (the identical space
    /// was tiled before).
    pub tile_reuses: usize,
    /// Total rail wall clock (ms).
    pub total_ms: f64,
    /// Per-stage breakdown (empty for restored/failed/skipped rails).
    pub stages: Vec<StageBreakdown>,
    /// Count of solver-ladder fallbacks.
    pub solver_fallbacks: usize,
    /// Edges dropped by conductance sanitization.
    pub edges_sanitized: usize,
    /// Count of skipped/reverted stages.
    pub stages_skipped: usize,
    /// Count of stage-budget overruns.
    pub budget_overruns: usize,
    /// Every degradation, formatted via its `Display` impl, verbatim
    /// and in the order recorded.
    pub degradations: Vec<String>,
    /// Warnings attached to the rail.
    pub warnings: Vec<String>,
    /// The error, for failed rails; the skip reason, for skipped ones.
    pub error: Option<String>,
    /// Routing attempts made (retries included).
    pub attempts: usize,
    /// Scheduling wave.
    pub wave: usize,
}

impl RailRunRecord {
    /// Builds the record for one routed result.
    pub fn from_result(r: &RouteResult) -> Self {
        let mut rec = RailRunRecord {
            net: r.net.0,
            layer: r.layer,
            outcome: "routed",
            area_mm2: r.shape.area_mm2(),
            final_resistance_sq: r
                .final_resistance_sq
                .is_finite()
                .then_some(r.final_resistance_sq),
            solves: r.timings.solves,
            factorizations: r.timings.factorizations,
            factor_updates: r.timings.factor_updates,
            tile_rebuilds: r.timings.tile_rebuilds,
            tile_reuses: r.timings.tile_reuses,
            total_ms: r.timings.total_ms(),
            stages: stage_breakdown(&r.timings),
            attempts: 1,
            ..RailRunRecord::default()
        };
        rec.absorb_diagnostics(&r.diagnostics);
        rec
    }

    fn absorb_diagnostics(&mut self, d: &RouteDiagnostics) {
        self.solver_fallbacks += d.solver_fallbacks;
        self.edges_sanitized += d.edges_sanitized;
        self.stages_skipped += d.stages_skipped;
        self.budget_overruns += d.budget_overruns;
        self.degradations
            .extend(d.degradations.iter().map(ToString::to_string));
        self.warnings.extend(d.warnings.iter().cloned());
    }

    fn to_json_obj(&self) -> String {
        let mut o = Obj::new();
        o.u64("net", self.net as u64)
            .u64("layer", self.layer as u64)
            .f64("budget_mm2", self.budget_mm2)
            .str("outcome", self.outcome)
            .f64("area_mm2", self.area_mm2);
        match self.final_resistance_sq {
            Some(r) => o.f64("final_resistance_sq", r),
            None => o.raw("final_resistance_sq", "null"),
        };
        o.u64("solves", self.solves as u64)
            .u64("factorizations", self.factorizations as u64)
            .u64("factor_updates", self.factor_updates as u64)
            .u64("tile_rebuilds", self.tile_rebuilds as u64)
            .u64("tile_reuses", self.tile_reuses as u64)
            .f64("total_ms", self.total_ms)
            .raw(
                "stages",
                &array(self.stages.iter().map(|s| {
                    let mut so = Obj::new();
                    so.str("name", s.name)
                        .f64("start_ms", s.start_ms)
                        .f64("duration_ms", s.duration_ms);
                    so.finish()
                })),
            )
            .u64("solver_fallbacks", self.solver_fallbacks as u64)
            .u64("edges_sanitized", self.edges_sanitized as u64)
            .u64("stages_skipped", self.stages_skipped as u64)
            .u64("budget_overruns", self.budget_overruns as u64)
            .raw(
                "degradations",
                &str_array(self.degradations.iter().map(String::as_str)),
            )
            .raw(
                "warnings",
                &str_array(self.warnings.iter().map(String::as_str)),
            );
        if let Some(e) = &self.error {
            o.str("error", e);
        }
        o.u64("attempts", self.attempts as u64)
            .u64("wave", self.wave as u64);
        o.finish()
    }
}

/// One spatial IR-drop/current hotspot — a row of the top-k report a
/// heatmap builder attaches to a [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HotspotRecord {
    /// Net the hotspot belongs to.
    pub net: usize,
    /// Routing layer.
    pub layer: usize,
    /// Tile cell column (grid i index).
    pub cell_i: i64,
    /// Tile cell row (grid j index).
    pub cell_j: i64,
    /// Tile center x (mm, board frame).
    pub x_mm: f64,
    /// Tile center y (mm, board frame).
    pub y_mm: f64,
    /// Node-current metric at the tile (A).
    pub current_a: f64,
    /// Nodal potential relative to the grounded sink (A·squares).
    pub voltage_sq: f64,
    /// IR drop below the peak potential (A·squares).
    pub ir_drop_sq: f64,
}

impl HotspotRecord {
    fn to_json_obj(&self) -> String {
        let mut o = Obj::new();
        o.u64("net", self.net as u64)
            .u64("layer", self.layer as u64)
            .i64("cell_i", self.cell_i)
            .i64("cell_j", self.cell_j)
            .f64("x_mm", self.x_mm)
            .f64("y_mm", self.y_mm)
            .f64("current_a", self.current_a)
            .f64("voltage_sq", self.voltage_sq)
            .f64("ir_drop_sq", self.ir_drop_sq);
        o.finish()
    }
}

/// A machine-readable summary of one routing run, serializable as a
/// single JSONL line via [`RunReport::to_json`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Run label (bench name, scenario id, …).
    pub label: String,
    /// Per-rail records, in request order.
    pub rails: Vec<RailRunRecord>,
    /// Scheduling waves the job spanned (1 for a single-rail run).
    pub waves: usize,
    /// Whole-run wall clock (ms).
    pub elapsed_ms: f64,
    /// Rails restored from a checkpoint.
    pub resumed: usize,
    /// Job-level warnings.
    pub warnings: Vec<String>,
    /// Snapshot of the global telemetry counters at report time
    /// (process-cumulative; diff two snapshots for per-run deltas).
    pub counters: Vec<(&'static str, u64)>,
    /// Top-k spatial hotspots, highest current first (attached by the
    /// heatmap builder; empty unless spatial observability ran).
    pub hotspots: Vec<HotspotRecord>,
}

impl RunReport {
    /// Builds a report for a set of independent [`RouteResult`]s (bench
    /// binaries routing one rail at a time).
    pub fn from_results(label: &str, results: &[RouteResult]) -> Self {
        let rails: Vec<RailRunRecord> = results.iter().map(RailRunRecord::from_result).collect();
        RunReport {
            label: label.to_owned(),
            elapsed_ms: rails.iter().map(|r| r.total_ms).sum(),
            waves: usize::from(!rails.is_empty()),
            rails,
            counters: counter_snapshot(),
            ..RunReport::default()
        }
    }

    /// Builds a report from a supervised [`JobReport`], carrying every
    /// rail outcome (routed, restored, failed, skipped).
    pub fn from_job(label: &str, job: &JobReport) -> Self {
        let mut rails = Vec::with_capacity(job.rails.len());
        for rail in &job.rails {
            match &rail.outcome {
                RailOutcome::Routed(results) => {
                    for r in results {
                        let mut rec = RailRunRecord::from_result(r);
                        rec.budget_mm2 = rail.budget_mm2;
                        rec.attempts = rail.attempts;
                        rec.wave = rail.wave;
                        rails.push(rec);
                    }
                }
                RailOutcome::Restored(rr) => rails.push(RailRunRecord {
                    net: rail.net.0,
                    layer: rail.layer,
                    budget_mm2: rail.budget_mm2,
                    outcome: "restored",
                    area_mm2: rr.shape.area_mm2(),
                    final_resistance_sq: rr
                        .final_resistance_sq
                        .is_finite()
                        .then_some(rr.final_resistance_sq),
                    wave: rail.wave,
                    ..RailRunRecord::default()
                }),
                RailOutcome::Failed(e) => rails.push(RailRunRecord {
                    net: rail.net.0,
                    layer: rail.layer,
                    budget_mm2: rail.budget_mm2,
                    outcome: "failed",
                    error: Some(e.to_string()),
                    attempts: rail.attempts,
                    wave: rail.wave,
                    ..RailRunRecord::default()
                }),
                RailOutcome::Skipped { reason } => rails.push(RailRunRecord {
                    net: rail.net.0,
                    layer: rail.layer,
                    budget_mm2: rail.budget_mm2,
                    outcome: "skipped",
                    error: Some(reason.clone()),
                    wave: rail.wave,
                    ..RailRunRecord::default()
                }),
            }
        }
        RunReport {
            label: label.to_owned(),
            rails,
            waves: job.waves,
            elapsed_ms: job.elapsed_ms,
            resumed: job.resumed,
            warnings: job.warnings.clone(),
            counters: counter_snapshot(),
            hotspots: Vec::new(),
        }
    }

    /// `true` when every rail routed (or restored) without degradation.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
            && self.rails.iter().all(|r| {
                (r.outcome == "routed" || r.outcome == "restored")
                    && r.degradations.is_empty()
                    && r.warnings.is_empty()
            })
    }

    /// Total solver fallbacks across all rails.
    pub fn solver_fallbacks(&self) -> usize {
        self.rails.iter().map(|r| r.solver_fallbacks).sum()
    }

    /// Total shipped metal area (mm²).
    pub fn total_area_mm2(&self) -> f64 {
        self.rails.iter().map(|r| r.area_mm2).sum()
    }

    /// Serializes the report as one JSON line (no trailing newline) —
    /// append to a `.jsonl` file.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.str("report", "sprout-run")
            .str("label", &self.label)
            .u64("waves", self.waves as u64)
            .f64("elapsed_ms", self.elapsed_ms)
            .u64("resumed", self.resumed as u64)
            .bool("clean", self.is_clean())
            .raw(
                "rails",
                &array(self.rails.iter().map(RailRunRecord::to_json_obj)),
            )
            .raw(
                "warnings",
                &str_array(self.warnings.iter().map(String::as_str)),
            );
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters.u64(k, *v);
        }
        o.raw("counters", &counters.finish());
        if !self.hotspots.is_empty() {
            o.raw(
                "hotspots",
                &array(self.hotspots.iter().map(HotspotRecord::to_json_obj)),
            );
        }
        o.finish()
    }
}

fn counter_snapshot() -> Vec<(&'static str, u64)> {
    metrics::global().snapshot().counters.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> StageTimings {
        StageTimings {
            space_ms: 1.0,
            tile_ms: 2.0,
            seed_ms: 3.0,
            grow_ms: 10.0,
            refine_ms: 5.0,
            reheat_ms: 4.0,
            backconv_ms: 0.5,
            solves: 42,
            factorizations: 3,
            factor_updates: 39,
            tile_rebuilds: 1,
            tile_reuses: 0,
            space_buffered: 0,
            space_served: 0,
        }
    }

    #[test]
    fn breakdown_is_monotonic_and_ordered() {
        let stages = stage_breakdown(&timings());
        assert_eq!(
            stages.iter().map(|s| s.name).collect::<Vec<_>>(),
            STAGE_ORDER
        );
        for pair in stages.windows(2) {
            assert!(pair[1].start_ms >= pair[0].start_ms, "monotonic offsets");
            assert!(
                (pair[1].start_ms - (pair[0].start_ms + pair[0].duration_ms)).abs() < 1e-12,
                "offsets are cumulative"
            );
        }
        let last = stages.last().unwrap();
        assert!((last.start_ms + last.duration_ms - timings().total_ms()).abs() < 1e-12);
    }

    #[test]
    fn report_json_is_one_line_with_rails() {
        let report = RunReport {
            label: "unit".into(),
            rails: vec![RailRunRecord {
                net: 1,
                layer: 6,
                budget_mm2: 20.0,
                outcome: "routed",
                area_mm2: 19.5,
                final_resistance_sq: Some(0.25),
                solves: 40,
                total_ms: 25.5,
                stages: stage_breakdown(&timings()),
                degradations: vec!["grow stage skipped".into()],
                attempts: 1,
                ..RailRunRecord::default()
            }],
            waves: 1,
            elapsed_ms: 25.5,
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(!json.contains('\n'), "single line");
        assert!(json.starts_with(r#"{"report":"sprout-run","label":"unit""#));
        assert!(json.contains(r#""outcome":"routed""#));
        assert!(json.contains(r#""degradations":["grow stage skipped"]"#));
        assert!(json.contains(r#""stages":[{"name":"space","start_ms":0"#));
        assert!(json.contains(r#""counters":{"#));
        assert!(!report.is_clean(), "degradations mean not clean");
        assert_eq!(report.total_area_mm2(), 19.5);
    }

    #[test]
    fn missing_resistance_serializes_as_null() {
        let report = RunReport {
            label: "x".into(),
            rails: vec![RailRunRecord {
                outcome: "failed",
                error: Some("boom".into()),
                ..RailRunRecord::default()
            }],
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.contains(r#""final_resistance_sq":null"#));
        assert!(json.contains(r#""error":"boom""#));
        assert!(!report.is_clean());
    }
}
