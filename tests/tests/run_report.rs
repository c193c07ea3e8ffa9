//! Telemetry ↔ pipeline integration: span nesting and run reports.
//!
//! The observability layer must faithfully mirror what the router
//! actually did: the in-memory collector has to see the stage spans in
//! execution order under the route span, and a [`RunReport`] built from
//! a [`RouteResult`] has to agree with the result's own diagnostics —
//! same stage set, monotonic timestamps, every degradation verbatim.

use sprout_board::presets;
use sprout_core::recovery::{FaultPlan, RecoveryConfig, Stage};
use sprout_core::report::{stage_breakdown, STAGE_ORDER};
use sprout_core::router::{Router, RouterConfig};
use sprout_core::RunReport;
use sprout_telemetry::sinks::MemorySink;
use sprout_telemetry::{Event, RecorderScope, Value};
use std::sync::Arc;

const BUDGET_MM2: f64 = 22.0;

fn config() -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        ..RouterConfig::default()
    }
}

/// Routes one rail of the two-rail preset with `cfg`, capturing every
/// telemetry event the routing thread emits.
fn route_with_memory_sink(cfg: RouterConfig) -> (sprout_core::router::RouteResult, Vec<Event>) {
    let board = presets::two_rail();
    let (net, _) = board.power_nets().next().expect("preset has rails");
    let router = Router::new(&board, cfg);
    let sink = Arc::new(MemorySink::new());
    let result = {
        // Scoped install: thread-local, so parallel tests cannot leak
        // events into each other's sinks.
        let _scope = RecorderScope::install(sink.clone());
        router
            .route_net(net, presets::TWO_RAIL_ROUTE_LAYER, BUDGET_MM2)
            .expect("preset routes")
    };
    (result, sink.events())
}

#[test]
fn memory_collector_sees_stages_nested_in_execution_order() {
    let (_, events) = route_with_memory_sink(config());

    // Exactly one top-level route span, opened first and closed last.
    let route_starts: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SpanStart { name: "route", .. }))
        .collect();
    assert_eq!(route_starts.len(), 1, "one route span");
    let route_id = match route_starts[0] {
        Event::SpanStart {
            id, depth, parent, ..
        } => {
            assert_eq!(*depth, 0, "route span is the root");
            assert!(parent.is_none());
            *id
        }
        _ => unreachable!(),
    };
    assert!(matches!(
        events.first(),
        Some(Event::SpanStart { name: "route", .. })
    ));
    assert!(
        matches!(events.last(), Some(Event::SpanEnd { name: "route", id, .. }) if *id == route_id)
    );

    // The acceptance criterion: stage spans appear at depth 1, parented
    // by the route span, in pipeline order seed → grow → refine →
    // reheat → backconv (after space and tile).
    let stage_starts: Vec<(&'static str, Option<u64>)> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart {
                name,
                depth: 1,
                parent,
                ..
            } => Some((*name, *parent)),
            _ => None,
        })
        .collect();
    // Solver factorization spans (factor_full / factor_refresh) may
    // interleave with the stages at depth 1 — they are profiling
    // resolution, not pipeline stages — so assert the stage *subsequence*
    // and check everything else is a factorization span.
    let names: Vec<&str> = stage_starts
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !n.starts_with("factor"))
        .collect();
    assert_eq!(
        names,
        ["space", "tile", "seed", "grow", "refine", "reheat", "backconv"],
        "stage spans in execution order"
    );
    for (name, parent) in &stage_starts {
        assert_eq!(*parent, Some(route_id), "{name} nests under route");
    }

    // Spans close before the next stage opens (sequential, not nested
    // inside one another): every depth-1 SpanEnd for stage k precedes
    // the depth-1 SpanStart of stage k+1.
    let mut open: Option<&'static str> = None;
    for e in &events {
        match e {
            Event::SpanStart { name, depth: 1, .. } => {
                assert!(open.is_none(), "{name} opened while {open:?} still open");
                open = Some(name);
            }
            Event::SpanEnd { name, depth: 1, .. } => {
                assert_eq!(open, Some(*name), "unbalanced stage span");
                open = None;
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "all stage spans closed");

    // Exit fields carry the counts the spans promised.
    let grow_end = events
        .iter()
        .find_map(|e| match e {
            Event::SpanEnd {
                name: "grow",
                fields,
                ..
            } => Some(fields),
            _ => None,
        })
        .expect("grow span closes");
    assert!(
        grow_end
            .iter()
            .any(|(k, v)| *k == "nodes" && matches!(v, Value::U64(n) if *n > 0)),
        "grow records its node count: {grow_end:?}"
    );
}

#[test]
fn run_report_agrees_with_route_diagnostics() {
    // Inject a degenerate polygon and a forced timeout in each
    // solve-heavy stage so the diagnostics are non-trivial.
    for stage in [Stage::Grow, Stage::Refine, Stage::Reheat] {
        let mut cfg = config();
        cfg.recovery = RecoveryConfig {
            fault: Some(FaultPlan {
                degenerate_polygon: true,
                timeout_stage: Some(stage),
                ..FaultPlan::quiet(5)
            }),
            ..RecoveryConfig::default()
        };
        let (result, _) = route_with_memory_sink(cfg);
        assert!(
            !result.diagnostics.degradations.is_empty(),
            "faults must leave a diagnostics trail"
        );

        let mut report = RunReport::from_results("integration", std::slice::from_ref(&result));
        report.rails[0].budget_mm2 = BUDGET_MM2;
        let rail = &report.rails[0];

        // Stage set matches the pipeline, in order.
        let names: Vec<&str> = rail.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, STAGE_ORDER);

        // Timestamps are monotonic and cumulative.
        for pair in rail.stages.windows(2) {
            assert!(pair[1].start_ms >= pair[0].start_ms);
            assert!((pair[1].start_ms - (pair[0].start_ms + pair[0].duration_ms)).abs() < 1e-9);
        }
        assert!(
            (rail.stages.last().unwrap().start_ms + rail.stages.last().unwrap().duration_ms
                - result.timings.total_ms())
            .abs()
                < 1e-9
        );
        assert_eq!(rail.stages, stage_breakdown(&result.timings));

        // Every degradation appears verbatim (Display form, same order).
        let expected: Vec<String> = result
            .diagnostics
            .degradations
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(rail.degradations, expected, "degradations verbatim");
        assert!(
            rail.degradations
                .iter()
                .any(|d| d.contains("degenerate fragment(s) dropped")),
            "sliver injection surfaces in the report: {:?}",
            rail.degradations
        );

        // Counts line up with the diagnostics counters.
        assert_eq!(rail.budget_overruns, result.diagnostics.budget_overruns);
        assert_eq!(rail.solver_fallbacks, result.diagnostics.solver_fallbacks);
        assert_eq!(rail.edges_sanitized, result.diagnostics.edges_sanitized);
        assert_eq!(
            rail.budget_overruns, 1,
            "forced {stage} timeout must overrun"
        );
        let overrun = format!("{stage} stage over budget");
        assert!(
            rail.degradations.iter().any(|d| d.starts_with(&overrun)),
            "the overrun names its stage: {:?}",
            rail.degradations
        );
        assert!(!report.is_clean());

        // And the JSON line carries them through still verbatim.
        let json = report.to_json();
        assert!(!json.contains('\n'));
        for d in &expected {
            let mut escaped = String::new();
            sprout_telemetry::json::escape_into(&mut escaped, d);
            assert!(json.contains(&escaped), "JSON keeps {d:?} verbatim");
        }
    }
}

#[test]
fn quiet_run_produces_clean_report() {
    let (result, _) = route_with_memory_sink(config());
    let report = RunReport::from_results("clean", std::slice::from_ref(&result));
    assert!(report.is_clean());
    assert_eq!(report.rails.len(), 1);
    assert_eq!(report.rails[0].outcome, "routed");
    assert!(report.rails[0].area_mm2 > 0.0);
    assert!(report.total_area_mm2() > 0.0);
    assert_eq!(report.solver_fallbacks(), 0);
}
