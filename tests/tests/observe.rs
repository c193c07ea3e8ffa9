//! End-to-end observability checks: convergence-trace invariants and
//! spatial-map geometry, routed through the real pipeline.

use sprout_board::presets;
use sprout_core::reheat::ReheatConfig;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::supervisor::{Supervisor, SupervisorConfig};
use sprout_core::{RouteResult, RunReport};
use sprout_observe::{build_heatmaps, hotspots, TraceSink};
use sprout_telemetry::{RecorderScope, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

fn route_traced() -> (Arc<TraceSink>, RouteResult) {
    let sink = Arc::new(TraceSink::new());
    let board = presets::two_rail();
    let config = RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 10,
        refine_iterations: 3,
        reheat: Some(ReheatConfig::default()),
        ..RouterConfig::default()
    };
    let router = Router::new(&board, config);
    let (net, _) = board.power_nets().next().unwrap();
    let result = {
        let _scope = RecorderScope::install(sink.clone());
        router
            .route_net(net, presets::TWO_RAIL_ROUTE_LAYER, 25.0)
            .unwrap()
    };
    (sink, result)
}

#[test]
fn grow_area_is_monotone_and_final_area_matches_report_exactly() {
    let (sink, result) = route_traced();
    let records = sink.records();

    // SmartGrow only adds tiles: the per-iteration metal area must be
    // monotonically non-decreasing.
    let grow_areas: Vec<f64> = records
        .iter()
        .filter(|r| r.name == "grow_iter")
        .map(|r| r.field_f64("area_mm2").unwrap())
        .collect();
    assert!(grow_areas.len() >= 2, "expected several grow iterations");
    for w in grow_areas.windows(2) {
        assert!(w[1] >= w[0], "grow area regressed: {} → {}", w[0], w[1]);
    }
    // Every iteration respects the budget bookkeeping.
    for r in records.iter().filter(|r| r.name == "grow_iter") {
        assert!(r.field_f64("budget_mm2").unwrap() > 0.0);
        assert!(r.field_f64("max_current_a").unwrap() >= 0.0);
    }

    // The terminal record's area is byte-identical to the shipped shape
    // and to the RunReport rail record.
    let final_rec = records
        .iter()
        .find(|r| r.name == "route_final")
        .expect("route_final emitted");
    let traced_area = final_rec.field_f64("area_mm2").unwrap();
    assert_eq!(traced_area, result.shape.area_mm2());
    let report = RunReport::from_results("observe-test", std::slice::from_ref(&result));
    assert_eq!(traced_area, report.rails[0].area_mm2);
}

/// Asserts every JSONL line is a JSON object with no key twice.
fn assert_unique_keys(jsonl: &str) {
    for line in jsonl.lines() {
        let parsed =
            sprout_telemetry::json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("line is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let unique: BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "repeated key in {line}");
    }
}

#[test]
fn trace_records_carry_rail_context_and_jsonl_parses() {
    let (sink, result) = route_traced();
    let records = sink.records();
    // Every per-iteration record is attributed to the routed rail.
    for r in records
        .iter()
        .filter(|r| ["grow_iter", "refine_iter", "route_final"].contains(&r.name))
    {
        assert_eq!(
            r.tag.net,
            Some(result.net.0 as u64),
            "rail context attached"
        );
        assert_eq!(r.tag.layer, Some(presets::TWO_RAIL_ROUTE_LAYER as u64));
    }
    assert_unique_keys(&sink.to_jsonl());

    // A two-rail job on two supervisor threads: every record names the
    // rail and wave it was emitted under, and each rail has exactly one
    // `route_final`. The middle request (no terminals on layer 7, a
    // typed failure) shares wave 0 with the first rail, so that rail
    // routes on a supervisor worker thread; the last one routes in
    // wave 1, on the calling thread.
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let nets: Vec<_> = board.power_nets().map(|(net, _)| net).collect();
    let requests = [
        (nets[0], layer, 20.0),
        (nets[1], layer + 1, 20.0),
        (nets[1], layer, 20.0),
    ];
    let config = RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        ..RouterConfig::default()
    };
    let sink = Arc::new(TraceSink::new());
    let job = {
        let _scope = RecorderScope::install(sink.clone());
        let threads = SupervisorConfig {
            threads: 2,
            ..SupervisorConfig::default()
        };
        Supervisor::new(&board, config, threads).run(&requests)
    };
    let waves: Vec<_> = job.rails.iter().map(|r| r.wave).collect();
    assert_eq!(waves, [0, 0, 1]);
    let routed: Vec<_> = job
        .rails
        .iter()
        .filter(|r| r.outcome.is_complete())
        .collect();
    assert_eq!(routed.len(), 2, "both layer-{layer} rails route");
    let records = sink.records();
    for r in &records {
        let rail = routed
            .iter()
            .find(|rail| {
                r.tag.net == Some(rail.net.0 as u64) && r.tag.layer == Some(rail.layer as u64)
            })
            .unwrap_or_else(|| panic!("{} carries no routed rail: {:?}", r.name, r.tag));
        assert_eq!(r.tag.wave, Some(rail.wave as u64), "{}", r.name);
    }
    for rail in &routed {
        let finals = records
            .iter()
            .filter(|r| r.name == "route_final" && r.tag.net == Some(rail.net.0 as u64))
            .count();
        assert_eq!(finals, 1, "rail {:?}", rail.net);
    }
    assert_unique_keys(&sink.to_jsonl());
}

#[test]
fn iterative_solver_residual_curves_are_captured() {
    // The healthy pipeline solves via the direct factorization; the
    // iterative solvers (and their residual traces) belong to the
    // fallback ladder. Drive CG directly under a trace scope.
    use sprout_linalg::cg::{solve_cg, CgOptions};
    use sprout_linalg::sparse::Triplets;

    let sink = Arc::new(TraceSink::new());
    let n = 64;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0).unwrap();
        if i + 1 < n {
            t.push(i, i + 1, -1.0).unwrap();
            t.push(i + 1, i, -1.0).unwrap();
        }
    }
    let a = t.to_csr();
    let b = vec![1.0; n];
    {
        let _scope = RecorderScope::install(sink.clone());
        solve_cg(&a, &b, CgOptions::default()).unwrap();
    }
    let records = sink.records();
    let solve = records
        .iter()
        .find(|r| r.name == "cg_solve")
        .expect("cg_solve captured");
    assert!(solve.field_f64("iterations").unwrap() >= 1.0);
    // Residual curves are JSON arrays embedded as strings, capped at 32
    // points, ending at the converged residual.
    let Some(Value::Str(curve)) = solve.field("curve") else {
        panic!("curve field missing");
    };
    let parsed = sprout_telemetry::json::parse(curve).unwrap();
    let points = parsed.as_array().expect("curve is an array");
    assert!(!points.is_empty() && points.len() <= 32);
    let last = points.last().unwrap().as_f64().unwrap();
    assert!((last - solve.field_f64("residual").unwrap()).abs() <= 1e-12);
}

#[test]
fn heatmap_grid_matches_tiling_and_hotspots_rank_ir_drop() {
    let (_, result) = route_traced();
    let maps = build_heatmaps(&result.graph, &result.subgraph, &result.pairs).unwrap();

    // CSV dimensions equal the tile grid: every graph node's cell must
    // address a valid (i, j) of the raster, and the raster is exactly
    // as large as the occupied cell bounding box.
    let cells: Vec<(i64, i64)> = result.graph.nodes().iter().map(|n| n.cell).collect();
    let (imin, imax) = cells.iter().fold((i64::MAX, i64::MIN), |(lo, hi), c| {
        (lo.min(c.0), hi.max(c.0))
    });
    let (jmin, jmax) = cells.iter().fold((i64::MAX, i64::MIN), |(lo, hi), c| {
        (lo.min(c.1), hi.max(c.1))
    });
    assert_eq!(maps.current.nx, (imax - imin + 1) as usize);
    assert_eq!(maps.current.ny, (jmax - jmin + 1) as usize);
    let csv = maps.ir_drop.to_csv();
    let data_rows: Vec<&str> = csv.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(data_rows.len(), maps.ir_drop.ny);
    assert!(data_rows
        .iter()
        .all(|row| row.split(',').count() == maps.ir_drop.nx));

    // Hotspots attach to the report and rank by IR drop.
    let spots = hotspots(&maps, result.net.0, result.layer, 3);
    assert_eq!(spots.len(), 3);
    assert!(spots.windows(2).all(|w| w[0].ir_drop_sq >= w[1].ir_drop_sq));
    let mut report = RunReport::from_results("observe-test", std::slice::from_ref(&result));
    report.hotspots = spots;
    let json = report.to_json();
    assert!(json.contains("\"hotspots\":[{"));
    assert!(json.contains("\"ir_drop_sq\":"));
}
