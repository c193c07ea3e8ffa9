//! Exact solver and tiling counts for every committed benchmark shape.
//!
//! Each rail pins every counter it reports — solves, full
//! factorizations, factor updates, tile rebuilds — plus the shipped
//! area's bits, so a change that moves the nodal solver's
//! reuse/refresh/refactor decisions or the tiling cache's outcome fails
//! tier-1 instead of drifting silently. Solve counts are deterministic
//! and machine-independent; wall time is not, and lives in `perfbench/`.
//!
//! The configurations mirror the experiment binaries and the served
//! path; the `scaling`, `table2` and `table3` settings come from
//! `sprout_bench::settings`, the same functions those bins route with:
//! - `two_rail` at the default router settings;
//! - the `scaling` bench's seven tile pitches (0.8 … 0.16 mm);
//! - `table2` (Table II) and `table3` (Table III, SPROUT matching each
//!   manual route's realized area), with every SPROUT and manual route
//!   DRC-checked against the copper its engine claimed before it;
//! - six `two_rail` jobs at budgets 20/22/24 mm² through a one-worker
//!   `RoutingService` and a one-worker `FleetCoordinator` under
//!   `worker::fast_router()`.
//!
//! The Table III routes are shared with the paper's result-shape test
//! (`table3_rail_ordering_matches_the_paper`), so the six-rail board is
//! routed once per test binary.

use sprout_baseline::ManualRouter;
use sprout_bench::settings;
use sprout_board::{presets, Board, NetId};
use sprout_core::drc::check_route;
use sprout_core::router::{Router, RouterConfig};
use sprout_core::{RouteResult, RunReport};
use sprout_extract::ac::ac_impedance_25mhz;
use sprout_extract::network::RailNetwork;
use sprout_extract::resistance::dc_resistance;
use sprout_geom::Polygon;
use sprout_serve::fleet::{FleetConfig, FleetCoordinator};
use sprout_serve::job::{JobSpec, JobState};
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker;
use std::panic;
use std::path::PathBuf;
use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::Duration;

/// What a rail must report, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    solves: usize,
    factorizations: usize,
    factor_updates: usize,
    tile_rebuilds: usize,
    area_bits: u64,
}

fn counts(r: &RouteResult) -> Counts {
    Counts {
        solves: r.timings.solves,
        factorizations: r.timings.factorizations,
        factor_updates: r.timings.factor_updates,
        tile_rebuilds: r.timings.tile_rebuilds,
        area_bits: r.shape.area_mm2().to_bits(),
    }
}

/// Shorthand for an expected row.
const fn c(
    solves: usize,
    factorizations: usize,
    factor_updates: usize,
    tile_rebuilds: usize,
    area_bits: u64,
) -> Counts {
    Counts {
        solves,
        factorizations,
        factor_updates,
        tile_rebuilds,
        area_bits,
    }
}

/// The route has no DRC violation against the board and the copper its
/// engine claimed for earlier rails.
fn assert_drc_clean(
    board: &Board,
    engine: &str,
    net: NetId,
    layer: usize,
    route: &RouteResult,
    claimed: &[Polygon],
) {
    let violations = check_route(board, net, layer, &route.shape, claimed).unwrap();
    assert!(
        violations.is_empty(),
        "{engine} net {net:?} has DRC violations: {violations:?}"
    );
}

#[test]
fn two_rail_default_counts_are_exact() {
    let board = presets::two_rail();
    let router = Router::new(&board, RouterConfig::default());
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let requests: Vec<_> = board
        .power_nets()
        .zip([22.0, 20.0])
        .map(|((net, _), budget)| (net, layer, budget))
        .collect();
    let results = router.route_all(&requests).into_results().unwrap();
    let got: Vec<Counts> = results.iter().map(counts).collect();
    let want = vec![
        c(486, 46, 8, 1, 4626908185167900178),
        c(459, 43, 8, 1, 4626277681220068362),
    ];
    assert_eq!(got, want);
}

#[test]
fn scaling_pitch_counts_are_exact() {
    let board = presets::two_rail();
    let (vdd1, _) = board.power_nets().next().unwrap();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let want = vec![
        (0.8, c(216, 18, 6, 1, 4626998257160447595)),
        (0.6, c(306, 28, 6, 1, 4626975739162310735)),
        (0.5, c(333, 31, 6, 1, 4626885667169763328)),
        (0.4, c(432, 42, 6, 1, 4626908185167900178)),
        (0.3, c(459, 45, 6, 1, 4626899740918598856)),
        (0.22, c(513, 51, 6, 1, 4626891859619250987)),
        (0.16, c(603, 61, 6, 1, 4626890170769390803)),
    ];
    let got: Vec<(f64, Counts)> = settings::SCALING_PITCHES_MM
        .iter()
        .map(|&pitch| {
            let result = Router::new(&board, settings::scaling_router(pitch))
                .route_net(vdd1, layer, settings::SCALING_BUDGET_MM2)
                .unwrap();
            (pitch, counts(&result))
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn table2_counts_are_exact() {
    let board = presets::two_rail();
    let layer = presets::TWO_RAIL_ROUTE_LAYER;
    let config = settings::table2_router();
    let router = Router::new(&board, config);
    let manual = ManualRouter::new(&board, settings::manual_for(&config));
    // Each engine claims its own copper rail by rail, and every route
    // must be DRC-clean against what its engine claimed before it.
    let (mut claimed_sprout, mut claimed_manual) = (Vec::new(), Vec::new());
    let mut got = Vec::new();
    for ((net, _), budget) in board.power_nets().zip(settings::TABLE2_BUDGETS_MM2) {
        let s = router
            .route_net_with(net, layer, budget, &claimed_sprout, &[])
            .unwrap();
        let m = manual
            .route_net_with(net, layer, budget, &claimed_manual)
            .unwrap();
        assert_drc_clean(&board, "SPROUT", net, layer, &s, &claimed_sprout);
        assert_drc_clean(&board, "manual", net, layer, &m, &claimed_manual);
        claimed_sprout.extend(s.shape.blocker_polygons());
        claimed_manual.extend(m.shape.blocker_polygons());
        got.push(counts(&s));
    }
    let want = vec![
        c(621, 59, 10, 1, 4626899740918598857),
        c(585, 55, 10, 1, 4626348049964245977),
    ];
    assert_eq!(got, want);
}

/// One Table III rail: SPROUT's counts and both engines' extraction.
#[derive(Debug)]
struct Table3Rail {
    net: String,
    counts: Counts,
    /// SPROUT (R_dc Ω, L@25 MHz H).
    sprout: (f64, f64),
    /// Manual baseline (R_dc Ω, L@25 MHz H).
    manual: (f64, f64),
}

fn extract(board: &Board, route: &RouteResult) -> (f64, f64) {
    let network = RailNetwork::build(board, route).unwrap();
    let dc = dc_resistance(&network).unwrap();
    let ac = ac_impedance_25mhz(&network).unwrap();
    (dc.total_ohm, ac.inductance_h)
}

/// Table III at the `table3` bench's settings, routed once per test
/// binary: manual first at `16 + 1.8·I` mm², then SPROUT at the manual
/// route's realized area, each engine claiming its own copper. A
/// checker thread DRC-checks both routes of a rail against the copper
/// claimed before them, and extracts them, while this thread routes the
/// next rail.
fn table3() -> &'static [Table3Rail] {
    static ROUTES: OnceLock<Vec<Table3Rail>> = OnceLock::new();
    ROUTES.get_or_init(|| {
        let board = presets::six_rail();
        let layer = presets::TEN_LAYER_ROUTE_LAYER;
        let config = settings::table3_router();
        let router = Router::new(&board, config);
        let manual = ManualRouter::new(&board, settings::manual_for(&config));
        // (net, name, manual route, copper claimed before it, SPROUT
        // route, copper claimed before it)
        type Routed = (
            NetId,
            String,
            RouteResult,
            Vec<Polygon>,
            RouteResult,
            Vec<Polygon>,
        );
        let (tx, rx) = mpsc::channel::<Routed>();
        thread::scope(|scope| {
            let board = &board;
            let checker = scope.spawn(move || {
                rx.into_iter()
                    .map(|(net_id, net, m, before_m, s, before_s)| {
                        assert_drc_clean(board, "manual", net_id, layer, &m, &before_m);
                        assert_drc_clean(board, "SPROUT", net_id, layer, &s, &before_s);
                        Table3Rail {
                            net,
                            counts: counts(&s),
                            sprout: extract(board, &s),
                            manual: extract(board, &m),
                        }
                    })
                    .collect()
            });
            let (mut claimed_sprout, mut claimed_manual) = (Vec::new(), Vec::new());
            for (net_id, net) in board.power_nets() {
                let m = manual
                    .route_net_with(
                        net_id,
                        layer,
                        settings::table3_manual_budget_mm2(net.current_a),
                        &claimed_manual,
                    )
                    .unwrap();
                let before_m = claimed_manual.clone();
                claimed_manual.extend(m.shape.blocker_polygons());
                let s = router
                    .route_net_with(net_id, layer, m.shape.area_mm2(), &claimed_sprout, &[])
                    .unwrap();
                let before_s = claimed_sprout.clone();
                claimed_sprout.extend(s.shape.blocker_polygons());
                if tx
                    .send((net_id, net.name.clone(), m, before_m, s, before_s))
                    .is_err()
                {
                    break; // the checker panicked; its join re-raises it
                }
            }
            drop(tx);
            checker.join().unwrap_or_else(|e| panic::resume_unwind(e))
        })
    })
}

#[test]
fn table3_counts_are_exact() {
    let got: Vec<(&str, Counts)> = table3()
        .iter()
        .map(|r| (r.net.as_str(), r.counts))
        .collect();
    let want = vec![
        ("VDD1", c(3723, 67, 6, 1, 4626797296552670234)),
        ("V2", c(4182, 76, 6, 1, 4627785197343200985)),
        ("V3", c(3570, 64, 6, 1, 4627018217908906904)),
        ("V4", c(3009, 53, 6, 1, 4626243427653180320)),
        ("V5", c(3060, 54, 6, 1, 4626248049663635250)),
        ("V6", c(4131, 75, 6, 1, 4627477426129744486)),
    ];
    assert_eq!(got, want);
}

/// The nets holding the two lowest and the two highest values of
/// `key`, each pair sorted by name.
fn extremes(key: impl Fn(&Table3Rail) -> f64) -> ([&'static str; 2], [&'static str; 2]) {
    let mut rails: Vec<&'static Table3Rail> = table3().iter().collect();
    rails.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let pair = |a: &'static Table3Rail, b: &'static Table3Rail| {
        let mut p = [a.net.as_str(), b.net.as_str()];
        p.sort_unstable();
        p
    };
    let n = rails.len();
    (pair(rails[0], rails[1]), pair(rails[n - 2], rails[n - 1]))
}

/// Table III's shape (DESIGN.md §8): the high-current rails V2/V6 have
/// the lowest R and L, the low-current V4/V5 the highest, and SPROUT is
/// never worse than the manual layout at equal area. Orderings only —
/// the absolute values belong to the synthetic board.
#[test]
fn table3_rail_ordering_matches_the_paper() {
    for (what, key) in [
        ("R", (|r: &Table3Rail| r.sprout.0) as fn(&Table3Rail) -> f64),
        ("L", |r: &Table3Rail| r.sprout.1),
    ] {
        let (lowest, highest) = extremes(key);
        assert_eq!(lowest, ["V2", "V6"], "lowest SPROUT {what}");
        assert_eq!(highest, ["V4", "V5"], "highest SPROUT {what}");
    }
    for r in table3() {
        assert!(
            r.sprout.0 <= r.manual.0,
            "{}: SPROUT R {:e} above manual {:e}",
            r.net,
            r.sprout.0,
            r.manual.0
        );
        assert!(
            r.sprout.1 <= r.manual.1,
            "{}: SPROUT L {:e} above manual {:e}",
            r.net,
            r.sprout.1,
            r.manual.1
        );
    }
}

/// The served mix: two-rail jobs at budgets 20/22/24, twice over.
fn served_specs() -> Vec<JobSpec> {
    [20.0, 22.0, 24.0, 20.0, 22.0, 24.0]
        .into_iter()
        .map(JobSpec::two_rail)
        .collect()
}

/// Per-job (solves, total area bits) for the served mix.
const SERVED_JOBS: [(u64, u64); 6] = [
    (198, 4630826316843712512),
    (234, 4631389266797133824),
    (270, 4631952216750555136),
    (198, 4630826316843712512),
    (234, 4631389266797133824),
    (270, 4631952216750555136),
];

#[test]
fn service_job_counts_are_exact() {
    let service = RoutingService::start(ServiceConfig {
        workers: 1,
        router: worker::fast_router(),
        keep_reports: true,
        ..ServiceConfig::default()
    })
    .unwrap();
    let ids: Vec<u64> = served_specs()
        .into_iter()
        .map(|spec| service.submit(spec).unwrap())
        .collect();
    assert!(service.wait_idle(Duration::from_secs(600)));
    let jobs: Vec<(u64, u64)> = ids
        .iter()
        .map(|&id| {
            let snap = service.status(id).unwrap();
            assert_eq!(snap.state, JobState::Completed, "job {id}");
            (snap.solves, snap.area_mm2.to_bits())
        })
        .collect();
    assert_eq!(service.metrics().terminal_violations, 0);
    let mut reports: Vec<RunReport> = service.take_reports();
    service.shutdown(true);
    reports.sort_by(|a, b| a.label.cmp(&b.label));
    let rails: Vec<(&str, Vec<Counts>)> = reports
        .iter()
        .map(|report| {
            let rails = report
                .rails
                .iter()
                .map(|r| {
                    c(
                        r.solves,
                        r.factorizations,
                        r.factor_updates,
                        r.tile_rebuilds,
                        r.area_mm2.to_bits(),
                    )
                })
                .collect();
            (report.label.as_str(), rails)
        })
        .collect();
    assert_eq!(jobs, SERVED_JOBS);
    // Each rail ships exactly its budget: 20, 22 and 24 mm².
    let (a20, a22, a24) = (
        4626322717216342016,
        4626885667169763328,
        4627448617123184640,
    );
    // The worker's tiling cache: rail 1's space is the same at every
    // budget, and a repeated budget repeats rail 2's space too.
    let want = vec![
        (
            "serve-job-1",
            vec![c(99, 9, 2, 1, a20), c(99, 9, 2, 1, a20)],
        ),
        (
            "serve-job-2",
            vec![c(117, 11, 2, 0, a22), c(117, 11, 2, 1, a22)],
        ),
        (
            "serve-job-3",
            vec![c(135, 13, 2, 0, a24), c(135, 13, 2, 1, a24)],
        ),
        (
            "serve-job-4",
            vec![c(99, 9, 2, 0, a20), c(99, 9, 2, 0, a20)],
        ),
        (
            "serve-job-5",
            vec![c(117, 11, 2, 0, a22), c(117, 11, 2, 0, a22)],
        ),
        (
            "serve-job-6",
            vec![c(135, 13, 2, 0, a24), c(135, 13, 2, 0, a24)],
        ),
    ];
    assert_eq!(rails, want);
}

#[test]
fn fleet_job_counts_are_exact() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprout-exact-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = FleetCoordinator::start(FleetConfig {
        workers: 1,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
        worker_args: vec!["--router".into(), "fast".into()],
        data_dir: Some(dir.clone()),
        ..FleetConfig::default()
    })
    .unwrap();
    let ids: Vec<u64> = served_specs()
        .into_iter()
        .map(|spec| fleet.submit(spec).unwrap())
        .collect();
    assert!(fleet.wait_idle(Duration::from_secs(600)));
    let jobs: Vec<(u64, u64)> = ids
        .iter()
        .map(|&id| {
            let snap = fleet.status(id).unwrap();
            assert_eq!(snap.state, JobState::Completed, "job {id}");
            (snap.solves, snap.area_mm2.to_bits())
        })
        .collect();
    assert_eq!(fleet.metrics().terminal_violations, 0);
    fleet.drain(Duration::from_secs(30));
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(jobs, SERVED_JOBS);
}
