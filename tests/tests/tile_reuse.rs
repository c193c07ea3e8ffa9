//! Tiling reuse across jobs: a `RoutingService` keeps one tiling cache
//! for its lifetime, so a repeat board skips tiling, routes exactly as a
//! fresh supervisor does, and the cache stays within its graph cap
//! however many distinct boards pass through. A `Router` likewise tiles
//! every `route_all` call through its own cache, and a space it has
//! tiled before gets the very same shared graph.

use sprout_board::presets::{self, TWO_RAIL_ROUTE_LAYER};
use sprout_core::router::Router;
use sprout_core::supervisor::{Supervisor, SupervisorConfig};
use sprout_core::TILE_CACHE_CAP;
use sprout_serve::job::{BoardSpec, JobSpec, JobState, RailSpec};
use sprout_serve::service::{RoutingService, ServiceConfig};
use sprout_serve::worker::fast_router;
use std::sync::Arc;
use std::time::Duration;

fn random_job(seed: u64) -> JobSpec {
    JobSpec {
        board: BoardSpec::Random { seed, nets: 1 },
        rails: vec![RailSpec {
            net: 0,
            layer: TWO_RAIL_ROUTE_LAYER,
            budget_mm2: 22.0,
        }],
        ..JobSpec::two_rail(0.0)
    }
}

#[test]
fn a_repeat_board_skips_tiling_and_routes_as_a_fresh_supervisor() {
    let svc = RoutingService::start(ServiceConfig {
        workers: 2,
        router: fast_router(),
        keep_reports: true,
        ..ServiceConfig::default()
    })
    .expect("service start");
    // One at a time, so the repeat job finds the first job's graphs.
    let mut ids = Vec::new();
    for _ in 0..2 {
        ids.push(svc.submit(JobSpec::two_rail(20.0)).expect("accepted"));
        assert!(
            svc.wait_idle(Duration::from_secs(120)),
            "job did not settle"
        );
    }
    let reports = svc.take_reports();
    svc.shutdown(true);

    assert_eq!(reports.len(), 2);
    let tiling = |i: usize| -> Vec<(usize, usize)> {
        reports[i]
            .rails
            .iter()
            .map(|r| (r.tile_rebuilds, r.tile_reuses))
            .collect()
    };
    assert_eq!(tiling(0), [(1, 0), (1, 0)], "first job tiles both rails");
    assert_eq!(tiling(1), [(0, 1), (0, 1)], "repeat job reuses both");

    let spec = JobSpec::two_rail(20.0);
    let board = spec.resolve_board().unwrap();
    let requests = spec.requests(&board).unwrap();
    let fresh = Supervisor::new(
        &board,
        fast_router(),
        SupervisorConfig {
            threads: 1,
            ..SupervisorConfig::default()
        },
    )
    .run(&requests);
    assert!(fresh.is_complete());
    let area: f64 = fresh.shapes().iter().map(|(_, _, s)| s.area_mm2()).sum();
    let solves: u64 = fresh.results().map(|r| r.timings.solves as u64).sum();
    for id in ids {
        let snap = svc.status(id).expect("known job");
        assert_eq!(snap.state, JobState::Completed);
        assert_eq!(
            (snap.area_mm2.to_bits(), snap.solves),
            (area.to_bits(), solves),
            "job {id}"
        );
    }
}

#[test]
fn distinct_boards_keep_the_cache_within_its_cap() {
    let svc = RoutingService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        router: fast_router(),
        ..ServiceConfig::default()
    })
    .expect("service start");
    // Each single-net random board is one space, so one graph.
    for seed in 0..200 {
        svc.submit(random_job(1_000 + seed)).expect("accepted");
        assert!(svc.tile_cache().len() <= TILE_CACHE_CAP);
    }
    assert!(
        svc.wait_idle(Duration::from_secs(300)),
        "jobs did not settle"
    );
    assert_eq!(svc.tile_cache().len(), TILE_CACHE_CAP);
    svc.shutdown(true);
}

#[test]
fn repeated_route_all_reuses_the_routers_own_tiling() {
    // Two prototypes of one board, as an exploration sweep routes them:
    // the second call's first rail starts from the same empty space.
    let board = presets::two_rail();
    let nets: Vec<_> = board.power_nets().map(|(id, _)| id).collect();
    let layer = TWO_RAIL_ROUTE_LAYER;
    let first = [(nets[0], layer, 20.0), (nets[1], layer, 20.0)];
    let second = [(nets[0], layer, 24.0), (nets[1], layer, 22.0)];

    let router = Router::new(&board, fast_router());
    assert!(router.route_all(&first).is_complete());
    let reused = router.route_all(&second);
    let fresh = Router::new(&board, fast_router()).route_all(&second);
    assert!(reused.is_complete() && fresh.is_complete());

    let reused: Vec<_> = reused.results().collect();
    let fresh: Vec<_> = fresh.results().collect();
    assert_eq!(
        (
            reused[0].timings.tile_rebuilds,
            reused[0].timings.tile_reuses
        ),
        (0, 1),
        "the second call's first rail reuses the first call's lattice"
    );
    assert_eq!(fresh[0].timings.tile_rebuilds, 1);
    assert_eq!(reused.len(), fresh.len());
    for (r, f) in reused.iter().zip(&fresh) {
        assert_eq!(
            (r.shape.area_mm2().to_bits(), r.timings.solves),
            (f.shape.area_mm2().to_bits(), f.timings.solves),
            "net {:?}",
            r.net
        );
    }
}

#[test]
fn a_repeated_budget_shares_the_first_calls_graphs() {
    // Budgets A, B, A: the second rail's space holds the first rail's
    // copper, so it differs between A and B; the third call repeats the
    // first call's spaces exactly and must share its graphs.
    let board = presets::two_rail();
    let nets: Vec<_> = board.power_nets().map(|(id, _)| id).collect();
    let layer = TWO_RAIL_ROUTE_LAYER;
    let a = [(nets[0], layer, 20.0), (nets[1], layer, 20.0)];
    let b = [(nets[0], layer, 24.0), (nets[1], layer, 22.0)];

    let router = Router::new(&board, fast_router());
    let first = router.route_all(&a);
    assert!(router.route_all(&b).is_complete());
    let third = router.route_all(&a);
    let fresh = Router::new(&board, fast_router()).route_all(&a);
    assert!(first.is_complete() && third.is_complete() && fresh.is_complete());

    let first: Vec<_> = first.results().collect();
    let third: Vec<_> = third.results().collect();
    let fresh: Vec<_> = fresh.results().collect();
    assert_eq!(third.len(), fresh.len());
    for ((t, f), fr) in third.iter().zip(&first).zip(&fresh) {
        assert!(Arc::ptr_eq(&t.graph, &f.graph), "net {:?}", t.net);
        assert_eq!((t.timings.tile_rebuilds, t.timings.tile_reuses), (0, 1));
        assert_eq!(
            (t.shape.area_mm2().to_bits(), t.timings.solves),
            (fr.shape.area_mm2().to_bits(), fr.timings.solves),
            "net {:?}",
            t.net
        );
    }
}
