//! Service load bench: routing throughput through the full
//! `sprout-serve` stack — admission, queueing, supervision, journaling.
//!
//! ```text
//! cargo run -p sprout-bench --release --bin serve_load [--json] [--quiet]
//!     [--baseline FILE [--update-baseline]] [--wall-tolerance PCT]
//! ```
//!
//! Submits a fixed budget sweep of two-rail jobs to an in-process
//! [`RoutingService`] at 1 and 2 workers, waits for every terminal
//! state, and writes a `BENCH_serve_load.json` summary to
//! `target/experiments/`. The single-worker run's per-job
//! [`RunReport`]s feed the perf-baseline gate: their solve counts are
//! deterministic, so a committed baseline catches algorithmic
//! regressions anywhere in the service path, on any hardware.
//!
//! The run doubles as a smoke check: any lost job, failed job, or
//! terminal-state violation exits nonzero.

use sprout_bench::{experiments_dir, outln, BenchOutput};
use sprout_core::recovery::{RecoveryConfig, RecoveryPolicy, StageBudget};
use sprout_core::router::RouterConfig;
use sprout_serve::job::JobSpec;
use sprout_serve::service::{RoutingService, ServiceConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const JOBS: usize = 6;

fn bench_router(out: &BenchOutput) -> RouterConfig {
    RouterConfig {
        tile_pitch_mm: 0.5,
        grow_iterations: 8,
        refine_iterations: 2,
        reheat: None,
        recovery: RecoveryConfig {
            policy: RecoveryPolicy::BestSoFar,
            budget: StageBudget::default(),
            fault: None,
        },
        tile: out.tile_config(),
        ..RouterConfig::default()
    }
}

struct Row {
    workers: usize,
    wall_ms: f64,
    boards_per_s: f64,
    completed: u64,
    p50_ms: f64,
    p99_ms: f64,
    qw50_ms: f64,
    qw99_ms: f64,
    violations: u64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = BenchOutput::from_args();

    outln!(out, "=== serve_load: {JOBS} jobs through the service ===");
    outln!(
        out,
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "workers",
        "wall ms",
        "boards/s",
        "completed",
        "p50 ms",
        "p99 ms",
        "qw50 ms",
        "qw99 ms"
    );

    let mut rows: Vec<Row> = Vec::new();
    for workers in [1usize, 2] {
        let service = RoutingService::start(ServiceConfig {
            workers,
            queue_capacity: JOBS + 2,
            router: bench_router(&out),
            keep_reports: true,
            ..ServiceConfig::default()
        })?;
        let t0 = Instant::now();
        for k in 0..JOBS {
            // Budgets all comfortably routable on the two_rail preset.
            let budget = 20.0 + (k % 3) as f64 * 2.0;
            service.submit(JobSpec::two_rail(budget))?;
        }
        if !service.wait_idle(Duration::from_secs(600)) {
            return Err("serve_load: jobs did not settle within 600 s".into());
        }
        service.shutdown(true);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let m = service.metrics();
        let row = Row {
            workers,
            wall_ms,
            boards_per_s: JOBS as f64 / (wall_ms / 1e3).max(1e-9),
            completed: m.completed,
            p50_ms: m.latency_p50_ms,
            p99_ms: m.latency_p99_ms,
            qw50_ms: m.queue_wait_p50_ms,
            qw99_ms: m.queue_wait_p99_ms,
            violations: m.terminal_violations,
        };
        outln!(
            out,
            "{:>8} {:>10.1} {:>10.2} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            row.workers,
            row.wall_ms,
            row.boards_per_s,
            row.completed,
            row.p50_ms,
            row.p99_ms,
            row.qw50_ms,
            row.qw99_ms
        );

        // Only the single-worker run feeds the gate: its job labels are
        // unique and its solve counts deterministic. The two-worker run
        // re-uses job ids 1..JOBS in a fresh service, which would
        // collide in the baseline.
        if workers == 1 {
            let mut reports = service.take_reports();
            reports.sort_by(|a, b| a.label.cmp(&b.label));
            for report in &reports {
                out.emit_report("serve_load", report);
            }
        }
        rows.push(row);
    }

    // Hand-rolled JSON: the workspace is dependency-free by design.
    let mut json = String::from("{\n  \"bench\": \"serve_load\",\n");
    let _ = writeln!(json, "  \"jobs\": {JOBS},");
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"wall_ms\": {:.3}, \"boards_per_s\": {:.3}, \
             \"completed\": {}, \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
             \"queue_wait_p50_ms\": {:.3}, \"queue_wait_p99_ms\": {:.3}, \
             \"terminal_violations\": {}}}{}",
            r.workers,
            r.wall_ms,
            r.boards_per_s,
            r.completed,
            r.p50_ms,
            r.p99_ms,
            r.qw50_ms,
            r.qw99_ms,
            r.violations,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = experiments_dir().join("BENCH_serve_load.json");
    std::fs::write(&path, &json)?;
    outln!(out, "wrote {}", path.display());

    out.finish("serve_load")?;

    let broken: Vec<&Row> = rows
        .iter()
        .filter(|r| r.completed != JOBS as u64 || r.violations > 0)
        .collect();
    if !broken.is_empty() {
        return Err(format!(
            "{} run(s) lost jobs or broke the terminal-state invariant",
            broken.len()
        )
        .into());
    }
    Ok(())
}
