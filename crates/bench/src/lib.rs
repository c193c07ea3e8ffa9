//! # sprout-bench
//!
//! Experiment harness regenerating every table and figure of the SPROUT
//! paper's evaluation (§III), plus micro-benchmarks for the §II-H
//! runtime analysis timed by the in-tree [`timing`] module.
//!
//! Experiment binaries (run with `--release`):
//!
//! * `table2` — two-rail manual-vs-SPROUT comparison (Table II, Fig. 9).
//! * `table3` — six-rail comparison with stage timings (Table III,
//!   Fig. 10, §III-B runtime).
//! * `fig12`  — the nine-prototype area/impedance trade-off across the
//!   Table IV schedule (Figs. 11, 12a-d).
//! * `ablation` — design-choice ablations: void filling, reheating,
//!   refinement schedule, pair policy.
//! * `scaling` — tile-pitch sweep measuring the §II-H complexity
//!   exponent.
//!
//! Pass `--svg` to `table2`, `table3`, or `fig12` to also write Fig. 9 /
//! Fig. 10 / Fig. 11-style SVGs under `target/experiments/`.

pub mod settings;
pub mod timing;

use sprout_board::Board;
use sprout_core::router::RouteResult;
use sprout_core::RunReport;
use sprout_extract::ac::ac_impedance_25mhz;
use sprout_extract::network::RailNetwork;
use sprout_extract::resistance::dc_resistance;
use sprout_observe::TraceSink;
use sprout_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Output controller shared by every experiment binary.
///
/// Flags parsed from the command line:
///
/// * `--quiet` / `-q` — suppress the human-readable tables and prose.
/// * `--json` — emit one [`RunReport`] JSONL line per run to stdout
///   (implies `--quiet`, so stdout stays pure JSONL).
/// * `--trace` — stream the telemetry span tree to stderr while the
///   run executes *and* capture convergence points in a
///   [`TraceSink`]; [`finish`](BenchOutput::finish) exports them as
///   `target/experiments/<name>_trace.jsonl`.
/// * `--profile <base>` — capture a thread timeline of the run with
///   the [`telemetry::prof`] profiler and export it as
///   `<base>.trace.json` (Chrome trace-event JSON, loadable in
///   `chrome://tracing` / Perfetto) plus `<base>.folded`
///   (collapsed stacks for flamegraph tooling). Binaries that run
///   several configurations export per-configuration files via
///   [`export_profile`] instead, suffixing `<base>`.
///
/// Run reports are *always* mirrored to
/// `target/experiments/<name>.jsonl`, regardless of flags, so every
/// invocation leaves a machine-readable artifact behind.
pub struct BenchOutput {
    quiet: bool,
    json: bool,
    written: RefCell<HashSet<PathBuf>>,
    trace_sink: Option<Arc<TraceSink>>,
    profile: Option<PathBuf>,
    profiler: RefCell<Option<telemetry::prof::Profiler>>,
    // Declared before `_trace`: scopes pop LIFO, and the profiler
    // scope is installed after (on top of) the trace scope.
    prof_scope: RefCell<Option<telemetry::RecorderScope>>,
    _trace: Option<telemetry::RecorderScope>,
}

impl BenchOutput {
    /// Parses the process arguments.
    pub fn from_args() -> BenchOutput {
        Self::from_flags(std::env::args().skip(1))
    }

    /// Parses an explicit flag list (for tests).
    pub fn from_flags(args: impl IntoIterator<Item = String>) -> BenchOutput {
        let (mut quiet, mut json, mut trace) = (false, false, false);
        let mut profile = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quiet" | "-q" => quiet = true,
                "--json" => json = true,
                "--trace" => trace = true,
                "--profile" => profile = args.next().map(PathBuf::from),
                _ => {}
            }
        }
        let trace_sink = trace.then(|| Arc::new(TraceSink::new()));
        let _trace = trace_sink.as_ref().map(|sink| {
            telemetry::RecorderScope::install(Arc::new(telemetry::sinks::TeeSink::new(vec![
                Arc::new(telemetry::sinks::StderrSink::new()),
                sink.clone(),
            ])))
        });
        let out = BenchOutput {
            quiet: quiet || json,
            json,
            written: RefCell::new(HashSet::new()),
            trace_sink,
            profile,
            profiler: RefCell::new(None),
            prof_scope: RefCell::new(None),
            _trace,
        };
        if out.profile.is_some() {
            out.ensure_profiler();
        }
        out
    }

    /// The active profiler, creating and installing one if none exists
    /// yet. `--profile` installs it eagerly; binaries that need capture
    /// without an export path (`supervisor --scaling-gate`) call this
    /// directly. The profiler's recorder chains to whatever recorder
    /// was already current (the `--trace` tee keeps working).
    pub fn ensure_profiler(&self) -> telemetry::prof::Profiler {
        if let Some(p) = self.profiler.borrow().as_ref() {
            return p.clone();
        }
        let p = telemetry::prof::Profiler::new();
        let scope = telemetry::RecorderScope::install(p.recorder(telemetry::current()));
        *self.prof_scope.borrow_mut() = Some(scope);
        *self.profiler.borrow_mut() = Some(p.clone());
        p
    }

    /// The profiler, when one was installed.
    pub fn profiler(&self) -> Option<telemetry::prof::Profiler> {
        self.profiler.borrow().clone()
    }

    /// The `--profile` export base path, when given.
    pub fn profile_base(&self) -> Option<&PathBuf> {
        self.profile.as_ref()
    }

    /// `true` when human-readable output should be printed.
    pub fn verbose(&self) -> bool {
        !self.quiet
    }

    /// `true` when `--json` was requested.
    pub fn json(&self) -> bool {
        self.json
    }

    /// The convergence-trace sink, when `--trace` is active.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace_sink.as_ref()
    }

    /// Emits `report` as one JSONL line: to stdout when `--json` is on,
    /// and always appended to `target/experiments/<name>.jsonl` (the
    /// file is truncated on this instance's first write, so each
    /// invocation starts a fresh artifact).
    pub fn emit_report(&self, name: &str, report: &RunReport) {
        let line = report.to_json();
        if self.json {
            println!("{line}");
        }
        let path = experiments_dir().join(format!("{name}.jsonl"));
        let fresh = self.written.borrow_mut().insert(path.clone());
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(!fresh)
            .truncate(fresh)
            .write(true)
            .open(&path);
        if let Ok(mut f) = file {
            let _ = writeln!(f, "{line}");
        }
    }

    /// End-of-run hook for experiment binaries: exports the convergence
    /// trace (under `--trace`) and the thread timeline (under
    /// `--profile`).
    ///
    /// # Errors
    ///
    /// I/O errors writing the trace or profile files.
    pub fn finish(&self, name: &str) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(sink) = &self.trace_sink {
            let path = experiments_dir().join(format!("{name}_trace.jsonl"));
            sink.write_to(&path)?;
            if self.verbose() {
                println!(
                    "convergence trace: {} ({} records)",
                    path.display(),
                    sink.len()
                );
            }
        }
        if let Some(base) = &self.profile {
            let timeline = self.profiler.borrow().as_ref().map(|p| p.drain());
            if let Some(t) = timeline.filter(|t| !t.is_empty()) {
                let (trace, folded) = export_profile(base, "", &t)?;
                if self.verbose() {
                    println!(
                        "profile: {} ({} slices) / {}",
                        trace.display(),
                        t.slice_count(),
                        folded.display()
                    );
                }
            }
        }
        Ok(())
    }
}

/// Exports a drained [`telemetry::prof::Timeline`] as
/// `<base><suffix>.trace.json` (Chrome trace-event JSON) and
/// `<base><suffix>.folded` (collapsed stacks), creating parent
/// directories as needed.
///
/// # Errors
///
/// I/O errors creating or writing either file.
pub fn export_profile(
    base: &std::path::Path,
    suffix: &str,
    timeline: &telemetry::prof::Timeline,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let trace = PathBuf::from(format!("{}{suffix}.trace.json", base.display()));
    let folded = PathBuf::from(format!("{}{suffix}.folded", base.display()));
    if let Some(dir) = trace.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&trace, telemetry::prof::chrome_trace(timeline))?;
    std::fs::write(&folded, telemetry::prof::collapsed_stacks(timeline))?;
    Ok((trace, folded))
}

// Opt-in allocation attribution: linking the counting shim as the
// global allocator is what turns the profiler's alloc columns on.
#[cfg(feature = "prof-alloc")]
#[global_allocator]
static PROF_ALLOC: telemetry::prof::alloc::CountingAlloc = telemetry::prof::alloc::CountingAlloc;

/// `println!` gated on [`BenchOutput::verbose`] — the drop-in
/// replacement for ad-hoc prints in experiment binaries.
#[macro_export]
macro_rules! outln {
    ($out:expr) => { if $out.verbose() { println!(); } };
    ($out:expr, $($arg:tt)*) => { if $out.verbose() { println!($($arg)*); } };
}

/// One extracted row of a comparison table.
#[derive(Debug, Clone)]
pub struct ExtractedRow {
    /// Net name.
    pub net: String,
    /// Engine name (`SPROUT` / `manual`).
    pub engine: &'static str,
    /// Realized metal area (mm²).
    pub area_mm2: f64,
    /// DC resistance (Ω).
    pub resistance_ohm: f64,
    /// Loop inductance at 25 MHz (H).
    pub inductance_h: f64,
}

/// Extracts one routed result into a table row.
///
/// # Errors
///
/// Propagates extraction failures.
pub fn extract_row(
    board: &Board,
    net_name: &str,
    engine: &'static str,
    route: &RouteResult,
) -> Result<ExtractedRow, sprout_extract::ExtractError> {
    let network = RailNetwork::build(board, route)?;
    let dc = dc_resistance(&network)?;
    let ac = ac_impedance_25mhz(&network)?;
    Ok(ExtractedRow {
        net: net_name.to_owned(),
        engine,
        area_mm2: route.shape.area_mm2(),
        resistance_ohm: dc.total_ohm,
        inductance_h: ac.inductance_h,
    })
}

/// Prints a Table II/III-shaped comparison. Values are normalized the
/// way the paper normalizes: the *manual* layout of the first net
/// anchors the scales (its inductance defines "100", its resistance
/// defines the paper's first-row value).
pub fn print_comparison(
    out: &BenchOutput,
    rows: &[ExtractedRow],
    anchor_r_mohm: f64,
    anchor_l: f64,
) {
    if !out.verbose() {
        return;
    }
    let anchor = rows
        .iter()
        .find(|r| r.engine == "manual")
        .or_else(|| rows.first())
        .expect("at least one row");
    let l_scale = anchor_l / anchor.inductance_h;
    let r_scale = anchor_r_mohm / (anchor.resistance_ohm * 1e3);
    println!(
        "{:<8} {:<8} {:>9} {:>11} {:>9} {:>12} {:>10}",
        "net", "engine", "area mm²", "R_dc mΩ", "R_norm", "L@25MHz pH", "L_norm"
    );
    for r in rows {
        println!(
            "{:<8} {:<8} {:>9.1} {:>11.2} {:>9.1} {:>12.1} {:>10.1}",
            r.net,
            r.engine,
            r.area_mm2,
            r.resistance_ohm * 1e3,
            r.resistance_ohm * 1e3 * r_scale,
            r.inductance_h * 1e12,
            r.inductance_h * l_scale,
        );
    }
}

/// Output directory for experiment artifacts.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// `true` when `--svg` was passed on the command line.
pub fn svg_requested() -> bool {
    std::env::args().any(|a| a == "--svg")
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the complexity
/// exponent estimator for the §II-H scaling study.
///
/// # Panics
///
/// Panics when fewer than two points are supplied.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let lx = x.ln();
        let ly = y.ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_power_law() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|k| {
                let x = k as f64 * 100.0;
                (x, 3.0 * x.powf(1.7))
            })
            .collect();
        let q = log_log_slope(&pts);
        assert!((q - 1.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn slope_needs_points() {
        let _ = log_log_slope(&[(1.0, 1.0)]);
    }
}
