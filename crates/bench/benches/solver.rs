//! Benches for the linear-solver kernels — the §II-H bottleneck ("up to
//! 90 % of the total runtime"). Plain harness (no `criterion` offline).

use sprout_bench::timing::bench;
use sprout_linalg::cg::{solve_cg, CgOptions};
use sprout_linalg::cholesky::SparseCholesky;
use sprout_linalg::fallback::{build_grounded_solver, FallbackOptions};
use sprout_linalg::laplacian::GraphLaplacian;
use sprout_linalg::ldlt::EnvelopeLdlt;
use sprout_linalg::{Complex, Csr, Triplets};

/// Grounded Laplacian of a w×w grid (the tile-graph structure).
fn grid_laplacian(w: usize) -> Csr<f64> {
    let n = w * w;
    let idx = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..w {
        for x in 0..w {
            if x + 1 < w {
                edges.push((idx(x, y), idx(x + 1, y), 1.0));
            }
            if y + 1 < w {
                edges.push((idx(x, y), idx(x, y + 1), 1.0));
            }
        }
    }
    GraphLaplacian::from_edges(n, &edges)
        .expect("valid grid")
        .grounded(0)
        .expect("valid ground")
}

fn bench_cholesky() {
    for w in [16usize, 32, 48] {
        let a = grid_laplacian(w);
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        bench(&format!("cholesky_factor/{}", w * w), || {
            SparseCholesky::factor(&a).expect("SPD")
        });
        let chol = SparseCholesky::factor(&a).expect("SPD");
        bench(&format!("cholesky_solve/{}", w * w), || {
            chol.solve(&b).expect("solve")
        });
    }
}

fn bench_fallback_ladder() {
    // The resilient entry point must cost ≈ the plain factorization on
    // healthy inputs (first rung succeeds immediately).
    for w in [16usize, 32] {
        let a = grid_laplacian(w);
        bench(&format!("fallback_build/{}", w * w), || {
            build_grounded_solver(&a, FallbackOptions::default()).expect("healthy input")
        });
    }
}

fn bench_cg() {
    for w in [16usize, 32, 48] {
        let a = grid_laplacian(w);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| if i == 0 { 1.0 } else { 0.0 })
            .collect();
        bench(&format!("cg_solve/{}", w * w), || {
            solve_cg(&a, &b, CgOptions::default()).expect("converges")
        });
    }
}

fn bench_ldlt_complex() {
    for n in [256usize, 1024] {
        let mut t = Triplets::<Complex>::new(n, n);
        let y = Complex::new(1.0, 0.4);
        for i in 0..n {
            t.push(i, i, y * 2.0 + Complex::new(0.05, 0.0))
                .expect("in bounds");
            if i + 1 < n {
                t.push(i, i + 1, -y).expect("in bounds");
                t.push(i + 1, i, -y).expect("in bounds");
            }
        }
        let a = t.to_csr();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.2))
            .collect();
        bench(&format!("ldlt_complex/{n}"), || {
            EnvelopeLdlt::factor(&a)
                .and_then(|f| f.solve(&b))
                .expect("nonsingular")
        });
    }
}

fn main() {
    bench_cholesky();
    bench_fallback_ladder();
    bench_cg();
    bench_ldlt_complex();
}
