//! Property-based tests for the linear algebra substrate.
//!
//! Seeded deterministic sweeps (the offline crate set has no
//! `proptest`); each case prints its seed on failure.

use sprout_linalg::cg::{solve_cg, CgOptions};
use sprout_linalg::cholesky::SparseCholesky;
use sprout_linalg::dense::DenseMatrix;
use sprout_linalg::laplacian::GraphLaplacian;
use sprout_linalg::ldlt::EnvelopeLdlt;
use sprout_linalg::{Csr, Triplets};
use sprout_rng::SproutRng;

const CASES: u64 = 48;

/// Random connected graph: a random path-spanning-tree plus extra edges.
fn random_connected_graph(rng: &mut SproutRng) -> (usize, Vec<(usize, usize, f64)>) {
    let n = rng.usize_range(3, 40);
    let mut edges: Vec<(usize, usize, f64)> = (0..n - 1)
        .map(|i| (i, i + 1, rng.f64_range(0.1, 10.0)))
        .collect();
    let extras = rng.usize_below(n);
    for _ in 0..extras {
        let u = rng.usize_below(n);
        let v = rng.usize_below(n);
        if u != v {
            edges.push((u.min(v), u.max(v), rng.f64_range(0.1, 10.0)));
        }
    }
    (n, edges)
}

/// Converts a grounded Laplacian to dense for reference solves.
fn to_dense(a: &Csr<f64>) -> DenseMatrix<f64> {
    let mut d = DenseMatrix::zeros(a.rows(), a.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            d.set(r, c, v);
        }
    }
    d
}

#[test]
fn cholesky_matches_dense_lu() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(case);
        let (n, edges) = random_connected_graph(&mut rng);
        let lap = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let grounded = lap.grounded(n - 1).expect("valid ground");
        let chol = SparseCholesky::factor(&grounded).expect("SPD grounded Laplacian");
        let dense = to_dense(&grounded);
        let b: Vec<f64> = (0..n - 1).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let x1 = chol.solve(&b).expect("solve");
        let x2 = dense.solve(&b).expect("dense solve");
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-6, "case {case}: {p} vs {q}");
        }
    }
}

#[test]
fn cg_matches_cholesky() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(100 + case);
        let (n, edges) = random_connected_graph(&mut rng);
        let lap = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let grounded = lap.grounded(0).expect("valid ground");
        let chol = SparseCholesky::factor(&grounded).expect("SPD");
        let b: Vec<f64> = (0..n - 1).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let x1 = chol.solve(&b).expect("solve");
        let x2 = solve_cg(&grounded, &b, CgOptions::default()).expect("cg").x;
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-6, "case {case}");
        }
    }
}

#[test]
fn ldlt_solves_spd_too() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(200 + case);
        let (n, edges) = random_connected_graph(&mut rng);
        let lap = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let grounded = lap.grounded(n / 2).expect("valid ground");
        let b: Vec<f64> = (0..n - 1).map(|i| ((i % 3) as f64) - 1.0).collect();
        let x = EnvelopeLdlt::factor(&grounded)
            .expect("grounded Laplacian is SPD")
            .solve(&b)
            .expect("solve");
        let back = grounded.mul_vec(&x).expect("spmv");
        let err = back
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "case {case}: residual {err}");
    }
}

#[test]
fn effective_resistance_symmetric() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(300 + case);
        let (n, edges) = random_connected_graph(&mut rng);
        let lap = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let r_st = lap.effective_resistance(0, n - 1).expect("connected");
        let r_ts = lap.effective_resistance(n - 1, 0).expect("connected");
        assert!((r_st - r_ts).abs() < 1e-6 * r_st.max(1e-12), "case {case}");
        assert!(r_st > 0.0, "case {case}");
    }
}

#[test]
fn effective_resistance_triangle_inequality() {
    // Effective resistance is a metric: R(a,c) <= R(a,b) + R(b,c).
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(400 + case);
        let (n, edges) = random_connected_graph(&mut rng);
        let lap = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let (a, b, c) = (0, n / 2, n - 1);
        if a == b || b == c {
            continue;
        }
        let r_ab = lap.effective_resistance(a, b).expect("connected");
        let r_bc = lap.effective_resistance(b, c).expect("connected");
        let r_ac = lap.effective_resistance(a, c).expect("connected");
        assert!(r_ac <= r_ab + r_bc + 1e-7, "case {case}");
    }
}

#[test]
fn rayleigh_monotonicity_extra_edge() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(500 + case);
        let (n, edges) = random_connected_graph(&mut rng);
        let w = rng.f64_range(0.1, 5.0);
        let lap1 = GraphLaplacian::from_edges(n, &edges).expect("valid edges");
        let r1 = lap1.effective_resistance(0, n - 1).expect("connected");
        let mut more = edges.clone();
        more.push((0, n - 1, w));
        let lap2 = GraphLaplacian::from_edges(n, &more).expect("valid edges");
        let r2 = lap2.effective_resistance(0, n - 1).expect("connected");
        assert!(r2 <= r1 + 1e-9, "case {case}");
    }
}

#[test]
fn csr_roundtrip_spmv() {
    for case in 0..CASES {
        let mut rng = SproutRng::seed_from_u64(600 + case);
        let entries = rng.usize_range(1, 40);
        let mut t = Triplets::new(8, 8);
        let mut dense = DenseMatrix::zeros(8, 8);
        for _ in 0..entries {
            let r = rng.usize_below(8);
            let c = rng.usize_below(8);
            let v = rng.f64_range(-5.0, 5.0);
            t.push(r, c, v).expect("in bounds");
            dense.add(r, c, v);
        }
        let csr = t.to_csr();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let y1 = csr.mul_vec(&x).expect("spmv");
        let y2 = dense.mul_vec(&x).expect("dense mv");
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-9, "case {case}");
        }
        // Transpose twice is identity.
        assert_eq!(csr.transpose().transpose(), csr, "case {case}");
    }
}
