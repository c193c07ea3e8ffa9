//! AC impedance extraction (Tables II/III, "inductance @ 25 MHz").
//!
//! Complex nodal analysis of the rail network at a single frequency:
//! mesh branches are `R + jωL` series elements, sink vias likewise, and
//! decaps shunt their node to the return plane through
//! `ESR + jωESL + 1/(jωC)`. The reported effective loop inductance is
//! `Im{Z(jω)}/ω` — what a quasi-static extractor quotes at 25 MHz.
//!
//! The grounded admittance matrix is complex symmetric with a positive
//! definite real part (every branch has `R > 0`), so it is solved
//! exactly by one envelope `L·D·Lᵀ` factorization
//! ([`EnvelopeLdlt`]) — no iteration, no tolerance.

use crate::network::RailNetwork;
use crate::ExtractError;
use sprout_board::units::EXTRACTION_FREQUENCY_HZ;
use sprout_linalg::ldlt::EnvelopeLdlt;
use sprout_linalg::{Complex, Csr, Triplets};

/// An AC extraction result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcExtraction {
    /// Frequency (Hz).
    pub frequency_hz: f64,
    /// Complex port impedance (Ω).
    pub impedance: Complex,
    /// AC resistance `Re{Z}` (Ω).
    pub resistance_ohm: f64,
    /// Effective loop inductance `Im{Z}/ω` (H).
    pub inductance_h: f64,
}

/// Extracts the port impedance at the paper's 25 MHz.
///
/// # Errors
///
/// See [`ac_impedance`].
pub fn ac_impedance_25mhz(network: &RailNetwork) -> Result<AcExtraction, ExtractError> {
    ac_impedance(network, EXTRACTION_FREQUENCY_HZ)
}

/// Extracts the port impedance at `frequency_hz`.
///
/// # Errors
///
/// * [`ExtractError::InvalidParameter`] — non-positive frequency.
/// * [`ExtractError::Linalg`] — singular admittance matrix (disconnected
///   network).
pub fn ac_impedance(
    network: &RailNetwork,
    frequency_hz: f64,
) -> Result<AcExtraction, ExtractError> {
    if frequency_hz <= 0.0 {
        return Err(ExtractError::InvalidParameter("frequency must be positive"));
    }
    let omega = std::f64::consts::TAU * frequency_hz;
    let (matrix, rhs) = admittance_system(network, omega);
    let v = EnvelopeLdlt::factor(&matrix)?.solve(&rhs)?;
    let z = port_impedance(network, omega, &v);
    Ok(AcExtraction {
        frequency_hz,
        impedance: z,
        resistance_ohm: z.re,
        inductance_h: z.im / omega,
    })
}

/// The port impedance from the solved node voltages `v` (grounded
/// indexing): the mean source-pad voltage per ampere plus the source via.
fn port_impedance(network: &RailNetwork, omega: f64, v: &[Complex]) -> Complex {
    let ground = network.reference();
    let v_port = network
        .sources
        .iter()
        .filter_map(|&s| reduced(s, ground))
        .fold(Complex::ZERO, |acc, i| acc + v[i])
        / network.sources.len() as f64;
    v_port + Complex::new(network.source_via.0, omega * network.source_via.1)
}

/// Index of node `i` in the system grounded at `ground` (`None` for the
/// ground node itself, which is dropped).
fn reduced(i: usize, ground: usize) -> Option<usize> {
    use std::cmp::Ordering;
    match i.cmp(&ground) {
        Ordering::Less => Some(i),
        Ordering::Equal => None,
        Ordering::Greater => Some(i - 1),
    }
}

/// The complex admittance Laplacian at angular frequency `omega`,
/// grounded at the network's reference node, and the injection of 1 A
/// into the source pads (split equally) returned at the reference.
fn admittance_system(network: &RailNetwork, omega: f64) -> (Csr<Complex>, Vec<Complex>) {
    let n = network.node_count;
    let ground = network.reference();
    let mut t = Triplets::<Complex>::new(n - 1, n - 1);
    let mut stamp = |a: usize, b: usize, y: Complex| {
        let (ra, rb) = (reduced(a, ground), reduced(b, ground));
        if let Some(ia) = ra {
            t.push(ia, ia, y).expect("in bounds");
        }
        if let Some(ib) = rb {
            t.push(ib, ib, y).expect("in bounds");
        }
        if let (Some(ia), Some(ib)) = (ra, rb) {
            t.push(ia, ib, -y).expect("in bounds");
            t.push(ib, ia, -y).expect("in bounds");
        }
    };
    for b in network.mesh.iter().chain(&network.sink_vias) {
        let z = Complex::new(b.resistance_ohm, omega * b.inductance_h);
        stamp(b.a, b.b, z.recip());
    }
    for d in &network.decaps {
        let z = Complex::new(d.esr_ohm, omega * d.esl_h - 1.0 / (omega * d.capacitance_f));
        stamp(d.node, ground, z.recip());
    }

    let mut rhs = vec![Complex::ZERO; n - 1];
    let share = Complex::from_real(1.0 / network.sources.len() as f64);
    for &s in &network.sources {
        if let Some(i) = reduced(s, ground) {
            rhs[i] += share;
        }
    }
    (t.to_csr(), rhs)
}

/// An impedance profile `Z(f)` over a frequency grid — the quantity
/// compared against the target impedance mask in the paper's Fig. 1
/// design flow ("if the impedance profile of the resulting layout does
/// not satisfy the target requirements, the layout is iteratively
/// adjusted").
#[derive(Debug, Clone)]
pub struct ImpedanceProfile {
    /// Frequency grid (Hz).
    pub frequencies_hz: Vec<f64>,
    /// `|Z|` at each frequency (Ω).
    pub magnitude_ohm: Vec<f64>,
    /// Full complex impedances.
    pub impedance: Vec<Complex>,
}

/// Sweeps the port impedance over a logarithmic frequency grid.
///
/// # Errors
///
/// * [`ExtractError::InvalidParameter`] — bad grid bounds.
/// * [`ExtractError::Linalg`] — singular admittance matrix at some point.
pub fn impedance_profile(
    network: &RailNetwork,
    f_start_hz: f64,
    f_stop_hz: f64,
    points: usize,
) -> Result<ImpedanceProfile, ExtractError> {
    if f_start_hz <= 0.0 || f_stop_hz <= f_start_hz || points < 2 {
        return Err(ExtractError::InvalidParameter(
            "need 0 < f_start < f_stop and at least two points",
        ));
    }
    let ratio = (f_stop_hz / f_start_hz).ln();
    let mut frequencies = Vec::with_capacity(points);
    let mut magnitude = Vec::with_capacity(points);
    let mut impedance = Vec::with_capacity(points);
    for k in 0..points {
        let f = f_start_hz * (ratio * k as f64 / (points - 1) as f64).exp();
        let z = ac_impedance(network, f)?;
        frequencies.push(f);
        magnitude.push(z.impedance.abs());
        impedance.push(z.impedance);
    }
    Ok(ImpedanceProfile {
        frequencies_hz: frequencies,
        magnitude_ohm: magnitude,
        impedance,
    })
}

impl ImpedanceProfile {
    /// Frequencies where `|Z|` exceeds a flat target-impedance mask
    /// (the early-exploration pass/fail question of Fig. 1/2).
    pub fn mask_violations(&self, target_ohm: f64) -> Vec<f64> {
        self.frequencies_hz
            .iter()
            .zip(&self.magnitude_ohm)
            .filter(|(_, &m)| m > target_ohm)
            .map(|(&f, _)| f)
            .collect()
    }

    /// The peak `|Z|` and its frequency.
    ///
    /// # Panics
    ///
    /// Panics on an empty profile (construction guarantees ≥ 2 points).
    pub fn peak(&self) -> (f64, f64) {
        let (idx, &mag) = self
            .magnitude_ohm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("profile has points");
        (self.frequencies_hz[idx], mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Branch, DecapTap, RailNetwork};

    /// Source 0 — (R=0.1, L=1nH) — 1(sink) — via (0.05Ω, 0.2nH) — ref 2.
    fn rl_chain() -> RailNetwork {
        RailNetwork {
            node_count: 3,
            mesh: vec![Branch {
                a: 0,
                b: 1,
                resistance_ohm: 0.1,
                inductance_h: 1e-9,
            }],
            sink_vias: vec![Branch {
                a: 1,
                b: 2,
                resistance_ohm: 0.05,
                inductance_h: 0.2e-9,
            }],
            decaps: vec![],
            sources: vec![0],
            sinks: vec![1],
            source_via: (0.02, 0.1e-9),
            sheet_resistance: 5e-4,
            inductance_per_sq: 1e-10,
        }
    }

    #[test]
    fn series_chain_is_exact() {
        let ac = ac_impedance(&rl_chain(), 25.0e6).unwrap();
        assert!((ac.resistance_ohm - 0.17).abs() < 1e-9);
        assert!((ac.inductance_h - 1.3e-9).abs() < 1e-15);
    }

    #[test]
    fn frequency_validation() {
        assert!(ac_impedance(&rl_chain(), 0.0).is_err());
        assert!(ac_impedance(&rl_chain(), -5.0).is_err());
    }

    #[test]
    fn decap_reduces_inductance_at_25mhz() {
        let mut net = rl_chain();
        let base = ac_impedance_25mhz(&net).unwrap();
        // A healthy 10 µF decap right at the sink node shunts the loop.
        net.decaps.push(DecapTap {
            node: 1,
            capacitance_f: 10e-6,
            esr_ohm: 3e-3,
            esl_h: 0.3e-9,
        });
        let with = ac_impedance_25mhz(&net).unwrap();
        assert!(
            with.inductance_h < base.inductance_h,
            "decap must lower L: {} vs {}",
            with.inductance_h,
            base.inductance_h
        );
    }

    #[test]
    fn real_route_inductance_in_range() {
        use sprout_board::presets;
        use sprout_core::router::{Router, RouterConfig};
        let board = presets::two_rail();
        let config = RouterConfig {
            tile_pitch_mm: 0.5,
            grow_iterations: 8,
            refine_iterations: 2,
            reheat: None,
            ..RouterConfig::default()
        };
        let router = Router::new(&board, config);
        let (net, _) = board.power_nets().next().unwrap();
        let route = router
            .route_net(net, presets::TWO_RAIL_ROUTE_LAYER, 25.0)
            .unwrap();
        let network = RailNetwork::build(&board, &route).unwrap();
        let ac = ac_impedance_25mhz(&network).unwrap();
        // The paper's rails sit at ~100-160 pH (normalized); a physical
        // plane-pair rail of this size lands between 10 pH and 10 nH.
        assert!(
            ac.inductance_h > 1e-11 && ac.inductance_h < 1e-8,
            "{} H",
            ac.inductance_h
        );
        assert!(ac.resistance_ohm > 0.0);
        // AC resistance at least the DC value (no skin effect modeled,
        // but vias and spreading match).
        let dc = crate::resistance::dc_resistance(&network).unwrap();
        assert!(ac.resistance_ohm > dc.total_ohm * 0.5);
    }

    #[test]
    fn inductance_scales_with_dielectric_height() {
        // Doubling every branch inductance doubles Im{Z}/ω.
        let net = rl_chain();
        let base = ac_impedance_25mhz(&net).unwrap();
        let mut thick = net.clone();
        for b in thick.mesh.iter_mut().chain(thick.sink_vias.iter_mut()) {
            b.inductance_h *= 2.0;
        }
        thick.source_via.1 *= 2.0;
        let double = ac_impedance_25mhz(&thick).unwrap();
        assert!((double.inductance_h / base.inductance_h - 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod direct_tests {
    use super::*;
    use crate::network::{Branch, RailNetwork};
    use sprout_board::presets::{self, RandomBoardConfig};
    use sprout_board::{Board, NetId};
    use sprout_core::router::{Router, RouterConfig};
    use sprout_linalg::dense::{DenseMatrix, LuFactors};

    fn coarse(pitch_mm: f64) -> RouterConfig {
        RouterConfig {
            tile_pitch_mm: pitch_mm,
            grow_iterations: 5,
            refine_iterations: 0,
            reheat: None,
            ..RouterConfig::default()
        }
    }

    /// Every rail of `board` routed on `layer` in one job.
    fn rail_networks(
        board: &Board,
        config: RouterConfig,
        rails: &[(NetId, usize, f64)],
    ) -> Vec<RailNetwork> {
        Router::new(board, config)
            .route_all(rails)
            .into_results()
            .unwrap_or_else(|e| panic!("{}: {e}", board.name()))
            .iter()
            .map(|r| RailNetwork::build(board, r).expect("network"))
            .collect()
    }

    fn omega() -> f64 {
        std::f64::consts::TAU * EXTRACTION_FREQUENCY_HZ
    }

    #[test]
    fn direct_solve_matches_a_dense_lu_oracle() {
        let layer = presets::TWO_RAIL_ROUTE_LAYER;
        let two_rail = presets::two_rail();
        let rails: Vec<_> = two_rail
            .power_nets()
            .map(|(id, _)| (id, layer, 24.0))
            .collect();
        let mut networks = rail_networks(&two_rail, coarse(0.5), &rails);
        for seed in [3, 17, 5] {
            let cfg = RandomBoardConfig {
                nets: 1,
                ..RandomBoardConfig::default()
            };
            let board = presets::random_board(seed, cfg);
            let rails: Vec<_> = board
                .power_nets()
                .map(|(id, _)| (id, layer, 22.0))
                .collect();
            networks.extend(rail_networks(&board, coarse(0.5), &rails));
        }
        assert!(networks.len() >= 4);
        for (k, network) in networks.iter().enumerate() {
            let (y, b) = admittance_system(network, omega());
            let mut dense = DenseMatrix::<Complex>::zeros(y.rows(), y.cols());
            for r in 0..y.rows() {
                for (c, v) in y.row(r) {
                    dense.set(r, c, v);
                }
            }
            let v = LuFactors::factor(&dense).unwrap().solve(&b).unwrap();
            let oracle = port_impedance(network, omega(), &v);
            let z = ac_impedance_25mhz(network).unwrap().impedance;
            let rel = (z - oracle).abs() / oracle.abs();
            assert!(
                rel <= 1e-12,
                "network {k} (n = {}): relative error {rel:e}",
                y.rows()
            );
        }
    }

    #[test]
    fn three_rail_residual_is_at_rounding_level() {
        let board = presets::three_rail();
        let layer = presets::TEN_LAYER_ROUTE_LAYER;
        let nets: Vec<NetId> = board.power_nets().map(|(id, _)| id).collect();
        let rails = [
            (nets[0], layer, 32.0),
            (nets[1], layer, 32.0),
            (nets[2], layer, 7.0),
        ];
        let networks = rail_networks(&board, coarse(0.3), &rails);
        assert_eq!(networks.len(), 3);
        for network in &networks {
            let (y, b) = admittance_system(network, omega());
            let v = EnvelopeLdlt::factor(&y).unwrap().solve(&b).unwrap();
            let yv = y.mul_vec(&v).unwrap();
            let inf =
                |x: &mut dyn Iterator<Item = Complex>| x.map(Complex::abs).fold(0.0, f64::max);
            let residual = inf(&mut yv.iter().zip(&b).map(|(p, q)| *p - *q));
            let rel = residual / inf(&mut b.iter().copied());
            assert!(rel <= 1e-12, "n = {}: relative residual {rel:e}", y.rows());
        }
    }

    #[test]
    fn disconnected_network_is_a_linalg_error() {
        // Source 0 — 1 (sink) — via — reference 4; nodes 2 and 3 are
        // joined only to each other.
        let branch = |a, b| Branch {
            a,
            b,
            resistance_ohm: 0.1,
            inductance_h: 1e-9,
        };
        let network = RailNetwork {
            node_count: 5,
            mesh: vec![branch(0, 1), branch(2, 3)],
            sink_vias: vec![branch(1, 4)],
            decaps: vec![],
            sources: vec![0],
            sinks: vec![1],
            source_via: (0.02, 0.1e-9),
            sheet_resistance: 5e-4,
            inductance_per_sq: 1e-10,
        };
        assert!(matches!(
            ac_impedance_25mhz(&network),
            Err(ExtractError::Linalg(_))
        ));
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use crate::network::{Branch, DecapTap, RailNetwork};

    fn rail(with_decap: bool) -> RailNetwork {
        RailNetwork {
            node_count: 3,
            mesh: vec![Branch {
                a: 0,
                b: 1,
                resistance_ohm: 0.01,
                inductance_h: 0.5e-9,
            }],
            // A realistically inductive ball/package tie: the decap
            // bypasses this inductance in mid-band.
            sink_vias: vec![Branch {
                a: 1,
                b: 2,
                resistance_ohm: 0.002,
                inductance_h: 1.2e-9,
            }],
            decaps: if with_decap {
                vec![DecapTap {
                    node: 1,
                    capacitance_f: 1e-6,
                    esr_ohm: 5e-3,
                    esl_h: 0.5e-9,
                }]
            } else {
                vec![]
            },
            sources: vec![0],
            sinks: vec![1],
            source_via: (0.001, 0.05e-9),
            sheet_resistance: 5e-4,
            inductance_per_sq: 1e-10,
        }
    }

    #[test]
    fn profile_grid_and_monotone_inductive_rise() {
        let p = impedance_profile(&rail(false), 1e5, 1e8, 31).unwrap();
        assert_eq!(p.frequencies_hz.len(), 31);
        assert!((p.frequencies_hz[0] - 1e5).abs() < 1.0);
        assert!((p.frequencies_hz[30] - 1e8).abs() / 1e8 < 1e-9);
        // A pure RL rail: |Z| monotone non-decreasing in f.
        for w in p.magnitude_ohm.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        let (f_peak, _) = p.peak();
        assert!((f_peak - 1e8).abs() / 1e8 < 1e-9);
    }

    #[test]
    fn decap_carves_a_valley_in_the_profile() {
        let bare = impedance_profile(&rail(false), 1e5, 1e9, 61).unwrap();
        let decapped = impedance_profile(&rail(true), 1e5, 1e9, 61).unwrap();
        // Somewhere in mid-band the decap lowers |Z| substantially.
        let improvement = bare
            .magnitude_ohm
            .iter()
            .zip(&decapped.magnitude_ohm)
            .map(|(b, d)| b / d)
            .fold(0.0f64, f64::max);
        assert!(improvement > 1.5, "best improvement {improvement}");
    }

    #[test]
    fn mask_violation_detection() {
        let p = impedance_profile(&rail(false), 1e5, 1e8, 21).unwrap();
        // A generous mask passes everywhere; a tiny one fails at HF.
        assert!(p.mask_violations(1e3).is_empty());
        let tight = p.mask_violations(0.02);
        assert!(!tight.is_empty());
        // Violations are at the high end for an inductive rail.
        assert!(tight[0] > 1e5);
    }

    #[test]
    fn profile_validation() {
        let r = rail(false);
        assert!(impedance_profile(&r, 0.0, 1e8, 10).is_err());
        assert!(impedance_profile(&r, 1e8, 1e5, 10).is_err());
        assert!(impedance_profile(&r, 1e5, 1e8, 1).is_err());
    }
}
