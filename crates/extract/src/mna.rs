//! Transient circuit simulation by modified nodal analysis.
//!
//! A small general-purpose simulator — R, L, C, current sources with
//! waveforms, ideal voltage sources — integrating with backward Euler
//! (L-stable, so the slope discontinuities of ramped load currents do
//! not excite the artificial ringing the trapezoidal rule is known
//! for). It drives the minimum-load-voltage study of Fig. 12c.

use crate::ExtractError;
use sprout_linalg::dense::{DenseMatrix, LuFactors};

/// Node index; node 0 is ground.
pub type Node = usize;

/// Source waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Zero until `t_start_s`, then ramps at `slew_per_s` up to `peak`,
    /// then holds (the load steps of §III-C).
    Ramp {
        /// Ramp start time (s).
        t_start_s: f64,
        /// Slew rate (A/s for current sources).
        slew_per_s: f64,
        /// Final value.
        peak: f64,
    },
}

impl Waveform {
    /// The waveform value at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Ramp {
                t_start_s,
                slew_per_s,
                peak,
            } => {
                if t <= t_start_s {
                    0.0
                } else {
                    (slew_per_s * (t - t_start_s)).min(peak)
                }
            }
        }
    }
}

/// A circuit element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Element {
    /// Resistor between two nodes (Ω).
    Resistor(Node, Node, f64),
    /// Capacitor between two nodes (F), zero initial voltage.
    Capacitor(Node, Node, f64),
    /// Inductor between two nodes (H), zero initial current.
    Inductor(Node, Node, f64),
    /// Current source pushing `waveform` amperes from the first node to
    /// the second (i.e. it *draws* from the first node).
    CurrentSource(Node, Node, Waveform),
    /// Ideal voltage source holding the first node `volts` above the
    /// second.
    VoltageSource(Node, Node, f64),
}

/// A circuit under construction.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_count: usize,
    elements: Vec<Element>,
}

impl Circuit {
    /// An empty circuit (ground pre-allocated as node 0).
    pub fn new() -> Self {
        Circuit {
            node_count: 1,
            elements: Vec::new(),
        }
    }

    /// Allocates a new node and returns its index.
    pub fn add_node(&mut self) -> Node {
        self.node_count += 1;
        self.node_count - 1
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds an element.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractError::InvalidParameter`] for unknown nodes or
    /// non-positive R/L/C values.
    pub fn add(&mut self, element: Element) -> Result<(), ExtractError> {
        let (a, b) = match element {
            Element::Resistor(a, b, v)
            | Element::Capacitor(a, b, v)
            | Element::Inductor(a, b, v) => {
                if v <= 0.0 {
                    return Err(ExtractError::InvalidParameter(
                        "R/L/C values must be positive",
                    ));
                }
                (a, b)
            }
            Element::CurrentSource(a, b, _) | Element::VoltageSource(a, b, _) => (a, b),
        };
        if a >= self.node_count || b >= self.node_count || a == b {
            return Err(ExtractError::InvalidParameter(
                "element references an invalid node pair",
            ));
        }
        self.elements.push(element);
        Ok(())
    }
}

/// Node voltages over a run, stored as one flat buffer: one row of
/// `width` (the circuit's node count, at least 1) values per sample,
/// ground included as 0.
#[derive(Debug, Clone)]
pub struct Samples {
    width: usize,
    data: Vec<f64>,
}

impl Samples {
    /// Node voltages of each sample in time order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.width)
    }

    /// Node voltages of the last sample.
    pub fn last(&self) -> Option<&[f64]> {
        self.iter().next_back()
    }
}

impl<'a> IntoIterator for &'a Samples {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Sample times (s).
    pub times_s: Vec<f64>,
    /// Node voltages per sample (`voltages` yields one `&[f64]` indexed
    /// by node per sample, ground included as 0).
    pub voltages: Samples,
}

impl TransientResult {
    /// Minimum voltage seen at a node over the run.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node.
    pub fn min_voltage(&self, node: Node) -> f64 {
        self.voltages
            .iter()
            .map(|v| v[node])
            .fold(f64::INFINITY, f64::min)
    }

    /// Voltage trace of one node.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node.
    pub fn trace(&self, node: Node) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node]).collect()
    }
}

/// Runs a transient simulation with fixed step `h_s` until `t_end_s`
/// (backward-Euler integration; the DC operating point is the first
/// step's solution with sources at `t = 0`).
///
/// # Errors
///
/// * [`ExtractError::InvalidParameter`] — non-positive step/horizon.
/// * [`ExtractError::Linalg`] — singular MNA matrix (floating nodes).
pub fn simulate(
    circuit: &Circuit,
    h_s: f64,
    t_end_s: f64,
) -> Result<TransientResult, ExtractError> {
    if h_s <= 0.0 || t_end_s <= h_s {
        return Err(ExtractError::InvalidParameter(
            "step and horizon must be positive with t_end > h",
        ));
    }
    let n = circuit.node_count; // node 0 = ground
    let n_vsrc = circuit
        .elements
        .iter()
        .filter(|e| matches!(e, Element::VoltageSource(..)))
        .count();
    let dim = (n - 1) + n_vsrc;

    // Assemble the constant MNA matrix (companion conductances).
    let mut g = DenseMatrix::<f64>::zeros(dim, dim);
    let idx = |node: Node| -> Option<usize> {
        if node == 0 {
            None
        } else {
            Some(node - 1)
        }
    };
    let stamp_g = |m: &mut DenseMatrix<f64>, a: Node, b: Node, y: f64| {
        if let Some(i) = idx(a) {
            m.add(i, i, y);
        }
        if let Some(j) = idx(b) {
            m.add(j, j, y);
        }
        if let (Some(i), Some(j)) = (idx(a), idx(b)) {
            m.add(i, j, -y);
            m.add(j, i, -y);
        }
    };
    let mut vsrc_row = n - 1;
    let mut vsrc_rows: Vec<usize> = Vec::new();
    for e in &circuit.elements {
        match *e {
            Element::Resistor(a, b, r) => stamp_g(&mut g, a, b, 1.0 / r),
            Element::Capacitor(a, b, c) => stamp_g(&mut g, a, b, c / h_s),
            Element::Inductor(a, b, l) => stamp_g(&mut g, a, b, h_s / l),
            Element::CurrentSource(..) => {}
            Element::VoltageSource(a, b, _) => {
                if let Some(i) = idx(a) {
                    g.add(i, vsrc_row, 1.0);
                    g.add(vsrc_row, i, 1.0);
                }
                if let Some(j) = idx(b) {
                    g.add(j, vsrc_row, -1.0);
                    g.add(vsrc_row, j, -1.0);
                }
                vsrc_rows.push(vsrc_row);
                vsrc_row += 1;
            }
        }
    }
    let lu = LuFactors::factor(&g)?;

    // DC operating point at t = 0: capacitors open, inductors shorted
    // (stamped as a very large conductance), sources at their t = 0
    // values. Without this, decoupling capacitors would start empty and
    // draw an unphysical inrush through the rail.
    let dc_voltages = {
        let mut g_dc = DenseMatrix::<f64>::zeros(dim, dim);
        let mut rhs = vec![0.0f64; dim];
        let mut vs = 0usize;
        const SHORT_S: f64 = 1e9;
        for e in &circuit.elements {
            match *e {
                Element::Resistor(a, b, r) => stamp_g(&mut g_dc, a, b, 1.0 / r),
                Element::Capacitor(..) => {}
                Element::Inductor(a, b, _) => stamp_g(&mut g_dc, a, b, SHORT_S),
                Element::CurrentSource(a, b, w) => {
                    let i = w.at(0.0);
                    if let Some(ia) = idx(a) {
                        rhs[ia] -= i;
                    }
                    if let Some(ib) = idx(b) {
                        rhs[ib] += i;
                    }
                }
                Element::VoltageSource(a, b, v) => {
                    let row = vsrc_rows[vs];
                    if let Some(i) = idx(a) {
                        g_dc.add(i, row, 1.0);
                        g_dc.add(row, i, 1.0);
                    }
                    if let Some(j) = idx(b) {
                        g_dc.add(j, row, -1.0);
                        g_dc.add(row, j, -1.0);
                    }
                    rhs[row] = v;
                    vs += 1;
                }
            }
        }
        // Ground any floating capacitor-only nodes so the DC matrix is
        // nonsingular (a tiny leak conductance).
        for i in 0..(n - 1) {
            g_dc.add(i, i, 1e-12);
        }
        let x = LuFactors::factor(&g_dc)?.solve(&rhs)?;
        let mut v = vec![0.0f64; n];
        v[1..n].copy_from_slice(&x[..(n - 1)]);
        v
    };

    // Element state: capacitor (v_prev, i_prev), inductor (v_prev, i_prev),
    // initialized from the DC operating point.
    let mut state: Vec<(f64, f64)> = circuit
        .elements
        .iter()
        .map(|e| match *e {
            Element::Capacitor(a, b, _) => (dc_voltages[a] - dc_voltages[b], 0.0),
            Element::Inductor(a, b, _) => {
                let v = dc_voltages[a] - dc_voltages[b];
                (0.0, v * 1e9)
            }
            _ => (0.0, 0.0),
        })
        .collect();
    let steps = (t_end_s / h_s).ceil() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity((steps + 1) * n);
    let mut rhs = vec![0.0f64; dim];
    let mut x = Vec::with_capacity(dim);

    for step in 0..=steps {
        let t = step as f64 * h_s;
        // RHS with companion sources.
        rhs.fill(0.0);
        let mut vs = 0usize;
        for (k, e) in circuit.elements.iter().enumerate() {
            match *e {
                Element::Resistor(..) => {}
                Element::Capacitor(a, b, c) => {
                    let (vp, _ip) = state[k];
                    let i_eq = (c / h_s) * vp;
                    if let Some(i) = idx(a) {
                        rhs[i] += i_eq;
                    }
                    if let Some(j) = idx(b) {
                        rhs[j] -= i_eq;
                    }
                }
                Element::Inductor(a, b, _) => {
                    let (_vp, ip) = state[k];
                    let i_eq = ip;
                    if let Some(i) = idx(a) {
                        rhs[i] -= i_eq;
                    }
                    if let Some(j) = idx(b) {
                        rhs[j] += i_eq;
                    }
                }
                Element::CurrentSource(a, b, w) => {
                    let i = w.at(t);
                    if let Some(ia) = idx(a) {
                        rhs[ia] -= i;
                    }
                    if let Some(ib) = idx(b) {
                        rhs[ib] += i;
                    }
                }
                Element::VoltageSource(_, _, v) => {
                    rhs[vsrc_rows[vs]] = v;
                    vs += 1;
                }
            }
        }
        lu.solve_into(&rhs, &mut x)?;
        let row = voltages.len();
        voltages.push(0.0);
        voltages.extend_from_slice(&x[..(n - 1)]);
        let v_now = &voltages[row..];
        // Update element states.
        for (k, e) in circuit.elements.iter().enumerate() {
            match *e {
                Element::Capacitor(a, b, c) => {
                    let v = v_now[a] - v_now[b];
                    let (vp, _ip) = state[k];
                    let i = (c / h_s) * (v - vp);
                    state[k] = (v, i);
                }
                Element::Inductor(a, b, l) => {
                    let v = v_now[a] - v_now[b];
                    let (_vp, ip) = state[k];
                    let i = ip + (h_s / l) * v;
                    state[k] = (v, i);
                }
                _ => {}
            }
        }
        times.push(t);
    }
    Ok(TransientResult {
        times_s: times,
        voltages: Samples {
            width: n,
            data: voltages,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveforms() {
        let r = Waveform::Ramp {
            t_start_s: 1e-9,
            slew_per_s: 1e9,
            peak: 2.0,
        };
        assert_eq!(r.at(0.0), 0.0);
        assert_eq!(r.at(1e-9), 0.0);
        assert!((r.at(2e-9) - 1.0).abs() < 1e-12);
        assert_eq!(r.at(10e-9), 2.0);
        assert_eq!(Waveform::Dc(3.0).at(5.0), 3.0);
    }

    #[test]
    fn validation() {
        let mut c = Circuit::new();
        let n1 = c.add_node();
        assert!(c.add(Element::Resistor(0, n1, -1.0)).is_err());
        assert!(c.add(Element::Resistor(0, 5, 1.0)).is_err());
        assert!(c.add(Element::Resistor(n1, n1, 1.0)).is_err());
        assert!(c.add(Element::Resistor(0, n1, 1.0)).is_ok());
        assert!(simulate(&c, 0.0, 1.0).is_err());
    }

    #[test]
    fn resistive_divider_dc() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add(Element::VoltageSource(top, 0, 2.0)).unwrap();
        c.add(Element::Resistor(top, mid, 1.0)).unwrap();
        c.add(Element::Resistor(mid, 0, 1.0)).unwrap();
        let out = simulate(&c, 1e-6, 1e-4).unwrap();
        let v = out.voltages.last().unwrap();
        assert!((v[top] - 2.0).abs() < 1e-9);
        assert!((v[mid] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // A 1 mA current step into R ∥ C: v(t) = I·R·(1 - e^{-t/RC}),
        // R = 1 kΩ, C = 1 µF, τ = 1 ms. (A fast ramp stands in for the
        // step; the DC operating point at t = 0 is v = 0.)
        let mut c = Circuit::new();
        let node = c.add_node();
        let t0 = 1e-5;
        c.add(Element::CurrentSource(
            0,
            node,
            Waveform::Ramp {
                t_start_s: t0,
                slew_per_s: 1e3, // reaches 1 mA in 1 µs « τ
                peak: 1e-3,
            },
        ))
        .unwrap();
        c.add(Element::Resistor(node, 0, 1e3)).unwrap();
        c.add(Element::Capacitor(node, 0, 1e-6)).unwrap();
        let out = simulate(&c, 2e-6, 4e-3).unwrap();
        for (&t, v) in out.times_s.iter().zip(&out.voltages) {
            if t < t0 + 2e-6 {
                assert!(v[node].abs() < 1e-6, "pre-step rest state");
                continue;
            }
            let expected = 1.0 - (-(t - t0) / 1e-3).exp();
            assert!(
                (v[node] - expected).abs() < 1.5e-2,
                "t={t}: {} vs {}",
                v[node],
                expected
            );
        }
    }

    #[test]
    fn rl_current_division_matches_analytic() {
        // A 1 A current step into R ∥ L: the inductor current rises as
        // 1 - e^{-tR/L} and the node voltage decays as R·e^{-tR/L}.
        // R = 1 Ω, L = 1 µH, τ = 1 µs.
        let mut c = Circuit::new();
        let node = c.add_node();
        let t0 = 1e-7;
        c.add(Element::CurrentSource(
            0,
            node,
            Waveform::Ramp {
                t_start_s: t0,
                slew_per_s: 1e9, // 1 ns rise « τ
                peak: 1.0,
            },
        ))
        .unwrap();
        c.add(Element::Resistor(node, 0, 1.0)).unwrap();
        c.add(Element::Inductor(node, 0, 1e-6)).unwrap();
        let out = simulate(&c, 2e-9, 6e-6).unwrap();
        for (&t, v) in out.times_s.iter().zip(&out.voltages) {
            if t < t0 + 5e-9 {
                continue; // skip the ramp edge itself
            }
            let expected = (-(t - t0) / 1e-6).exp();
            assert!(
                (v[node] - expected).abs() < 2e-2,
                "t={t}: {} vs {}",
                v[node],
                expected
            );
        }
    }

    #[test]
    fn current_ramp_causes_ir_droop() {
        // 1V supply behind 10 mΩ; a 5 A ramp load sags the node to 0.95 V.
        let mut c = Circuit::new();
        let supply = c.add_node();
        let load = c.add_node();
        c.add(Element::VoltageSource(supply, 0, 1.0)).unwrap();
        c.add(Element::Resistor(supply, load, 10e-3)).unwrap();
        c.add(Element::CurrentSource(
            load,
            0,
            Waveform::Ramp {
                t_start_s: 1e-9,
                slew_per_s: 5e9,
                peak: 5.0,
            },
        ))
        .unwrap();
        let out = simulate(&c, 1e-10, 20e-9).unwrap();
        let v_min = out.min_voltage(load);
        assert!((v_min - 0.95).abs() < 1e-6, "{v_min}");
    }

    #[test]
    fn inductive_spike_deepens_droop_without_decap() {
        let build = |with_decap: bool| -> f64 {
            let mut c = Circuit::new();
            let supply = c.add_node();
            let mid = c.add_node();
            let load = c.add_node();
            c.add(Element::VoltageSource(supply, 0, 1.0)).unwrap();
            c.add(Element::Resistor(supply, mid, 5e-3)).unwrap();
            c.add(Element::Inductor(mid, load, 2e-9)).unwrap();
            if with_decap {
                let tap = c.add_node();
                c.add(Element::Capacitor(tap, 0, 10e-6)).unwrap();
                c.add(Element::Resistor(load, tap, 3e-3)).unwrap();
            }
            c.add(Element::CurrentSource(
                load,
                0,
                Waveform::Ramp {
                    t_start_s: 5e-9,
                    slew_per_s: 4e9,
                    peak: 4.0,
                },
            ))
            .unwrap();
            simulate(&c, 5e-11, 60e-9).unwrap().min_voltage(load)
        };
        let bare = build(false);
        let decapped = build(true);
        assert!(
            decapped > bare,
            "decap must relieve the Ldi/dt droop: {decapped} vs {bare}"
        );
        // IR floor: 1 - 4 × 0.005 = 0.98; inductor dips below it.
        assert!(bare < 0.98);
    }
}
