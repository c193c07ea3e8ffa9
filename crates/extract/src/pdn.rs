//! Rail PDN assembly and minimum-load-voltage simulation (Fig. 12c).
//!
//! The extracted rail (DC resistance + effective loop inductance) is
//! placed between an ideal supply and the load; the rail's decoupling
//! capacitors shunt the load node; the load draws a ramped current with
//! the net's slew rate. The minimum load voltage over the transient is
//! the figure the paper plots against metal area.

use crate::mna::{simulate, Circuit, Element, Waveform};
use crate::ExtractError;
use sprout_board::Decap;

/// Lumped rail model for transient simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RailPdn {
    /// Supply voltage (V).
    pub supply_v: f64,
    /// Total rail resistance (Ω) — from
    /// [`crate::resistance::dc_resistance`].
    pub resistance_ohm: f64,
    /// Effective loop inductance (H) — from
    /// [`crate::ac::ac_impedance_25mhz`] on the decap-less network.
    pub inductance_h: f64,
    /// The rail's decoupling capacitors.
    pub decaps: Vec<Decap>,
    /// Peak load current (A).
    pub load_a: f64,
    /// Load current slew rate (A/s).
    pub slew_a_per_s: f64,
}

/// Result of a droop simulation.
#[derive(Debug, Clone)]
pub struct DroopResult {
    /// Minimum voltage at the load node (V).
    pub v_min: f64,
    /// Steady-state (IR-only) load voltage (V).
    pub v_steady: f64,
    /// Sample times (s).
    pub times_s: Vec<f64>,
    /// Load-node voltage trace (V).
    pub load_v: Vec<f64>,
}

impl RailPdn {
    /// Runs the transient and reports the minimum load voltage.
    ///
    /// The time step adapts to the load rise time (≥ 200 samples over
    /// the ramp) and the horizon covers the ramp plus settling.
    ///
    /// # Errors
    ///
    /// * [`ExtractError::InvalidParameter`] — non-positive parameters.
    /// * [`ExtractError::Linalg`] — singular MNA system.
    pub fn simulate_droop(&self) -> Result<DroopResult, ExtractError> {
        if self.supply_v <= 0.0
            || self.resistance_ohm <= 0.0
            || self.inductance_h <= 0.0
            || self.load_a <= 0.0
            || self.slew_a_per_s <= 0.0
        {
            return Err(ExtractError::InvalidParameter(
                "rail parameters must be positive",
            ));
        }
        let mut c = Circuit::new();
        let supply = c.add_node();
        let mid = c.add_node();
        let load = c.add_node();
        c.add(Element::VoltageSource(supply, 0, self.supply_v))?;
        c.add(Element::Resistor(supply, mid, self.resistance_ohm))?;
        c.add(Element::Inductor(mid, load, self.inductance_h))?;
        for d in &self.decaps {
            // C + ESR + ESL branch from the load node to ground.
            let tap = c.add_node();
            let tap2 = c.add_node();
            c.add(Element::Resistor(load, tap, d.esr_ohm))?;
            c.add(Element::Inductor(tap, tap2, d.esl_h))?;
            c.add(Element::Capacitor(tap2, 0, d.capacitance_f))?;
        }
        let rise_s = self.load_a / self.slew_a_per_s;
        let t_start = rise_s.max(1e-9); // settle one rise time first
        c.add(Element::CurrentSource(
            load,
            0,
            Waveform::Ramp {
                t_start_s: t_start,
                slew_per_s: self.slew_a_per_s,
                peak: self.load_a,
            },
        ))?;

        // Horizon: the ramp plus several L/R time constants (and decap
        // recharge), capped for tractability.
        let tau = self.inductance_h / self.resistance_ohm;
        let t_end = (t_start + rise_s + 10.0 * tau).max(t_start + 5.0 * rise_s);
        let h = (rise_s / 200.0).min(tau / 20.0).max(t_end / 200_000.0);
        let out = simulate(&c, h, t_end)?;
        Ok(DroopResult {
            v_min: out.min_voltage(load),
            v_steady: self.supply_v - self.load_a * self.resistance_ohm,
            load_v: out.trace(load),
            times_s: out.times_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_board::NetId;
    use sprout_geom::Point;

    fn decap() -> Decap {
        Decap {
            net: NetId(0),
            layer: 9,
            location: Point::new(0.0, 0.0),
            capacitance_f: 10e-6,
            esr_ohm: 5e-3,
            esl_h: 0.4e-9,
        }
    }

    fn rail(decaps: usize) -> RailPdn {
        RailPdn {
            supply_v: 1.0,
            resistance_ohm: 12e-3,
            inductance_h: 150e-12,
            decaps: (0..decaps).map(|_| decap()).collect(),
            load_a: 4.0,
            slew_a_per_s: 3e9,
        }
    }

    #[test]
    fn droop_is_at_least_ir() {
        let out = rail(0).simulate_droop().unwrap();
        // Steady droop: 1 - 4 × 0.012 = 0.952.
        assert!((out.v_steady - 0.952).abs() < 1e-12);
        assert!(out.v_min <= out.v_steady + 1e-9);
        // The bare rail takes the full L·di/dt ≈ 0.45 V hit on top of
        // IR: v_min ≈ 0.50.
        assert!(out.v_min > 0.35 && out.v_min < 0.60, "droop: {}", out.v_min);
    }

    #[test]
    fn decaps_improve_v_min() {
        let bare = rail(0).simulate_droop().unwrap();
        let two = rail(2).simulate_droop().unwrap();
        let five = rail(5).simulate_droop().unwrap();
        assert!(two.v_min >= bare.v_min - 1e-9);
        assert!(five.v_min >= two.v_min - 1e-9);
    }

    #[test]
    fn lower_resistance_raises_v_min() {
        let base = rail(2);
        let mut better = base.clone();
        better.resistance_ohm = 6e-3;
        let v1 = base.simulate_droop().unwrap().v_min;
        let v2 = better.simulate_droop().unwrap().v_min;
        assert!(v2 > v1, "{v2} vs {v1}");
    }

    #[test]
    fn faster_slew_deepens_droop() {
        let base = rail(0);
        let mut fast = base.clone();
        fast.slew_a_per_s = 9e9;
        let v1 = base.simulate_droop().unwrap().v_min;
        let v2 = fast.simulate_droop().unwrap().v_min;
        assert!(v2 <= v1 + 1e-9, "{v2} vs {v1}");
    }

    #[test]
    fn parameter_validation() {
        let mut bad = rail(0);
        bad.load_a = 0.0;
        assert!(bad.simulate_droop().is_err());
        let mut bad2 = rail(0);
        bad2.inductance_h = -1.0;
        assert!(bad2.simulate_droop().is_err());
    }
}
