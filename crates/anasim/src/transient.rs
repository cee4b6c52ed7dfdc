//! Fixed-step backward-Euler transient analysis.
//!
//! Used for the time-domain defect mechanisms in the paper: Df8's
//! delayed regulator activation and Df11's undershoot on the error
//! amplifier input, plus the slow V_DD_CC droop during deep-sleep
//! retention.
//!
//! Every step has the same length, except a last one shortened to land
//! on the stop time. A run covers its whole window unless the caller
//! ends it early: [`TransientAnalysis::run_from_until`] stops after the
//! first accepted step its predicate marks done, which is how the
//! regulator's activation transients end once the rest of the window
//! can no longer change their verdict.

use crate::error::Error;
use crate::mna::AnalysisMode;
use crate::netlist::{Netlist, NodeId};
use crate::newton::{solve_with_retry_in, NewtonOptions, Solution};
use crate::scratch::SolveScratch;

/// A stop predicate over `(time, previous, accepted)`; see
/// [`TransientAnalysis::run_from_until`]. The loop takes it as a trait
/// object, so it is compiled once for every caller's predicate.
type StepDone<'a> = dyn Fn(f64, &[f64], &[f64]) -> bool + 'a;

/// Transient analysis driver with a fixed step.
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    dt: f64,
    t_stop: f64,
    options: NewtonOptions,
}

/// Result of a transient run: the time axis and the unknown vector at
/// every accepted point (including the initial condition at `t = 0`).
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    node_unknowns: usize,
}

impl TransientResult {
    /// The time axis in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the run stored no points (never true for a successful
    /// analysis, which always stores the initial condition).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at point index `idx`.
    pub fn voltage(&self, node: NodeId, idx: usize) -> f64 {
        match node.unknown_index() {
            None => 0.0,
            Some(i) => self.states[idx][i],
        }
    }

    /// Voltage of `node` at the final point.
    pub fn voltage_at_end(&self, node: NodeId) -> f64 {
        self.voltage(node, self.len() - 1)
    }

    /// Full voltage waveform of `node`.
    pub fn voltage_series(&self, node: NodeId) -> Vec<f64> {
        (0..self.len()).map(|i| self.voltage(node, i)).collect()
    }

    /// First time at which `node` drops below `level`, if it ever does.
    pub fn first_crossing_below(&self, node: NodeId, level: f64) -> Option<f64> {
        (0..self.len())
            .find(|&i| self.voltage(node, i) < level)
            .map(|i| self.times[i])
    }

    /// Minimum voltage seen at `node` over the whole run.
    pub fn min_voltage(&self, node: NodeId) -> f64 {
        (0..self.len())
            .map(|i| self.voltage(node, i))
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of node-voltage unknowns (diagnostic).
    pub fn node_unknowns(&self) -> usize {
        self.node_unknowns
    }
}

impl TransientAnalysis {
    /// Creates a driver with step `dt` running until `t_stop`.
    ///
    /// # Panics
    ///
    /// Does not panic; invalid axes are reported by
    /// [`TransientAnalysis::run`].
    pub fn new(dt: f64, t_stop: f64) -> Self {
        TransientAnalysis {
            dt,
            t_stop,
            options: NewtonOptions::default(),
        }
    }

    /// Replaces the solver options.
    pub fn with_options(mut self, options: NewtonOptions) -> Self {
        self.options = options;
        self
    }

    fn validate(&self) -> Result<(), Error> {
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(Error::InvalidTimeAxis(format!(
                "step must be positive, got {}",
                self.dt
            )));
        }
        if !(self.t_stop.is_finite() && self.t_stop > 0.0) {
            return Err(Error::InvalidTimeAxis(format!(
                "stop time must be positive, got {}",
                self.t_stop
            )));
        }
        Ok(())
    }

    /// Runs the analysis starting from the DC operating point.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidTimeAxis`] for a bad time axis; solver errors are
    /// propagated from the initial operating point or any step.
    pub fn run(&self, netlist: &Netlist) -> Result<TransientResult, Error> {
        self.validate()?;
        // One scratch covers the operating point and every time step.
        let mut scratch = SolveScratch::new();
        let op = solve_with_retry_in(netlist, &self.options, None, AnalysisMode::Dc, &mut scratch)?;
        self.integrate(netlist, op.into_raw(), &mut scratch, &|_, _, _| false)
    }

    /// Runs the analysis from an explicit initial unknown vector. This
    /// is how the SRAM retention model imposes "array was just written,
    /// then the supply collapsed" initial conditions.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidTimeAxis`] for a bad time axis; solver errors are
    /// propagated.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` does not match the netlist unknown count.
    pub fn run_from(&self, netlist: &Netlist, x0: Vec<f64>) -> Result<TransientResult, Error> {
        self.run_from_until(netlist, x0, |_, _, _| false)
    }

    /// As [`TransientAnalysis::run_from`], but the run ends after the
    /// first accepted step for which `done(time, previous, accepted)`
    /// holds: `time` is the step's time point, `previous` and
    /// `accepted` the unknown vectors before and after it. The result
    /// then stops at that step.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidTimeAxis`] for a bad time axis; solver errors are
    /// propagated.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` does not match the netlist unknown count.
    pub fn run_from_until(
        &self,
        netlist: &Netlist,
        x0: Vec<f64>,
        done: impl Fn(f64, &[f64], &[f64]) -> bool,
    ) -> Result<TransientResult, Error> {
        self.validate()?;
        assert_eq!(
            x0.len(),
            netlist.num_unknowns(),
            "initial state has wrong dimension"
        );
        let mut scratch = SolveScratch::new();
        self.integrate(netlist, x0, &mut scratch, &done)
    }

    fn integrate(
        &self,
        netlist: &Netlist,
        x0: Vec<f64>,
        scratch: &mut SolveScratch,
        done: &StepDone<'_>,
    ) -> Result<TransientResult, Error> {
        let node_unknowns = netlist.num_nodes() - 1;
        let mut times = vec![0.0];
        let mut states = vec![x0];
        let steps = (self.t_stop / self.dt).ceil() as usize;
        for k in 1..=steps {
            let time = (k as f64 * self.dt).min(self.t_stop);
            let dt = time - times.last().expect("non-empty");
            if dt <= 0.0 {
                break;
            }
            let sol: Solution = {
                // Borrow the previous state in place; the only per-step
                // allocation left is the accepted state pushed below.
                let prev = states.last().expect("non-empty").as_slice();
                let mode = AnalysisMode::Transient { dt, time, prev };
                solve_with_retry_in(netlist, &self.options, Some(prev), mode, scratch)?
            };
            times.push(time);
            states.push(sol.into_raw());
            if let [.., previous, accepted] = states.as_slice() {
                if done(time, previous, accepted) {
                    break;
                }
            }
        }
        obs::counter_add("anasim.transient.steps", (times.len() - 1) as u64);
        Ok(TransientResult {
            times,
            states,
            node_unknowns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::vsource::Waveform;

    #[test]
    fn rejects_bad_axes() {
        let nl = Netlist::new();
        assert!(matches!(
            TransientAnalysis::new(0.0, 1.0).run(&nl),
            Err(Error::InvalidTimeAxis(_))
        ));
        assert!(matches!(
            TransientAnalysis::new(1e-6, -1.0).run(&nl),
            Err(Error::InvalidTimeAxis(_))
        ));
    }

    #[test]
    fn pulse_propagates_through_rc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource_waveform(
            "V",
            a,
            Netlist::GND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1.0e-4,
                rise: 1.0e-5,
                fall: 1.0e-5,
                width: 5.0e-4,
            },
        );
        nl.resistor("R", a, b, 1.0e3).unwrap();
        nl.capacitor("C", b, Netlist::GND, 1.0e-8).unwrap(); // tau = 10 µs
        let tr = TransientAnalysis::new(2.0e-6, 1.0e-3).run(&nl).unwrap();
        // Before the pulse: 0. Mid-pulse (well past 5 tau): ~1. After: ~0.
        assert!(tr.voltage(b, 0).abs() < 1e-6);
        let mid_idx = tr
            .times()
            .iter()
            .position(|&t| t > 4.0e-4)
            .expect("mid point");
        assert!((tr.voltage(b, mid_idx) - 1.0).abs() < 0.02);
        assert!(tr.voltage_at_end(b).abs() < 0.02);
    }

    #[test]
    fn crossing_detection() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        nl.capacitor("C", a, Netlist::GND, 1.0e-6).unwrap();
        let tr = TransientAnalysis::new(1.0e-5, 5.0e-3)
            .run_from(&nl, vec![1.0])
            .unwrap();
        // Crosses 0.5 at t = tau·ln2 ≈ 0.693 ms.
        let t_cross = tr.first_crossing_below(a, 0.5).expect("crosses");
        assert!(
            (t_cross - 0.693e-3).abs() < 0.05e-3,
            "crossing at {t_cross}"
        );
        assert!(tr.first_crossing_below(a, -1.0).is_none());
        assert!(tr.min_voltage(a) < 0.01);
    }

    #[test]
    fn run_ends_after_the_first_step_marked_done() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        nl.capacitor("C", a, Netlist::GND, 1.0e-6).unwrap();
        let analysis = TransientAnalysis::new(1.0e-5, 5.0e-3);
        let full = analysis.run_from(&nl, vec![1.0]).unwrap();
        let cut = analysis
            .run_from_until(&nl, vec![1.0], |_, _, accepted| accepted[0] < 0.5)
            .unwrap();
        // The cut run is the full run's prefix up to and including the
        // first sample below 0.5.
        let first_below = (0..full.len())
            .find(|&i| full.voltage(a, i) < 0.5)
            .expect("crosses");
        assert_eq!(cut.len(), first_below + 1);
        assert_eq!(cut.times(), &full.times()[..cut.len()]);
        assert_eq!(cut.voltage_series(a), full.voltage_series(a)[..cut.len()]);
    }

    #[test]
    fn series_length_and_axis() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let tr = TransientAnalysis::new(1.0e-4, 1.0e-3).run(&nl).unwrap();
        assert_eq!(tr.len(), 11); // t=0 plus 10 steps
        assert!(!tr.is_empty());
        assert_eq!(tr.voltage_series(a).len(), tr.len());
        assert!((tr.times()[10] - 1.0e-3).abs() < 1e-12);
        let _ = tr.voltage(Netlist::GND, 0);
    }
}
