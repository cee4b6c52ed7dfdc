//! DC operating point and sweep analyses.

use crate::error::Error;
use crate::mna::AnalysisMode;
use crate::netlist::{Netlist, SourceId};
use crate::newton::{solve_with_retry_in, NewtonOptions, Solution};
use crate::scratch::SolveScratch;

/// DC analysis driver: default [`NewtonOptions`] under the fixed
/// [`solve_with_retry`](crate::newton::solve_with_retry) escalation.
///
/// ```
/// use anasim::{Netlist, dc::DcAnalysis};
/// # fn main() -> Result<(), anasim::Error> {
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// nl.vsource("V", a, Netlist::GND, 1.0);
/// nl.resistor("R", a, Netlist::GND, 50.0)?;
/// let op = DcAnalysis::new().operating_point(&nl)?;
/// assert!((op.voltage(a) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DcAnalysis;

impl DcAnalysis {
    /// Creates a driver.
    pub fn new() -> Self {
        DcAnalysis
    }

    /// Solves the DC operating point.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`Error::NoConvergence`],
    /// [`Error::SingularMatrix`]) after every retry attempt failed.
    pub fn operating_point(&self, netlist: &Netlist) -> Result<Solution, Error> {
        let mut scratch = SolveScratch::new();
        self.operating_point_in(netlist, None, &mut scratch)
    }

    /// Solves the DC operating point starting from a previous solution
    /// vector (warm start).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn operating_point_from(&self, netlist: &Netlist, x0: &[f64]) -> Result<Solution, Error> {
        let mut scratch = SolveScratch::new();
        self.operating_point_in(netlist, Some(x0), &mut scratch)
    }

    /// Solves the DC operating point in caller-provided scratch
    /// buffers, optionally warm-started from `x0`. The hot path for
    /// repeated solves: one scratch threaded through a whole campaign
    /// keeps the inner Newton loop allocation-free. Results are
    /// bit-identical to [`operating_point`] / [`operating_point_from`].
    ///
    /// [`operating_point`]: DcAnalysis::operating_point
    /// [`operating_point_from`]: DcAnalysis::operating_point_from
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn operating_point_in(
        &self,
        netlist: &Netlist,
        x0: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> Result<Solution, Error> {
        solve_with_retry_in(
            netlist,
            &NewtonOptions::default(),
            x0,
            AnalysisMode::Dc,
            scratch,
        )
    }

    /// Sweeps the value of `source` over `values`, warm-starting each
    /// point from the previous one, and returns one solution per value.
    /// The source is restored to its original value afterwards.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySweep`] if `values` is empty; solver failures are
    /// propagated with the source already restored.
    pub fn sweep_source(
        &self,
        netlist: &mut Netlist,
        source: SourceId,
        values: &[f64],
    ) -> Result<Vec<Solution>, Error> {
        if values.is_empty() {
            return Err(Error::EmptySweep);
        }
        let original = netlist.source(source);
        let mut out = Vec::with_capacity(values.len());
        // One scratch and one warm-start buffer across the whole sweep;
        // neither reallocates after the first point.
        let mut scratch = SolveScratch::new();
        let mut warm: Vec<f64> = Vec::new();
        for &v in values {
            netlist.set_source(source, v);
            let x0 = if warm.is_empty() {
                None
            } else {
                Some(warm.as_slice())
            };
            let result = solve_with_retry_in(
                netlist,
                &NewtonOptions::default(),
                x0,
                AnalysisMode::Dc,
                &mut scratch,
            );
            match result {
                Ok(sol) => {
                    warm.clear();
                    warm.extend_from_slice(sol.raw());
                    out.push(sol);
                }
                Err(e) => {
                    netlist.set_source(source, original);
                    return Err(e);
                }
            }
        }
        netlist.set_source(source, original);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mosfet::MosParams;

    #[test]
    fn sweep_restores_source() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let v = nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let sols = DcAnalysis::new()
            .sweep_source(&mut nl, v, &[0.0, 0.5, 1.0, 1.5])
            .unwrap();
        assert_eq!(sols.len(), 4);
        assert!((sols[3].voltage(a) - 1.5).abs() < 1e-12);
        assert_eq!(nl.source(v), 1.0);
    }

    #[test]
    fn empty_sweep_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let v = nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        assert!(matches!(
            DcAnalysis::new().sweep_source(&mut nl, v, &[]),
            Err(Error::EmptySweep)
        ));
    }

    #[test]
    fn inverter_vtc_sweep_is_monotone() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let input = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        let vin = nl.vsource("VIN", input, Netlist::GND, 0.0);
        nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
            .unwrap();
        nl.mosfet(
            "MN",
            out,
            input,
            Netlist::GND,
            MosParams::nmos(4.0e-4, 0.45),
        )
        .unwrap();
        let points: Vec<f64> = (0..=22).map(|i| i as f64 * 0.05).collect();
        let sols = DcAnalysis::new()
            .sweep_source(&mut nl, vin, &points)
            .unwrap();
        let mut last = f64::INFINITY;
        for sol in &sols {
            let v = sol.voltage(out);
            assert!(v <= last + 1e-9);
            last = v;
        }
        assert!(sols[0].voltage(out) > 1.0);
        assert!(sols.last().unwrap().voltage(out) < 0.1);
    }

    #[test]
    fn warm_start_speeds_up_nearby_points() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.resistor("RL", vdd, out, 10.0e3).unwrap();
        nl.mosfet("MN", out, vdd, Netlist::GND, MosParams::nmos(4.0e-4, 0.45))
            .unwrap();
        let dc = DcAnalysis::new();
        let cold = dc.operating_point(&nl).unwrap();
        let warm = dc.operating_point_from(&nl, cold.raw()).unwrap();
        assert!(warm.stats.iterations <= cold.stats.iterations);
        assert!((warm.voltage(out) - cold.voltage(out)).abs() < 1e-6);
    }
}
