//! Continuous EKV-style MOSFET model.
//!
//! The model interpolates smoothly from weak inversion (subthreshold
//! exponential — the physical origin of the retention-mode leakage the
//! paper's analysis hinges on) to strong inversion (square law with
//! channel-length modulation), using the EKV forward/reverse-current
//! form:
//!
//! ```text
//! I_D = I_S · [F(u_f) − F(u_r)] · (1 + λ·V_DS)
//! F(u) = ln²(1 + e^(u/2)),   I_S = 2·n·β·V_T²
//! u_f  = (V_GS − V_th) / (n·V_T),   u_r = u_f − V_DS / V_T
//! ```
//!
//! `F` is smooth and strictly monotone, so the Jacobian is continuous
//! everywhere — exactly what the damped Newton solver needs near the
//! metastable points of a 6T cell at a few tens of millivolts of supply.

use crate::devices::{sigmoid, softplus};
use crate::error::Error;
use crate::mna::StampContext;
use crate::netlist::{CardId, NodeId};
use crate::K_OVER_Q;

/// Reference temperature for parameter values, degrees Celsius.
pub const T_REF_C: f64 = 25.0;

/// Tiny drain–source conductance stamped unconditionally so stacks of
/// off transistors never produce a floating node.
const CHANNEL_GMIN: f64 = 1.0e-15;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// MOSFET model card. All values are given at [`T_REF_C`]; the model
/// applies its own temperature scaling from `temp_c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Threshold-voltage magnitude at 25 °C, volts.
    pub vth0: f64,
    /// Transconductance factor β = µ·Cox·W/L at 25 °C, A/V².
    pub beta: f64,
    /// Subthreshold slope factor n (≥ 1).
    pub n_slope: f64,
    /// Channel-length modulation λ, 1/V.
    pub lambda: f64,
    /// Drain-induced barrier lowering: `Vth_eff = Vth − dibl·V_DS`,
    /// volts per volt. The dominant mechanism by which supply scaling
    /// reduces subthreshold leakage in short-channel devices.
    pub dibl: f64,
    /// Threshold temperature coefficient: `Vth(T) = vth0 − vth_tc·(T − 25)`,
    /// volts per degree Celsius.
    pub vth_tc: f64,
    /// Mobility exponent: `β(T) = β·(298.15 K / T)^mobility_exp`.
    pub mobility_exp: f64,
    /// Device temperature, degrees Celsius.
    pub temp_c: f64,
}

impl MosParams {
    /// A 40 nm-class NMOS card with the given β and Vth.
    pub fn nmos(beta: f64, vth0: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            vth0,
            beta,
            n_slope: 1.35,
            lambda: 0.08,
            dibl: 0.10,
            vth_tc: 0.8e-3,
            mobility_exp: 1.5,
            temp_c: T_REF_C,
        }
    }

    /// A 40 nm-class PMOS card with the given β and Vth magnitude.
    pub fn pmos(beta: f64, vth0: f64) -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            ..Self::nmos(beta, vth0)
        }
    }

    /// Returns a copy at a different operating temperature.
    pub fn at_temp(mut self, temp_c: f64) -> Self {
        self.temp_c = temp_c;
        self
    }

    /// Returns a copy with the threshold shifted by `delta_vth` volts
    /// (the mechanism through which process corners and within-die
    /// mismatch enter the model).
    pub fn with_vth_shift(mut self, delta_vth: f64) -> Self {
        self.vth0 += delta_vth;
        self
    }

    /// Returns a copy with β scaled by `factor` (corner mobility skew).
    pub fn with_beta_scale(mut self, factor: f64) -> Self {
        self.beta *= factor;
        self
    }

    /// Effective threshold voltage at the card's temperature.
    pub fn vth_at_temp(&self) -> f64 {
        self.vth0 - self.vth_tc * (self.temp_c - T_REF_C)
    }

    /// Effective β at the card's temperature.
    pub fn beta_at_temp(&self) -> f64 {
        let t_k = self.temp_c + 273.15;
        self.beta * (298.15 / t_k).powf(self.mobility_exp)
    }

    /// The card as nine words, bit for bit: the polarity, then every
    /// value. Netlist cards are equal exactly when their words are.
    /// Destructures the card in full, so a new model field cannot be
    /// left out of card interning or the partition plan's fingerprint.
    pub(crate) fn words(&self) -> [u64; 9] {
        let MosParams {
            polarity,
            vth0,
            beta,
            n_slope,
            lambda,
            dibl,
            vth_tc,
            mobility_exp,
            temp_c,
        } = *self;
        [
            polarity as u64,
            vth0.to_bits(),
            beta.to_bits(),
            n_slope.to_bits(),
            lambda.to_bits(),
            dibl.to_bits(),
            vth_tc.to_bits(),
            mobility_exp.to_bits(),
            temp_c.to_bits(),
        ]
    }

    pub(crate) fn validate(&self, name: &str) -> Result<(), Error> {
        let bad = |what: String| Error::InvalidValue {
            device: name.to_string(),
            what,
        };
        if !(self.beta.is_finite() && self.beta > 0.0) {
            return Err(bad(format!("beta must be positive, got {}", self.beta)));
        }
        if !self.vth0.is_finite() {
            return Err(bad(format!("vth0 must be finite, got {}", self.vth0)));
        }
        if !(self.n_slope.is_finite() && self.n_slope >= 1.0) {
            return Err(bad(format!("n_slope must be >= 1, got {}", self.n_slope)));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(bad(format!("lambda must be >= 0, got {}", self.lambda)));
        }
        if !(self.dibl.is_finite() && (0.0..1.0).contains(&self.dibl)) {
            return Err(bad(format!("dibl must be in [0, 1), got {}", self.dibl)));
        }
        if !self.temp_c.is_finite() || self.temp_c <= -273.15 {
            return Err(bad(format!("temperature out of range: {}", self.temp_c)));
        }
        Ok(())
    }

    /// Drain current and small-signal conductances in the normalized
    /// (source-referenced, `vds ≥ 0`) frame.
    ///
    /// Returns `(i_d, gm, gds)`, all non-negative.
    pub fn ids(&self, vgs: f64, vds: f64) -> (f64, f64, f64) {
        debug_assert!(vds >= 0.0, "ids() expects a normalized frame");
        let t_k = self.temp_c + 273.15;
        let vt = K_OVER_Q * t_k;
        let n = self.n_slope;
        let vth = self.vth_at_temp();
        let beta_t = self.beta_at_temp();
        let i_spec = 2.0 * n * beta_t * vt * vt;

        // DIBL lowers the effective barrier with drain bias.
        let u_f = (vgs - vth + self.dibl * vds) / (n * vt);
        let u_r = u_f - vds / vt;
        let sp_f = softplus(u_f / 2.0);
        let sp_r = softplus(u_r / 2.0);
        let f_f = sp_f * sp_f;
        let f_r = sp_r * sp_r;
        let fp_f = sp_f * sigmoid(u_f / 2.0); // dF/du at u_f
        let fp_r = sp_r * sigmoid(u_r / 2.0);

        let core = f_f - f_r;
        let clm = 1.0 + self.lambda * vds;
        let i = i_spec * core * clm;
        let gm = i_spec * (fp_f - fp_r) / (n * vt) * clm;
        // d(core)/dVds: both u_f and u_r move with Vds (DIBL on the
        // forward term; DIBL minus the direct drain term on the
        // reverse term).
        let dcore_dvds = fp_f * self.dibl / (n * vt) + fp_r * (1.0 / vt - self.dibl / (n * vt));
        let gds = i_spec * dcore_dvds * clm + i_spec * core * self.lambda;
        (i, gm.max(0.0), gds.max(0.0))
    }

    /// Off-state (V_GS = 0) channel leakage at `vds`, amperes. This is
    /// the quantity the SRAM leakage model aggregates over the array.
    pub fn off_leakage(&self, vds: f64) -> f64 {
        self.ids(0.0, vds.abs()).0
    }
}

/// Stamps a three-terminal MOSFET (bulk tied to the source rail
/// implicitly) with terminals drain `d`, gate `g`, source `s` and the
/// netlist's model card `card`, linearized at the estimate carried by
/// `ctx`.
pub(crate) fn stamp(d: NodeId, g: NodeId, s: NodeId, card: CardId, ctx: &mut StampContext<'_>) {
    let params = ctx.card(card);
    let sign = match params.polarity {
        MosPolarity::Nmos => 1.0,
        MosPolarity::Pmos => -1.0,
    };
    // Work in the "primed" frame where the device always looks like
    // an NMOS: voltages are negated for PMOS; the terminal at higher
    // primed potential acts as the drain.
    let vd_p = sign * ctx.voltage(d);
    let vg_p = sign * ctx.voltage(g);
    let vs_p = sign * ctx.voltage(s);
    let (drn, src, v_drn, v_src) = if vd_p >= vs_p {
        (d, s, vd_p, vs_p)
    } else {
        (s, d, vs_p, vd_p)
    };
    let vgs = vg_p - v_src;
    let vds = v_drn - v_src;
    let (i0, gm, gds) = params.ids(vgs, vds);

    // Conductances are invariant under the frame change; only the
    // constant (companion) current picks up the sign.
    let ieq = sign * (i0 - gm * vgs - gds * vds);

    ctx.mat_node_node(drn, g, gm);
    ctx.mat_node_node(drn, drn, gds);
    ctx.mat_node_node(drn, src, -(gm + gds));
    ctx.rhs_node(drn, -ieq);

    ctx.mat_node_node(src, g, -gm);
    ctx.mat_node_node(src, drn, -gds);
    ctx.mat_node_node(src, src, gm + gds);
    ctx.rhs_node(src, ieq);

    // Keep stacked off devices numerically grounded.
    ctx.stamp_conductance(d, s, CHANNEL_GMIN);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    fn default_nmos() -> MosParams {
        MosParams::nmos(4.0e-4, 0.45)
    }

    #[test]
    fn saturation_matches_square_law() {
        let p = default_nmos();
        let vgs = 1.0;
        let vds = 1.0;
        let (i, _, _) = p.ids(vgs, vds);
        let n = p.n_slope;
        let vth_eff = p.vth0 - p.dibl * vds;
        let expected = p.beta / (2.0 * n) * (vgs - vth_eff).powi(2) * (1.0 + p.lambda * vds);
        let rel = (i - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "saturation current {i} vs square law {expected}"
        );
    }

    #[test]
    fn subthreshold_slope_is_n_vt_ln10() {
        let p = default_nmos();
        let vds = 0.3; // deep subthreshold even with DIBL
        let (i1, _, _) = p.ids(0.0, vds);
        let decade = p.n_slope * K_OVER_Q * 298.15 * std::f64::consts::LN_10;
        let (i2, _, _) = p.ids(decade, vds);
        let ratio = i2 / i1;
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "one decade per n·Vt·ln10 expected, got ratio {ratio}"
        );
    }

    #[test]
    fn dibl_raises_off_leakage_with_drain_bias() {
        // The mechanism behind deep-sleep power savings: lowering the
        // rail from 1.1 V to 0.77 V cuts subthreshold leakage by more
        // than the bare (1 − e^(−V/Vt)) factor.
        let p = default_nmos();
        let hi = p.off_leakage(1.1);
        let lo = p.off_leakage(0.77);
        assert!(hi / lo > 2.0, "DIBL leverage {}", hi / lo);
        let mut no_dibl = p;
        no_dibl.dibl = 0.0;
        let ratio_flat = no_dibl.off_leakage(1.1) / no_dibl.off_leakage(0.77);
        assert!(
            ratio_flat < 1.2,
            "without DIBL the ratio collapses: {ratio_flat}"
        );
    }

    #[test]
    fn off_leakage_grows_with_temperature() {
        let cold = default_nmos().at_temp(-30.0).off_leakage(1.1);
        let room = default_nmos().at_temp(25.0).off_leakage(1.1);
        let hot = default_nmos().at_temp(125.0).off_leakage(1.1);
        assert!(cold < room && room < hot, "{cold} < {room} < {hot}");
        // Orders of magnitude between -30 °C and 125 °C.
        assert!(hot / cold > 1.0e2, "leak ratio {}", hot / cold);
    }

    #[test]
    fn gm_and_gds_match_numeric_derivatives() {
        let p = default_nmos();
        for &(vgs, vds) in &[(0.2, 0.05), (0.5, 0.5), (0.8, 1.0), (0.44, 0.3), (1.2, 0.1)] {
            let h = 1e-7;
            let (_, gm, gds) = p.ids(vgs, vds);
            let num_gm = (p.ids(vgs + h, vds).0 - p.ids(vgs - h, vds).0) / (2.0 * h);
            let num_gds = (p.ids(vgs, vds + h).0 - p.ids(vgs, vds - h).0) / (2.0 * h);
            assert!(
                (gm - num_gm).abs() <= 1e-5 * num_gm.abs().max(1e-12),
                "gm at ({vgs},{vds}): {gm} vs {num_gm}"
            );
            assert!(
                (gds - num_gds).abs() <= 1e-4 * num_gds.abs().max(1e-9),
                "gds at ({vgs},{vds}): {gds} vs {num_gds}"
            );
        }
    }

    #[test]
    fn current_is_monotone_in_vgs_and_vds() {
        let p = default_nmos();
        let mut last = 0.0;
        for step in 0..40 {
            let vgs = step as f64 * 0.03;
            let (i, _, _) = p.ids(vgs, 0.6);
            assert!(i >= last);
            last = i;
        }
        let mut last = 0.0;
        for step in 0..40 {
            let vds = step as f64 * 0.03;
            let (i, _, _) = p.ids(0.7, vds);
            assert!(i >= last - 1e-18);
            last = i;
        }
    }

    #[test]
    fn vth_shift_moves_current() {
        let p = default_nmos();
        let lo = p.with_vth_shift(-0.1).ids(0.5, 1.0).0;
        let hi = p.with_vth_shift(0.1).ids(0.5, 1.0).0;
        let mid = p.ids(0.5, 1.0).0;
        assert!(lo > mid && mid > hi);
    }

    #[test]
    fn nmos_common_source_amplifier_inverts() {
        // Resistor-loaded NMOS: low gate -> output high; high gate ->
        // output pulled low.
        let out_at = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let g = nl.node("g");
            let d = nl.node("d");
            nl.vsource("VDD", vdd, Netlist::GND, 1.1);
            nl.vsource("VIN", g, Netlist::GND, vin);
            nl.resistor("RL", vdd, d, 20.0e3).unwrap();
            nl.mosfet("M1", d, g, Netlist::GND, MosParams::nmos(4.0e-4, 0.45))
                .unwrap();
            DcAnalysis::new().operating_point(&nl).unwrap().voltage(d)
        };
        assert!(out_at(0.0) > 1.05);
        // Full overdrive leaves the device in deep triode against the
        // 20 kΩ load: V_out = R·I ≈ 0.23 V for this sizing.
        assert!(out_at(1.1) < 0.3);
        assert!(out_at(0.0) > out_at(0.6));
    }

    #[test]
    fn pmos_common_source_amplifier() {
        // PMOS from VDD with resistive pull-down: gate low -> conducts.
        let out_at = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let g = nl.node("g");
            let d = nl.node("d");
            nl.vsource("VDD", vdd, Netlist::GND, 1.1);
            nl.vsource("VIN", g, Netlist::GND, vin);
            nl.resistor("RL", d, Netlist::GND, 100.0e3).unwrap();
            nl.mosfet("M1", d, g, vdd, MosParams::pmos(2.0e-4, 0.45))
                .unwrap();
            DcAnalysis::new().operating_point(&nl).unwrap().voltage(d)
        };
        assert!(out_at(0.0) > 0.9, "on-state {}", out_at(0.0));
        assert!(out_at(1.1) < 0.1, "off-state {}", out_at(1.1));
    }

    #[test]
    fn cmos_inverter_transfer_curve() {
        let out_at = |vin: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let g = nl.node("in");
            let d = nl.node("out");
            nl.vsource("VDD", vdd, Netlist::GND, 1.1);
            nl.vsource("VIN", g, Netlist::GND, vin);
            nl.mosfet("MP", d, g, vdd, MosParams::pmos(4.0e-4, 0.45))
                .unwrap();
            nl.mosfet("MN", d, g, Netlist::GND, MosParams::nmos(4.0e-4, 0.45))
                .unwrap();
            DcAnalysis::new().operating_point(&nl).unwrap().voltage(d)
        };
        let lo_in = out_at(0.0);
        let hi_in = out_at(1.1);
        assert!(lo_in > 1.0, "inverter high output {lo_in}");
        assert!(hi_in < 0.1, "inverter low output {hi_in}");
        // Monotone decreasing transfer curve.
        let mut last = f64::INFINITY;
        for step in 0..=22 {
            let v = out_at(step as f64 * 0.05);
            assert!(v <= last + 1e-9, "VTC not monotone at step {step}");
            last = v;
        }
    }

    #[test]
    fn drain_source_swap_is_symmetric() {
        // With gate overdrive and reversed polarity of vds, the device
        // conducts symmetrically (no lambda for exact symmetry).
        let mut p = default_nmos();
        p.lambda = 0.0;
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let g = nl.node("g");
        nl.vsource("VG", g, Netlist::GND, 1.0);
        nl.vsource("VA", a, Netlist::GND, -0.2); // source side above drain
        nl.mosfet("M1", a, g, Netlist::GND, p).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        // Current flows, and the solve converges despite vds < 0 at the
        // nominal terminal assignment.
        let i = sol.branch_current(&nl, "VA").unwrap();
        assert!(i.abs() > 1e-6, "swap frame conducts, i = {i}");
    }

    #[test]
    fn params_validate() {
        assert!(MosParams::nmos(-1.0, 0.4).validate("M").is_err());
        assert!(MosParams::nmos(1e-4, f64::NAN).validate("M").is_err());
        let mut p = default_nmos();
        p.n_slope = 0.5;
        assert!(p.validate("M").is_err());
        let mut p = default_nmos();
        p.lambda = -0.1;
        assert!(p.validate("M").is_err());
        assert!(default_nmos().validate("M").is_ok());
    }

    #[test]
    fn temperature_scaling_of_card() {
        let p = default_nmos().at_temp(125.0);
        assert!(p.vth_at_temp() < p.vth0);
        assert!(p.beta_at_temp() < p.beta);
        let cold = default_nmos().at_temp(-30.0);
        assert!(cold.vth_at_temp() > cold.vth0);
        assert!(cold.beta_at_temp() > cold.beta);
    }
}
