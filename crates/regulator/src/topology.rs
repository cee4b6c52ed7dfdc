//! Electrical topology of the embedded voltage regulator.
//!
//! The circuit follows the paper's Fig. 2/Fig. 5: a polysilicon divider
//! (`R1`–`R6`) generates four reference taps (0.78/0.74/0.70/0.64·VDD)
//! and one bias tap (0.52·VDD); a five-transistor OTA (current mirror
//! `MPreg3`/`MPreg4` over differential pair `MNreg2`/`MNreg3`, tail
//! device `MNreg1`) drives the common-source output PMOS `MPreg1` whose
//! drain is the regulated rail `Vreg`; pull-up `MPreg2` parks the
//! output device off when the regulator is disabled. `Vref` feeds
//! `MNreg2`'s gate, the `Vreg` feedback returns to `MNreg3`'s gate, so
//! the loop settles at `Vreg = Vref`.
//!
//! All 32 resistive-open defect sites of [`crate::defect`] are built
//! into the netlist as series resistances (1 mΩ when absent), so a
//! characterization sweep only touches a parameter table — the
//! amplifier is never re-stamped from scratch.

use anasim::dc::DcAnalysis;
use anasim::devices::mosfet::MosParams;
use anasim::devices::vsource::Waveform;
use anasim::netlist::ParamId;
use anasim::{Netlist, NodeId, SolveScratch};
use process::PvtCondition;
use sram::ArrayLoad;

use crate::defect::Defect;

/// Resistance representing an absent defect, ohms.
pub const NO_DEFECT_OHMS: f64 = 1.0e-3;

/// Resistances above this are treated as full opens, matching the
/// paper's "> 500 MΩ" notation.
pub const OPEN_THRESHOLD_OHMS: f64 = 500.0e6;

/// The four selectable reference taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VrefTap {
    /// `Vref78` = 0.78·VDD.
    V78,
    /// `Vref74` = 0.74·VDD.
    V74,
    /// `Vref70` = 0.70·VDD.
    V70,
    /// `Vref64` = 0.64·VDD.
    V64,
}

impl VrefTap {
    /// All four taps, highest first.
    pub const ALL: [VrefTap; 4] = [VrefTap::V78, VrefTap::V74, VrefTap::V70, VrefTap::V64];

    /// The tap's fraction of VDD.
    pub fn fraction(self) -> f64 {
        match self {
            VrefTap::V78 => 0.78,
            VrefTap::V74 => 0.74,
            VrefTap::V70 => 0.70,
            VrefTap::V64 => 0.64,
        }
    }

    /// Decodes the `VrefSel<1:0>` primary inputs of the paper's
    /// Vref/Vbias selector (§II.B). The encoding itself is "not
    /// relevant for the study" per the paper; this implementation uses
    /// the natural descending order.
    pub fn from_sel(sel1: bool, sel0: bool) -> VrefTap {
        match (sel1, sel0) {
            (false, false) => VrefTap::V78,
            (false, true) => VrefTap::V74,
            (true, false) => VrefTap::V70,
            (true, true) => VrefTap::V64,
        }
    }

    /// The `VrefSel<1:0>` inputs selecting this tap (inverse of
    /// [`VrefTap::from_sel`]).
    pub fn sel_inputs(self) -> (bool, bool) {
        match self {
            VrefTap::V78 => (false, false),
            VrefTap::V74 => (false, true),
            VrefTap::V70 => (true, false),
            VrefTap::V64 => (true, true),
        }
    }
}

impl std::fmt::Display for VrefTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}*VDD", self.fraction())
    }
}

/// Fraction of VDD at the bias tap.
pub const BIAS_FRACTION: f64 = 0.52;

/// Edge time of the stepped gate feed in an activation transient,
/// seconds: the `Vbias` or `Vref` line ramps from 0 to its tap value in
/// 10 ns after the ACT→DS switch (and would fall as fast, long after
/// any simulated window). Past this edge every source in the netlist
/// is constant, which the activation transient's early end relies on.
pub(crate) const ACTIVATION_EDGE_SECONDS: f64 = 10.0e-9;

/// Device sizing and passive values of the regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegulatorDesign {
    /// Total divider resistance `R1+…+R6`, ohms.
    pub divider_total: f64,
    /// Selector mux on-resistance, ohms.
    pub mux_resistance: f64,
    /// Tail bias NMOS `MNreg1`.
    pub bias_nmos: MosParams,
    /// Differential pair NMOS `MNreg2`/`MNreg3`.
    pub diff_nmos: MosParams,
    /// Mirror PMOS `MPreg3`/`MPreg4`.
    pub mirror_pmos: MosParams,
    /// Output stage PMOS `MPreg1`.
    pub output_pmos: MosParams,
    /// Gate pull-up PMOS `MPreg2`.
    pub pullup_pmos: MosParams,
    /// Capacitance of the V_DD_CC rail (array + wiring), farads.
    pub rail_capacitance: f64,
    /// Gate-line capacitance at the amplifier inputs, farads.
    pub gate_capacitance: f64,
}

impl RegulatorDesign {
    /// The modeled 40 nm LP regulator.
    ///
    /// The amplifier devices are long-channel (low λ and DIBL), as is
    /// universal for analog blocks: with minimum-length devices the
    /// mirror's drain-voltage mismatch would induce tens of millivolts
    /// of systematic offset, defeating the "Vreg must equal Vref" spec.
    pub fn lp40nm() -> Self {
        let long = |p: MosParams| MosParams {
            lambda: 0.01,
            dibl: 0.005,
            ..p
        };
        RegulatorDesign {
            divider_total: 500.0e3,
            mux_resistance: 1.0e3,
            bias_nmos: long(MosParams::nmos(4.0e-4, 0.45)),
            diff_nmos: long(MosParams::nmos(4.0e-4, 0.45)),
            mirror_pmos: long(MosParams::pmos(8.0e-4, 0.45)),
            output_pmos: long(MosParams::pmos(1.6e-2, 0.45)),
            pullup_pmos: long(MosParams::pmos(1.0e-5, 0.45)),
            rail_capacitance: 50.0e-12,
            gate_capacitance: 50.0e-15,
        }
    }

    /// The six divider resistors, top (`R1`) to bottom (`R6`), derived
    /// from the tap fractions.
    pub fn divider_resistors(&self) -> [f64; 6] {
        let t = self.divider_total;
        [
            (1.0 - 0.78) * t,
            (0.78 - 0.74) * t,
            (0.74 - 0.70) * t,
            (0.70 - 0.64) * t,
            (0.64 - BIAS_FRACTION) * t,
            BIAS_FRACTION * t,
        ]
    }
}

impl Default for RegulatorDesign {
    fn default() -> Self {
        Self::lp40nm()
    }
}

/// How the amplifier's input lines are fed — static for DC studies, or
/// stepped at `t = 0` for the activation transients of Df8/Df11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedMode {
    /// Both `Vbias` and `Vref` come from the divider through the
    /// selector mux (deep-sleep steady state).
    Static,
    /// `Vbias` steps from 0 to its tap value at `t = 0` (regulator
    /// activation); `Vref` is static. Exercises Df8.
    BiasActivation,
    /// `Vref` steps from 0 to its tap value at `t = 0` (selector
    /// break-before-make); `Vbias` is static. Exercises Df11.
    VrefActivation,
}

/// Solved operating point of the regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegulatorOp {
    /// Regulated output at the amplifier side of Df32, volts.
    pub vreg: f64,
    /// Core-array rail voltage (after Df32), volts.
    pub vddcc: f64,
    /// Divider tap voltages `[Vref78, Vref74, Vref70, Vref64, Vbias52]`.
    pub taps: [f64; 5],
    /// Error-amplifier tail bias current, amperes.
    pub bias_current: f64,
    /// Load current delivered to the array model, amperes.
    pub load_current: f64,
    /// Error-amplifier output node (MPreg1 gate drive), volts.
    pub amp_out: f64,
}

/// The regulator netlist with its defect and load parameter handles.
#[derive(Debug)]
pub struct RegulatorCircuit {
    nl: Netlist,
    defects: [ParamId; 32],
    load_res: ParamId,
    vdd_value: f64,
    tap_fraction: f64,
    n_taps: [NodeId; 5],
    n_vreg: NodeId,
    n_vddcc: NodeId,
    n_out: NodeId,
    n_mn1_gate: NodeId,
    n_mn1_src: NodeId,
    n_mn2_gate: NodeId,
    warm: Option<Vec<f64>>,
    scratch: SolveScratch,
}

impl RegulatorCircuit {
    /// Builds the regulator at the given PVT in deep-sleep mode
    /// (`REGON = 1`), referencing the selected tap.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn new(
        design: &RegulatorDesign,
        pvt: PvtCondition,
        tap: VrefTap,
        feed: FeedMode,
    ) -> Result<Self, anasim::Error> {
        let mut nl = Netlist::new();
        let at = |p: MosParams| pvt.corner.apply(p).at_temp(pvt.temp_c);

        let vdd = nl.node("vdd");
        nl.vsource("VDD", vdd, Netlist::GND, pvt.vdd);

        // -- defect resistors ------------------------------------------------
        // All 32 sites exist from the start; injection = set_param.
        let mut defects: Vec<ParamId> = Vec::with_capacity(32);
        // Placeholder fill; each site overwritten below in order.
        // (Build order must follow defect numbering.)

        // Divider chain with Df1..Df6 in series with R1..R6.
        let rdiv = design.divider_resistors();
        let a1 = nl.node("div_a1");
        let d1 = nl.resistor("Df1", vdd, a1, NO_DEFECT_OHMS)?;
        let n78 = nl.node("vref78");
        nl.resistor("R1", a1, n78, rdiv[0])?;
        let a2 = nl.node("div_a2");
        let d2 = nl.resistor("Df2", n78, a2, NO_DEFECT_OHMS)?;
        let n74 = nl.node("vref74");
        nl.resistor("R2", a2, n74, rdiv[1])?;
        let a3 = nl.node("div_a3");
        let d3_ = nl.resistor("Df3", n74, a3, NO_DEFECT_OHMS)?;
        let n70 = nl.node("vref70");
        nl.resistor("R3", a3, n70, rdiv[2])?;
        let a4 = nl.node("div_a4");
        let d4 = nl.resistor("Df4", n70, a4, NO_DEFECT_OHMS)?;
        let n64 = nl.node("vref64");
        nl.resistor("R4", a4, n64, rdiv[3])?;
        let a5 = nl.node("div_a5");
        let d5 = nl.resistor("Df5", n64, a5, NO_DEFECT_OHMS)?;
        let n52 = nl.node("vbias52");
        nl.resistor("R5", a5, n52, rdiv[4])?;
        // The long poly run to ground carries three open sites (Df6,
        // Df27, Df31): an open anywhere in it raises every tap.
        let a6 = nl.node("div_a6");
        let d6 = nl.resistor("Df6", n52, a6, NO_DEFECT_OHMS)?;
        let a6b = nl.node("div_a6b");
        let d27 = nl.resistor("Df27", a6, a6b, NO_DEFECT_OHMS)?;
        let a6c = nl.node("div_a6c");
        let d31 = nl.resistor("Df31", a6b, a6c, NO_DEFECT_OHMS)?;
        nl.resistor("R6", a6c, Netlist::GND, rdiv[5])?;
        defects.extend([d1, d2, d3_, d4, d5, d6]);

        // -- amplifier supply ------------------------------------------------
        let vdd_amp = nl.node("vdd_amp");
        // Df29 sits here but must be registered at index 28; create the
        // resistor now, remember the handle.
        let d29 = nl.resistor("Df29", vdd, vdd_amp, NO_DEFECT_OHMS)?;

        // -- selector feeds ---------------------------------------------------
        let tap_node = match tap {
            VrefTap::V78 => n78,
            VrefTap::V74 => n74,
            VrefTap::V70 => n70,
            VrefTap::V64 => n64,
        };
        let vref_line = nl.node("vref_line");
        let vbias_line = nl.node("vbias_line");
        match feed {
            FeedMode::Static => {
                nl.resistor("Rmux_ref", tap_node, vref_line, design.mux_resistance)?;
                nl.resistor("Rmux_bias", n52, vbias_line, design.mux_resistance)?;
            }
            FeedMode::BiasActivation => {
                nl.resistor("Rmux_ref", tap_node, vref_line, design.mux_resistance)?;
                nl.vsource_waveform(
                    "Vbias_step",
                    vbias_line,
                    Netlist::GND,
                    Waveform::Pulse {
                        v0: 0.0,
                        v1: BIAS_FRACTION * pvt.vdd,
                        delay: 0.0,
                        rise: ACTIVATION_EDGE_SECONDS,
                        fall: ACTIVATION_EDGE_SECONDS,
                        width: 1.0e3, // effectively forever
                    },
                );
            }
            FeedMode::VrefActivation => {
                nl.resistor("Rmux_bias", n52, vbias_line, design.mux_resistance)?;
                nl.vsource_waveform(
                    "Vref_step",
                    vref_line,
                    Netlist::GND,
                    Waveform::Pulse {
                        v0: 0.0,
                        v1: tap.fraction() * pvt.vdd,
                        delay: 0.0,
                        rise: ACTIVATION_EDGE_SECONDS,
                        fall: ACTIVATION_EDGE_SECONDS,
                        width: 1.0e3,
                    },
                );
            }
        }

        // -- error amplifier ---------------------------------------------------
        let tail = nl.node("tail");
        let d3 = nl.node("mirror_d3");
        let out = nl.node("amp_out");

        // Tail bias device MNreg1 with Df7 (drain), Df8 (gate), Df9 (source).
        let mn1_drain = nl.node("mn1_drain");
        let d7 = nl.resistor("Df7", tail, mn1_drain, NO_DEFECT_OHMS)?;
        let mn1_gate = nl.node("mn1_gate");
        let d8 = nl.resistor("Df8", vbias_line, mn1_gate, NO_DEFECT_OHMS)?;
        let mn1_src = nl.node("mn1_src");
        let d9 = nl.resistor("Df9", mn1_src, Netlist::GND, NO_DEFECT_OHMS)?;
        nl.mosfet("MNreg1", mn1_drain, mn1_gate, mn1_src, at(design.bias_nmos))?;
        nl.capacitor("Cg_bias", mn1_gate, Netlist::GND, design.gate_capacitance)?;

        // Input device MNreg2 (gate = Vref). Its drain branch carries
        // half the tail current and reaches the output node through two
        // series segments, Df10 and Df12 — an open in either lifts the
        // output node (and with it MPreg1's gate) by I·R, degrading
        // Vreg, which is exactly the paper's description of both.
        let mn2_mid = nl.node("mn2_mid");
        let d10 = nl.resistor("Df10", out, mn2_mid, NO_DEFECT_OHMS)?;
        let mn2_drain = nl.node("mn2_drain");
        let d12 = nl.resistor("Df12", mn2_mid, mn2_drain, NO_DEFECT_OHMS)?;
        let mn2_gate = nl.node("mn2_gate");
        let d11 = nl.resistor("Df11", vref_line, mn2_gate, NO_DEFECT_OHMS)?;
        nl.mosfet("MNreg2", mn2_drain, mn2_gate, tail, at(design.diff_nmos))?;
        nl.capacitor("Cg_ref", mn2_gate, Netlist::GND, design.gate_capacitance)?;

        // Output gate line: out -[Df24]- MPreg1 gate (no DC current).
        let mp1_gate = nl.node("mp1_gate");
        let d24 = nl.resistor("Df24", out, mp1_gate, NO_DEFECT_OHMS)?;

        // Mirror out PMOS MPreg4: source via Df13+Df28, drain via Df15,
        // gate via Df17.
        let e1 = nl.node("mp4_e1");
        let d13 = nl.resistor("Df13", vdd_amp, e1, NO_DEFECT_OHMS)?;
        let mp4_src = nl.node("mp4_src");
        let d28 = nl.resistor("Df28", e1, mp4_src, NO_DEFECT_OHMS)?;
        let mp4_drain = nl.node("mp4_drain");
        let d15 = nl.resistor("Df15", mp4_drain, out, NO_DEFECT_OHMS)?;
        let mp4_gate = nl.node("mp4_gate");
        let d17 = nl.resistor("Df17", d3, mp4_gate, NO_DEFECT_OHMS)?;
        nl.mosfet(
            "MPreg4",
            mp4_drain,
            mp4_gate,
            mp4_src,
            at(design.mirror_pmos),
        )?;

        // Diode mirror PMOS MPreg3: source via Df23+Df26, gate via Df14.
        let c1 = nl.node("mp3_c1");
        let d23 = nl.resistor("Df23", vdd_amp, c1, NO_DEFECT_OHMS)?;
        let mp3_src = nl.node("mp3_src");
        let d26 = nl.resistor("Df26", c1, mp3_src, NO_DEFECT_OHMS)?;
        let mp3_gate = nl.node("mp3_gate");
        let d14 = nl.resistor("Df14", d3, mp3_gate, NO_DEFECT_OHMS)?;
        nl.mosfet("MPreg3", d3, mp3_gate, mp3_src, at(design.mirror_pmos))?;

        // Feedback device MNreg3: drain via Df22 (mirror reference
        // branch), gate via Df18 (sense line), source via Df20+Df30.
        let mn3_drain = nl.node("mn3_drain");
        let d22 = nl.resistor("Df22", d3, mn3_drain, NO_DEFECT_OHMS)?;
        let vreg = nl.node("vreg");
        let mn3_gate = nl.node("mn3_gate");
        let d18 = nl.resistor("Df18", vreg, mn3_gate, NO_DEFECT_OHMS)?;
        let f1 = nl.node("mn3_f1");
        let mn3_src = nl.node("mn3_src");
        let d20 = nl.resistor("Df20", mn3_src, f1, NO_DEFECT_OHMS)?;
        let d30 = nl.resistor("Df30", f1, tail, NO_DEFECT_OHMS)?;
        nl.mosfet("MNreg3", mn3_drain, mn3_gate, mn3_src, at(design.diff_nmos))?;

        // Pull-up MPreg2: drain via Df25, gate via Df21. Its source
        // ties to the amplifier rail through a milliohm wire stub: a
        // direct tie shares the rail node with the device's
        // source-swap logic and destabilizes the activation-transient
        // Jacobian, while the stub is electrically invisible.
        let mp2_src = nl.node("mp2_src");
        nl.resistor("Rw_mp2", vdd_amp, mp2_src, NO_DEFECT_OHMS)?;
        let mp2_drain = nl.node("mp2_drain");
        let d25 = nl.resistor("Df25", mp2_drain, out, NO_DEFECT_OHMS)?;
        let regonb = nl.node("regonb");
        // REGON = 1 in deep-sleep: the pull-up gate is held at VDD (off).
        nl.vsource("Vregonb", regonb, Netlist::GND, pvt.vdd);
        let mp2_gate = nl.node("mp2_gate");
        let d21 = nl.resistor("Df21", regonb, mp2_gate, NO_DEFECT_OHMS)?;
        nl.mosfet(
            "MPreg2",
            mp2_drain,
            mp2_gate,
            mp2_src,
            at(design.pullup_pmos),
        )?;

        // Output stage MPreg1: source via Df16, drain via Df19.
        let mp1_src = nl.node("mp1_src");
        let d16 = nl.resistor("Df16", vdd_amp, mp1_src, NO_DEFECT_OHMS)?;
        let mp1_drain = nl.node("mp1_drain");
        let d19 = nl.resistor("Df19", mp1_drain, vreg, NO_DEFECT_OHMS)?;
        nl.mosfet(
            "MPreg1",
            mp1_drain,
            mp1_gate,
            mp1_src,
            at(design.output_pmos),
        )?;

        // Array rail behind Df32, with the rail capacitance and load.
        let vddcc = nl.node("vddcc");
        let d32 = nl.resistor("Df32", vreg, vddcc, NO_DEFECT_OHMS)?;
        nl.capacitor("Crail", vddcc, Netlist::GND, design.rail_capacitance)?;
        let load_res = nl.resistor("Rload", vddcc, Netlist::GND, 1.0e12)?;

        // Junction leakage (drain/source diodes to the substrate) —
        // ~0.1 nA/V per node. Physically real, numerically vital: when
        // a defect starves the amplifier its internal nodes are
        // otherwise held only by femtoampere channel leakage, and the
        // operating point becomes ill-conditioned.
        for (name, node) in [
            ("Rjx_out", out),
            ("Rjx_d3", d3),
            ("Rjx_tail", tail),
            ("Rjx_vreg", vreg),
        ] {
            nl.resistor(name, node, Netlist::GND, 1.0e10)?;
        }

        // Assemble the defect handle table in numbering order.
        defects.extend([
            d7, d8, d9, d10, d11, d12, d13, d14, d15, d16, d17, d18, d19, d20, d21, d22, d23, d24,
            d25, d26, d27, d28, d29, d30, d31, d32,
        ]);
        let defects: [ParamId; 32] = defects.try_into().expect("all 32 defect sites registered");

        Ok(RegulatorCircuit {
            nl,
            defects,
            load_res,
            vdd_value: pvt.vdd,
            tap_fraction: tap.fraction(),
            n_taps: [n78, n74, n70, n64, n52],
            n_vreg: vreg,
            n_vddcc: vddcc,
            n_out: out,
            n_mn1_gate: mn1_gate,
            n_mn1_src: mn1_src,
            n_mn2_gate: mn2_gate,
            warm: None,
            scratch: SolveScratch::new(),
        })
    }

    /// Injects a defect with the given resistance, discarding the warm
    /// start (safe for arbitrary jumps).
    pub fn inject(&mut self, defect: Defect, ohms: f64) {
        self.nl.set_param(self.defects[defect.index()], ohms);
        self.warm = None;
    }

    /// Injects a defect but keeps the previous solution as the warm
    /// start — defect-parameter continuation for resistance sweeps,
    /// where neighbouring points have neighbouring operating points.
    pub fn inject_keep_warm(&mut self, defect: Defect, ohms: f64) {
        self.nl.set_param(self.defects[defect.index()], ohms);
    }

    /// The raw converged state vector of the last successful
    /// [`solve`](RegulatorCircuit::solve) — the warm-start format
    /// [`seed_warm`](RegulatorCircuit::seed_warm) accepts. Node build
    /// order is deterministic for a given design/feed/tap, so the
    /// vector transfers between structurally identical circuit
    /// instances (the campaign-level warm-start cache relies on this).
    pub fn warm_state(&self) -> Option<&[f64]> {
        self.warm.as_deref()
    }

    /// Seeds the next solve from a previously converged state of a
    /// structurally identical circuit, e.g. the healthy operating
    /// point at the same (design, corner, VDD, tap) shared across all
    /// defect searches at one grid condition. Returns `false` (and
    /// leaves the cold start in place) when the vector length does not
    /// match this circuit's unknown count — a seed from a different
    /// topology. A stale-but-plausible seed is safe either way:
    /// [`solve`](RegulatorCircuit::solve) falls back to a cold start
    /// whenever the warm iteration fails.
    pub fn seed_warm(&mut self, state: &[f64]) -> bool {
        if state.len() != self.nl.num_unknowns() {
            return false;
        }
        match &mut self.warm {
            Some(w) if w.len() == state.len() => w.copy_from_slice(state),
            w => *w = Some(state.to_vec()),
        }
        true
    }

    /// Declares a node that no device touches. The MNA system then
    /// carries an all-zero row — exactly the floating-node singularity
    /// the pre-flight gate exists to catch before the solver does.
    /// This is a fault-injection hook for testing that gate; it has no
    /// modelling use.
    pub fn add_orphan_node(&mut self, name: &str) {
        self.nl.node(name);
        self.warm = None;
    }

    /// Removes every injected defect.
    pub fn clear_defects(&mut self) {
        for id in self.defects {
            self.nl.set_param(id, NO_DEFECT_OHMS);
        }
        self.warm = None;
    }

    /// The expected (fault-free) regulated voltage: tap fraction × VDD.
    pub fn expected_vreg(&self) -> f64 {
        self.tap_fraction * self.vdd_value
    }

    /// The main supply value, volts.
    pub fn vdd(&self) -> f64 {
        self.vdd_value
    }

    /// Node handles used by the transient drivers.
    pub(crate) fn nodes(&self) -> RegulatorNodes {
        RegulatorNodes {
            vreg: self.n_vreg,
            vddcc: self.n_vddcc,
            out: self.n_out,
            mn1_gate: self.n_mn1_gate,
            mn2_gate: self.n_mn2_gate,
        }
    }

    pub(crate) fn netlist(&self) -> &Netlist {
        &self.nl
    }

    pub(crate) fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.nl
    }

    pub(crate) fn load_param(&self) -> ParamId {
        self.load_res
    }

    /// Solves the DC operating point with the array load attached,
    /// iterating the load linearization to a fixed point.
    ///
    /// After eight rounds without one the last iterate stands, and the
    /// solve counts once in `regulator.load_loop.capped`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve(&mut self, load: &ArrayLoad) -> Result<RegulatorOp, anasim::Error> {
        // Initial load guess at the expected output.
        let mut v_guess = self.expected_vreg().max(0.05);
        let dc = DcAnalysis::new();
        let mut rounds = 0;
        let sol = loop {
            let i_load = load.current(v_guess).max(1.0e-12);
            let r = (v_guess / i_load).clamp(1.0, 1.0e13);
            self.nl.set_param(self.load_res, r);
            let sol = match &self.warm {
                Some(x) => {
                    match dc.operating_point_in(&self.nl, Some(x), &mut self.scratch) {
                        Ok(sol) => Ok(sol),
                        Err(_) => {
                            // A stale warm start can drag the iteration onto
                            // a spurious branch near fold points of the
                            // defect parameter; retry cold before giving up.
                            self.warm = None;
                            dc.operating_point_in(&self.nl, None, &mut self.scratch)
                        }
                    }
                }
                None => dc.operating_point_in(&self.nl, None, &mut self.scratch),
            }?;
            let vddcc = sol.voltage(self.n_vddcc);
            match &mut self.warm {
                Some(w) if w.len() == sol.raw().len() => w.copy_from_slice(sol.raw()),
                w => *w = Some(sol.raw().to_vec()),
            }
            rounds += 1;
            if (vddcc - v_guess).abs() < 1.0e-4 {
                break sol;
            }
            if rounds == 8 {
                obs::counter_add("regulator.load_loop.capped", 1);
                break sol;
            }
            v_guess = vddcc.max(0.01);
        };
        let vddcc = sol.voltage(self.n_vddcc);
        Ok(RegulatorOp {
            vreg: sol.voltage(self.n_vreg),
            vddcc,
            taps: self.n_taps.map(|n| sol.voltage(n)),
            // Tail current read through the Df9 branch voltage: the
            // source resistor carries the full tail current.
            bias_current: sol.voltage(self.n_mn1_src)
                / self.nl.param(self.defects[Defect::new(9).index()]),
            load_current: vddcc / self.nl.param(self.load_res),
            amp_out: sol.voltage(self.n_out),
        })
    }
}

/// Internal node handles shared with the transient driver.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegulatorNodes {
    pub vreg: NodeId,
    pub vddcc: NodeId,
    pub out: NodeId,
    pub mn1_gate: NodeId,
    pub mn2_gate: NodeId,
}

/// Convenience: a default-design circuit at a PVT point in static DS
/// configuration.
///
/// # Errors
///
/// Propagates netlist construction failures.
pub fn static_circuit(pvt: PvtCondition, tap: VrefTap) -> Result<RegulatorCircuit, anasim::Error> {
    RegulatorCircuit::new(&RegulatorDesign::lp40nm(), pvt, tap, FeedMode::Static)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram::{CellInstance, CellPopulation};

    fn tiny_load(pvt: PvtCondition) -> ArrayLoad {
        let base = CellInstance::symmetric(pvt);
        ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).expect("valid load build")
    }

    #[test]
    fn vrefsel_decoder_roundtrip() {
        for tap in VrefTap::ALL {
            let (s1, s0) = tap.sel_inputs();
            assert_eq!(VrefTap::from_sel(s1, s0), tap);
        }
        // All four codes decode to distinct taps.
        let mut seen = std::collections::HashSet::new();
        for s1 in [false, true] {
            for s0 in [false, true] {
                assert!(seen.insert(VrefTap::from_sel(s1, s0).fraction().to_bits()));
            }
        }
    }

    #[test]
    fn healthy_regulator_tracks_vref() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        for tap in VrefTap::ALL {
            let mut c = static_circuit(pvt, tap).expect("healthy build succeeds");
            let op = c.solve(&load).expect("healthy circuit solves");
            let expected = tap.fraction() * 1.1;
            assert!(
                (op.vreg - expected).abs() < 0.02,
                "{tap}: vreg {} vs expected {expected}",
                op.vreg
            );
            assert!((op.vddcc - op.vreg).abs() < 1e-3);
        }
    }

    #[test]
    fn divider_taps_sit_at_design_fractions() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let op = c.solve(&load).expect("healthy circuit solves");
        let fracs = [0.78, 0.74, 0.70, 0.64, 0.52];
        for (tap_v, frac) in op.taps.iter().zip(fracs) {
            assert!(
                (tap_v - frac * 1.1).abs() < 5e-3,
                "tap at {tap_v} vs {}",
                frac * 1.1
            );
        }
    }

    #[test]
    fn bias_current_is_microamp_scale() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let op = c.solve(&load).expect("healthy circuit solves");
        assert!(
            (0.1e-6..20.0e-6).contains(&op.bias_current),
            "bias current {} A",
            op.bias_current
        );
    }

    #[test]
    fn regulation_holds_across_pvt() {
        use process::ProcessCorner;
        for corner in [ProcessCorner::FastNSlowP, ProcessCorner::SlowNFastP] {
            for vdd in [1.0, 1.2] {
                for temp_c in [-30.0, 125.0] {
                    let pvt = PvtCondition::new(corner, vdd, temp_c);
                    let load = tiny_load(pvt);
                    let mut c = static_circuit(pvt, VrefTap::V70).expect("healthy build succeeds");
                    let op = c.solve(&load).expect("healthy circuit solves");
                    let expected = 0.70 * pvt.vdd;
                    assert!(
                        (op.vreg - expected).abs() < 0.03,
                        "{pvt}: vreg {} vs {expected}",
                        op.vreg
                    );
                }
            }
        }
    }

    #[test]
    fn open_df1_starves_every_tap() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        c.inject(Defect::new(1), 1.0e6); // 2x the divider total
        let faulty = c.solve(&load).expect("ladder solves the defective point");
        for (h, f) in healthy.taps.iter().zip(faulty.taps) {
            assert!(f < h * 0.6, "tap {f} vs healthy {h}");
        }
        assert!(faulty.vreg < healthy.vreg - 0.1);
    }

    #[test]
    fn df2_raises_vref78_lowers_the_rest() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        c.inject(Defect::new(2), 200.0e3);
        let faulty = c.solve(&load).expect("ladder solves the defective point");
        assert!(
            faulty.taps[0] > healthy.taps[0] + 0.01,
            "Vref78 should rise"
        );
        for k in 1..5 {
            assert!(
                faulty.taps[k] < healthy.taps[k] - 0.01,
                "tap {k} should fall"
            );
        }
    }

    #[test]
    fn df16_drop_scales_with_load() {
        // A 10 kΩ open in the output stage drops Vreg by I_load · R.
        let pvt = PvtCondition::new(process::ProcessCorner::Typical, 1.1, 125.0);
        let base = CellInstance::symmetric(pvt);
        let load = ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).expect("valid load build");
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        c.inject(Defect::new(16), 20.0e3);
        let faulty = c.solve(&load).expect("ladder solves the defective point");
        // The drop tracks I·R with the (voltage-dependent) faulty load
        // current.
        let expected_drop = faulty.load_current * 20.0e3;
        let drop = healthy.vreg - faulty.vreg;
        assert!(drop > 5e-3, "Df16 must lower Vreg, drop = {drop}");
        assert!(
            (drop - expected_drop).abs() < 0.5 * expected_drop + 5e-3,
            "drop {drop} vs I·R {expected_drop}"
        );
        let _ = CellPopulation {
            pattern: sram::MismatchPattern::symmetric(),
            count: 0,
            stored: sram::StoredBit::One,
        };
    }

    #[test]
    fn negligible_gate_defects_do_not_move_vreg() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        for n in [14u8, 17, 18, 21, 24] {
            c.clear_defects();
            c.inject(Defect::new(n), 100.0e6);
            let faulty = c.solve(&load).expect("ladder solves the defective point");
            assert!(
                (faulty.vreg - healthy.vreg).abs() < 5.0e-3,
                "Df{n} moved vreg by {}",
                (faulty.vreg - healthy.vreg).abs()
            );
        }
    }

    #[test]
    fn power_category_defects_raise_vreg() {
        let pvt = PvtCondition::nominal();
        let load = tiny_load(pvt);
        let mut c = static_circuit(pvt, VrefTap::V70).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        for n in [13u8, 15, 20, 28, 30] {
            c.clear_defects();
            c.inject(Defect::new(n), 100.0e6);
            let faulty = c.solve(&load).expect("ladder solves the defective point");
            assert!(
                faulty.vreg > healthy.vreg + 5.0e-3,
                "Df{n} should raise vreg: {} vs {}",
                faulty.vreg,
                healthy.vreg
            );
        }
    }

    #[test]
    fn drf_category_defects_lower_vreg() {
        let pvt = PvtCondition::new(process::ProcessCorner::Typical, 1.1, 125.0);
        let base = CellInstance::symmetric(pvt);
        let load = ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).expect("valid load build");
        let mut c = static_circuit(pvt, VrefTap::V74).expect("healthy build succeeds");
        let healthy = c.solve(&load).expect("healthy circuit solves");
        for n in [7u8, 9, 10, 12, 16, 19, 23, 26, 29, 32] {
            c.clear_defects();
            c.inject(Defect::new(n), 100.0e6);
            let faulty = c.solve(&load).expect("ladder solves the defective point");
            assert!(
                faulty.vreg < healthy.vreg - 5.0e-3 || faulty.vddcc < healthy.vddcc - 5.0e-3,
                "Df{n} should lower vreg/vddcc: {} / {} vs healthy {} / {}",
                faulty.vreg,
                faulty.vddcc,
                healthy.vreg,
                healthy.vddcc
            );
        }
    }

    /// Assembles `nl` through its stamp plan at each iterate, in DC and
    /// in a transient step, with and without gmin, and asserts that
    /// every nonzero lands inside the plan's LU bitsets — the structure
    /// the dense kernel factors by without looking at the matrix.
    fn assert_plan_covers_assembly(what: &str, nl: &Netlist, iterates: &[Vec<f64>]) {
        use anasim::matrix::DenseMatrix;
        use anasim::mna::{assemble_planned, AnalysisMode, StampPlan};
        let plan = StampPlan::build(nl);
        let structure = plan
            .lu_structure()
            .expect("small systems carry the LU structure");
        let n = nl.num_unknowns();
        let mut matrix = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        for (i, x) in iterates.iter().enumerate() {
            let transient = AnalysisMode::Transient {
                dt: 1.0e-9,
                time: 1.0e-9,
                prev: &iterates[0],
            };
            for mode in [AnalysisMode::Dc, transient] {
                for (gmin, scale) in [(0.0, 1.0), (1.0e-6, 0.5)] {
                    assemble_planned(nl, &plan, x, gmin, scale, mode, &mut matrix, &mut rhs);
                    assert_eq!(
                        structure.first_uncovered(&matrix),
                        None,
                        "{what}: iterate {i}, {mode:?}, gmin {gmin}"
                    );
                }
            }
        }
    }

    /// Iterates to assemble at: the origin, a solved operating point,
    /// and two spread patterns of node voltages and branch currents.
    fn iterates(solved: Vec<f64>) -> Vec<Vec<f64>> {
        let n = solved.len();
        let spread = |phase: f64| {
            (0..n)
                .map(|i| 1.2 * (i as f64 * 0.73 + phase).sin())
                .collect()
        };
        vec![vec![0.0; n], solved, spread(0.0), spread(1.9)]
    }

    #[test]
    fn stamp_plan_structure_covers_every_assembled_nonzero() {
        let pvt = PvtCondition::new(process::ProcessCorner::FastNSlowP, 1.0, 125.0);
        let load = tiny_load(pvt);
        for feed in [
            FeedMode::Static,
            FeedMode::BiasActivation,
            FeedMode::VrefActivation,
        ] {
            let mut c = RegulatorCircuit::new(&RegulatorDesign::lp40nm(), pvt, VrefTap::V70, feed)
                .expect("healthy build succeeds");
            c.inject(Defect::new(16), 1.0e6);
            c.solve(&load).expect("regulator solves");
            let solved = c.warm_state().expect("a solve leaves its state").to_vec();
            assert_plan_covers_assembly(
                &format!("{feed:?} regulator"),
                c.netlist(),
                &iterates(solved),
            );
        }
        let cell = CellInstance::symmetric(pvt);
        let (nl, _) = sram::cell::build_retention_netlist(&cell, 0.5).expect("cell builds");
        let solved = anasim::newton::solve(
            &nl,
            &anasim::NewtonOptions::default(),
            None,
            anasim::mna::AnalysisMode::Dc,
        )
        .expect("retention cell solves")
        .into_raw();
        assert_plan_covers_assembly("6T retention cell", &nl, &iterates(solved));
    }
}
