//! Integration tests: each defect's electrical behaviour matches the
//! paper's Table II "Description" column, probed directly on the
//! circuit rather than through the characterization pipeline.

use process::{ProcessCorner, PvtCondition};
use regulator::{
    activation_transient, static_circuit, Defect, FeedMode, RegulatorCircuit, RegulatorDesign,
    VrefTap,
};
use sram::{ArrayLoad, CellInstance};

fn pvt_hot() -> PvtCondition {
    PvtCondition::new(ProcessCorner::Typical, 1.1, 125.0)
}

fn load(pvt: PvtCondition) -> ArrayLoad {
    let base = CellInstance::symmetric(pvt);
    ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).unwrap()
}

fn taps_with(defect: Defect, ohms: f64, tap: VrefTap) -> ([f64; 5], [f64; 5], f64, f64) {
    let pvt = pvt_hot();
    let l = load(pvt);
    let mut c = static_circuit(pvt, tap).unwrap();
    let healthy = c.solve(&l).unwrap();
    c.inject(defect, ohms);
    let faulty = c.solve(&l).unwrap();
    (healthy.taps, faulty.taps, healthy.vddcc, faulty.vddcc)
}

/// Df1 "reduces voltage at Vref78, Vref74, Vref70, Vref64 and Vbias52".
#[test]
fn df1_reduces_every_tap() {
    let (h, f, _, _) = taps_with(Defect::new(1), 100.0e3, VrefTap::V74);
    for k in 0..5 {
        assert!(f[k] < h[k] - 0.01, "tap {k}: {} !< {}", f[k], h[k]);
    }
}

/// Df2 "reduces Vref74/70/64 and Vbias52, and increases Vref78".
#[test]
fn df2_tap_directions() {
    let (h, f, _, _) = taps_with(Defect::new(2), 100.0e3, VrefTap::V74);
    assert!(f[0] > h[0] + 0.01, "Vref78 rises");
    for k in 1..5 {
        assert!(f[k] < h[k] - 0.01, "tap {k} falls");
    }
}

/// Df3 "reduces Vref70/64 and Vbias52, increases Vref78/74".
#[test]
fn df3_tap_directions() {
    let (h, f, _, _) = taps_with(Defect::new(3), 100.0e3, VrefTap::V70);
    assert!(
        f[0] > h[0] + 0.005 && f[1] > h[1] + 0.005,
        "upper taps rise"
    );
    for k in 2..5 {
        assert!(f[k] < h[k] - 0.005, "tap {k} falls");
    }
}

/// Df4 "reduces Vref64 and Vbias52, increases the other taps".
#[test]
fn df4_tap_directions() {
    let (h, f, _, _) = taps_with(Defect::new(4), 100.0e3, VrefTap::V64);
    for k in 0..3 {
        assert!(f[k] > h[k] + 0.005, "tap {k} rises");
    }
    assert!(
        f[3] < h[3] - 0.005 && f[4] < h[4] - 0.005,
        "lower taps fall"
    );
}

/// Df5 "reduces only the voltage at Vbias52 and increases all others";
/// high resistance values choke the amplifier bias and degrade Vreg.
#[test]
fn df5_bias_only_then_chokes() {
    let (h, f, _, _) = taps_with(Defect::new(5), 100.0e3, VrefTap::V74);
    for k in 0..4 {
        assert!(f[k] > h[k] + 0.001, "tap {k} rises");
    }
    assert!(f[4] < h[4] - 0.01, "Vbias52 falls");
    // High resistance: Vreg collapses despite Vref rising.
    let (_, _, hv, fv) = taps_with(Defect::new(5), 100.0e6, VrefTap::V74);
    assert!(fv < hv - 0.05, "bias starvation: {fv} vs {hv}");
}

/// Df6 raises every tap — Vreg regulates high (pure power defect).
#[test]
fn df6_raises_everything() {
    let (h, f, hv, fv) = taps_with(Defect::new(6), 300.0e3, VrefTap::V74);
    for k in 0..5 {
        assert!(f[k] > h[k] + 0.01, "tap {k} rises");
    }
    assert!(fv > hv + 0.02, "Vreg regulates high");
}

/// Df7 and Df9 both starve the amplifier bias; their voltage impact at
/// equal resistance is comparable (same branch current).
#[test]
fn df7_df9_are_bias_starvation_twins() {
    let pvt = pvt_hot();
    let l = load(pvt);
    let mut v = Vec::new();
    for n in [7u8, 9] {
        let mut c = static_circuit(pvt, VrefTap::V74).unwrap();
        c.inject(Defect::new(n), 30.0e6);
        v.push(c.solve(&l).unwrap().vddcc);
    }
    let healthy = static_circuit(pvt, VrefTap::V74)
        .unwrap()
        .solve(&l)
        .unwrap()
        .vddcc;
    for (i, n) in [7, 9].iter().enumerate() {
        assert!(v[i] < healthy - 0.02, "Df{n} degrades Vreg: {}", v[i]);
    }
}

/// Df10 and Df12 (two sites in one branch) have identical impact.
#[test]
fn df10_df12_identical() {
    let pvt = pvt_hot();
    let l = load(pvt);
    let solve_with = |n: u8| {
        let mut c = static_circuit(pvt, VrefTap::V74).unwrap();
        c.inject(Defect::new(n), 500.0e3);
        c.solve(&l).unwrap().vddcc
    };
    let a = solve_with(10);
    let b = solve_with(12);
    assert!((a - b).abs() < 1e-4, "{a} vs {b}");
}

/// Df16/Df19 drop Vreg by the load current times the defect; Df32's
/// drop appears only behind the defect (vreg stays, vddcc falls).
#[test]
fn output_stage_drops() {
    let pvt = pvt_hot();
    let l = load(pvt);
    let mut c = static_circuit(pvt, VrefTap::V74).unwrap();
    let healthy = c.solve(&l).unwrap();
    c.inject(Defect::new(32), 20.0e3);
    let f32 = c.solve(&l).unwrap();
    // The regulation point (vreg) recovers; the array side (vddcc)
    // drops by I·R.
    assert!(
        (f32.vreg - healthy.vreg).abs() < 0.02,
        "vreg held: {} vs {}",
        f32.vreg,
        healthy.vreg
    );
    assert!(
        f32.vddcc < f32.vreg - 0.01,
        "array rail below the regulation point"
    );
}

/// Df23/Df26 raise MPreg4's conduction through the mirror-gate drop;
/// the amplifier output rises and Vreg falls (the paper's description
/// verbatim).
#[test]
fn df23_mechanism() {
    let pvt = pvt_hot();
    let l = load(pvt);
    let mut c = static_circuit(pvt, VrefTap::V74).unwrap();
    let healthy = c.solve(&l).unwrap();
    c.inject(Defect::new(23), 2.0e6);
    let faulty = c.solve(&l).unwrap();
    assert!(
        faulty.amp_out > healthy.amp_out + 0.02,
        "MPreg1 gate rises: {} vs {}",
        faulty.amp_out,
        healthy.amp_out
    );
    assert!(faulty.vddcc < healthy.vddcc - 0.02, "Vreg degrades");
}

/// Df8's activation delay grows with resistance (the RC of the bias
/// gate line), and a healthy activation hands over without a deep
/// droop.
#[test]
fn df8_delay_mechanism() {
    let pvt = pvt_hot();
    let l = load(pvt);
    let design = RegulatorDesign::lp40nm();
    let run = |ohms: f64| {
        activation_transient(
            &design,
            pvt,
            VrefTap::V74,
            Defect::new(8),
            ohms,
            &l,
            500.0e-6,
            2.0e-6,
        )
        .unwrap()
    };
    let healthy = run(regulator::NO_DEFECT_OHMS);
    let mild = run(100.0e6);
    let slow = run(500.0e6);
    assert!(healthy.min_vddcc() > 0.7);
    // Monotone deepening droop with resistance.
    assert!(mild.min_vddcc() < healthy.min_vddcc() - 0.02);
    assert!(slow.min_vddcc() < mild.min_vddcc() - 0.05);
    assert!(slow.time_below(0.7) > 2.0e-6);
    // But it eventually recovers to regulation (delay, not death).
    assert!((slow.final_vddcc() - 0.74 * 1.1).abs() < 0.05);
}

/// Negligible sites stay negligible even combined with extreme values
/// at two different taps.
#[test]
fn negligible_sites_are_robustly_negligible() {
    let pvt = pvt_hot();
    let l = load(pvt);
    for tap in [VrefTap::V78, VrefTap::V64] {
        let mut c =
            RegulatorCircuit::new(&RegulatorDesign::lp40nm(), pvt, tap, FeedMode::Static).unwrap();
        let healthy = c.solve(&l).unwrap().vddcc;
        for n in [14u8, 17, 18, 21, 24, 25] {
            c.clear_defects();
            c.inject(Defect::new(n), 450.0e6);
            let v = c.solve(&l).unwrap().vddcc;
            assert!(
                (v - healthy).abs() < 5.0e-3,
                "Df{n} at {tap} moved the rail by {}",
                (v - healthy).abs()
            );
        }
    }
}
