//! Integration tests: classical analog building blocks solved end to
//! end. These are the circuit idioms the SRAM and regulator crates are
//! assembled from, verified against hand analysis.

use anasim::dc::DcAnalysis;
use anasim::devices::mosfet::MosParams;
use anasim::devices::vsource::Waveform;
use anasim::transient::TransientAnalysis;
use anasim::Netlist;

fn nmos() -> MosParams {
    MosParams::nmos(4.0e-4, 0.45)
}

fn pmos() -> MosParams {
    MosParams::pmos(4.0e-4, 0.45)
}

/// A diode-connected PMOS mirror copies its reference current within a
/// few percent when both drains sit at similar voltages.
#[test]
fn pmos_current_mirror_copies_current() {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let d1 = nl.node("d1");
    let d2 = nl.node("d2");
    nl.vsource("VDD", vdd, Netlist::GND, 1.1);
    // Long-channel mirror devices (low lambda/DIBL) as in the regulator.
    let long = MosParams {
        lambda: 0.01,
        dibl: 0.005,
        ..pmos()
    };
    nl.mosfet("M1", d1, d1, vdd, long).unwrap(); // diode side
    nl.mosfet("M2", d2, d1, vdd, long).unwrap(); // mirror side
                                                 // Reference branch: resistor setting ~10 µA.
    nl.resistor("Rref", d1, Netlist::GND, 50.0e3).unwrap();
    // Output branch at a similar drain voltage.
    nl.resistor("Rout", d2, Netlist::GND, 50.0e3).unwrap();
    let sol = DcAnalysis::new().operating_point(&nl).unwrap();
    let i_ref = sol.voltage(d1) / 50.0e3;
    let i_out = sol.voltage(d2) / 50.0e3;
    assert!(i_ref > 1.0e-6, "reference current {i_ref}");
    let ratio = i_out / i_ref;
    assert!((ratio - 1.0).abs() < 0.05, "mirror ratio {ratio}");
}

/// An NMOS differential pair splits the tail current evenly at zero
/// differential input and steers it with input sign. The tail is a
/// resistor; its current is read back from the solved tail voltage.
#[test]
fn differential_pair_steers_current() {
    const R_TAIL: f64 = 10.0e3;
    let run = |v_diff: f64| -> (f64, f64, f64) {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let ga = nl.node("ga");
        let gb = nl.node("gb");
        let da = nl.node("da");
        let db = nl.node("db");
        let tail = nl.node("tail");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VA", ga, Netlist::GND, 0.6 + v_diff / 2.0);
        nl.vsource("VB", gb, Netlist::GND, 0.6 - v_diff / 2.0);
        nl.resistor("RA", vdd, da, 20.0e3).unwrap();
        nl.resistor("RB", vdd, db, 20.0e3).unwrap();
        nl.mosfet("MA", da, ga, tail, nmos()).unwrap();
        nl.mosfet("MB", db, gb, tail, nmos()).unwrap();
        nl.resistor("Rtail", tail, Netlist::GND, R_TAIL).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let ia = (1.1 - sol.voltage(da)) / 20.0e3;
        let ib = (1.1 - sol.voltage(db)) / 20.0e3;
        (ia, ib, sol.voltage(tail) / R_TAIL)
    };
    let (ia, ib, i_tail) = run(0.0);
    assert!(
        ((ia - ib) / (ia + ib)).abs() < 0.01,
        "balanced split: {ia} vs {ib}"
    );
    assert!(i_tail > 1.0e-6, "tail current {i_tail}");
    assert!(
        ((ia + ib) - i_tail).abs() < 1.0e-3 * i_tail,
        "branch currents {ia} + {ib} sum to the tail's {i_tail}"
    );
    let (ia, ib, _) = run(0.2);
    assert!(ia > 4.0 * ib, "steering toward the high gate: {ia} vs {ib}");
    let (ia2, ib2, _) = run(-0.2);
    assert!(
        (ia2 - ib).abs() < 1e-7 && (ib2 - ia).abs() < 1e-7,
        "antisymmetry"
    );
}

/// An NMOS source follower sits roughly a Vgs below its input and
/// tracks it with gain just under one.
#[test]
fn source_follower_tracks_input() {
    let out_at = |vin: f64| {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let s = nl.node("s");
        nl.vsource("VDD", vdd, Netlist::GND, 1.5);
        nl.vsource("VIN", g, Netlist::GND, vin);
        nl.mosfet("M", vdd, g, s, nmos()).unwrap();
        nl.resistor("RS", s, Netlist::GND, 100.0e3).unwrap();
        DcAnalysis::new().operating_point(&nl).unwrap().voltage(s)
    };
    let lo = out_at(0.9);
    let hi = out_at(1.1);
    let gain = (hi - lo) / 0.2;
    assert!((0.7..1.0).contains(&gain), "follower gain {gain}");
    assert!(lo < 0.9 && lo > 0.2, "level shift {lo}");
}

/// A five-transistor OTA drives its output toward the rail indicated
/// by the differential input — the regulator's gain element. The tail
/// is a resistor; its current is read back from the solved tail
/// voltage.
#[test]
fn five_transistor_ota_polarity() {
    const R_TAIL: f64 = 75.0e3;
    let out_at = |vp: f64, vn: f64| {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let gp = nl.node("gp");
        let gn = nl.node("gn");
        let d3 = nl.node("d3");
        let out = nl.node("out");
        let tail = nl.node("tail");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VP", gp, Netlist::GND, vp);
        nl.vsource("VN", gn, Netlist::GND, vn);
        let long_p = MosParams {
            lambda: 0.01,
            dibl: 0.005,
            ..pmos()
        };
        let long_n = MosParams {
            lambda: 0.01,
            dibl: 0.005,
            ..nmos()
        };
        // Mirror: diode on the inverting side.
        nl.mosfet("MP3", d3, d3, vdd, long_p).unwrap();
        nl.mosfet("MP4", out, d3, vdd, long_p).unwrap();
        nl.mosfet("MN_minus", d3, gn, tail, long_n).unwrap();
        nl.mosfet("MN_plus", out, gp, tail, long_n).unwrap();
        nl.resistor("Rtail", tail, Netlist::GND, R_TAIL).unwrap();
        // Light resistive load keeps the output defined.
        nl.resistor("RL", out, Netlist::GND, 10.0e6).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let i_tail = sol.voltage(tail) / R_TAIL;
        assert!((1.0e-6..20.0e-6).contains(&i_tail), "tail current {i_tail}");
        sol.voltage(out)
    };
    // In this 5T topology the output follows the *inverting* input's
    // current: raising V− (gn) pulls the mirror up and the output high;
    // raising V+ (gp) sinks the output low.
    let minus_high = out_at(0.70, 0.78);
    let plus_high = out_at(0.78, 0.70);
    assert!(
        minus_high > plus_high + 0.3,
        "OTA polarity: {minus_high} vs {plus_high}"
    );
}

/// A three-stage RC ladder driven by a step settles to the source
/// value, monotonically at every tap.
#[test]
fn rc_ladder_step_response() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let n1 = nl.node("n1");
    let n2 = nl.node("n2");
    let n3 = nl.node("n3");
    nl.vsource_waveform(
        "V",
        a,
        Netlist::GND,
        Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 1.0e-9,
            fall: 1.0e-9,
            width: 1.0,
        },
    );
    for (name, from, to) in [("R1", a, n1), ("R2", n1, n2), ("R3", n2, n3)] {
        nl.resistor(name, from, to, 1.0e3).unwrap();
    }
    for (name, node) in [("C1", n1), ("C2", n2), ("C3", n3)] {
        nl.capacitor(name, node, Netlist::GND, 1.0e-9).unwrap();
    }
    let tr = TransientAnalysis::new(0.2e-6, 60.0e-6)
        .run_from(&nl, nl.zero_state())
        .unwrap();
    for node in [n1, n2, n3] {
        let series = tr.voltage_series(node);
        assert!(
            series.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "tap must rise monotonically"
        );
    }
    assert!((tr.voltage_at_end(n3) - 1.0).abs() < 0.02, "settles to 1 V");
    // Later taps lag earlier ones.
    let idx = tr.times().iter().position(|&t| t > 3.0e-6).unwrap();
    assert!(tr.voltage(n1, idx) > tr.voltage(n2, idx));
    assert!(tr.voltage(n2, idx) > tr.voltage(n3, idx));
}

/// A CMOS inverter chain inverts parity and regenerates levels.
#[test]
fn inverter_chain_regenerates() {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    nl.vsource("VDD", vdd, Netlist::GND, 1.1);
    let input = nl.node("in");
    // A degraded input level, mid-rail-ish.
    nl.vsource("VIN", input, Netlist::GND, 0.42);
    let mut prev = input;
    let mut outs = Vec::new();
    for k in 0..3 {
        let out = nl.node(&format!("out{k}"));
        nl.mosfet(&format!("MP{k}"), out, prev, vdd, pmos())
            .unwrap();
        nl.mosfet(&format!("MN{k}"), out, prev, Netlist::GND, nmos())
            .unwrap();
        outs.push(out);
        prev = out;
    }
    let sol = DcAnalysis::new().operating_point(&nl).unwrap();
    // 0.42 V reads as "low-ish": stage outputs alternate and rail out.
    let v1 = sol.voltage(outs[0]);
    let v2 = sol.voltage(outs[1]);
    let v3 = sol.voltage(outs[2]);
    assert!(v1 > 0.55, "first stage pulls high: {v1}");
    assert!(v2 < v1, "second stage inverts: {v2}");
    assert!(v3 > 1.0, "third stage regenerates to the rail: {v3}");
}

/// Voltage-divider chain with many taps stays exact (stress of the
/// linear path and ground elimination).
#[test]
fn long_divider_is_exact() {
    let mut nl = Netlist::new();
    let top = nl.node("top");
    nl.vsource("V", top, Netlist::GND, 1.0);
    let mut prev = top;
    let mut taps = Vec::new();
    let n = 20;
    for k in 0..n {
        let node = nl.node(&format!("t{k}"));
        nl.resistor(&format!("R{k}"), prev, node, 1.0e3).unwrap();
        taps.push(node);
        prev = node;
    }
    nl.resistor("Rbot", prev, Netlist::GND, 1.0e3).unwrap();
    let sol = DcAnalysis::new().operating_point(&nl).unwrap();
    for (k, &tap) in taps.iter().enumerate() {
        let expected = 1.0 - (k as f64 + 1.0) / (n as f64 + 1.0);
        assert!(
            (sol.voltage(tap) - expected).abs() < 1e-9,
            "tap {k}: {} vs {expected}",
            sol.voltage(tap)
        );
    }
}

/// Bistable cross-coupled inverters resolve to whichever state the
/// warm start favours — and both states are valid operating points.
#[test]
fn cross_coupled_latch_bistability() {
    let build = || {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let q = nl.node("q");
        let qb = nl.node("qb");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.mosfet("MP1", q, qb, vdd, pmos()).unwrap();
        nl.mosfet("MN1", q, qb, Netlist::GND, nmos()).unwrap();
        nl.mosfet("MP2", qb, q, vdd, pmos()).unwrap();
        nl.mosfet("MN2", qb, q, Netlist::GND, nmos()).unwrap();
        (nl, q, qb)
    };
    let (nl, q, qb) = build();
    let mut x = nl.zero_state();
    nl.set_guess(&mut x, q, 1.1);
    let sol = DcAnalysis::new().operating_point_from(&nl, &x).unwrap();
    assert!(sol.voltage(q) > 1.0 && sol.voltage(qb) < 0.1);
    let mut x = nl.zero_state();
    nl.set_guess(&mut x, qb, 1.1);
    let sol = DcAnalysis::new().operating_point_from(&nl, &x).unwrap();
    assert!(sol.voltage(qb) > 1.0 && sol.voltage(q) < 0.1);
}

/// Superposition sanity on a two-source linear network.
#[test]
fn linear_superposition() {
    let solve_with = |v1: f64, v2: f64| {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GND, v1);
        nl.vsource("V2", b, Netlist::GND, v2);
        nl.resistor("R1", a, m, 1.0e3).unwrap();
        nl.resistor("R2", b, m, 2.0e3).unwrap();
        nl.resistor("R3", m, Netlist::GND, 3.0e3).unwrap();
        DcAnalysis::new().operating_point(&nl).unwrap().voltage(m)
    };
    let both = solve_with(1.0, 2.0);
    let only1 = solve_with(1.0, 0.0);
    let only2 = solve_with(0.0, 2.0);
    assert!((both - (only1 + only2)).abs() < 1e-12, "superposition");
}
