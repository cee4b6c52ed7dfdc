//! Property-based tests over the suite's core invariants.
//!
//! Gated behind the `proptest` cargo feature: the crates.io `proptest`
//! dependency cannot be fetched in offline/air-gapped environments, so
//! the default (tier-1) build compiles this file to nothing. Restore
//! the commented dev-dependency in the root `Cargo.toml` and pass
//! `--features proptest` to run these suites.
#![cfg(feature = "proptest")]

use lp_sram_suite::anasim::dc::DcAnalysis;
use lp_sram_suite::anasim::matrix::{solve_dense, DenseMatrix};
use lp_sram_suite::anasim::Netlist;
use lp_sram_suite::march::{engine, AddressOrder, MarchElement, MarchTest, Op, SimpleMemory};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Linear algebra: LU solves random diagonally-dominant systems exactly.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_roundtrips_random_systems(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, next());
            }
            a.add(i, i, n as f64 + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve_dense(a.clone(), &b).expect("diagonally dominant");
        let back = a.mul_vec(&x);
        for (lhs, rhs) in back.iter().zip(&b) {
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }
    }

    #[test]
    fn divider_matches_closed_form(
        r1 in 10.0f64..1.0e6,
        r2 in 10.0f64..1.0e6,
        v in 0.1f64..10.0,
    ) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let mid = nl.node("mid");
        nl.vsource("V", a, Netlist::GND, v);
        nl.resistor("R1", a, mid, r1).unwrap();
        nl.resistor("R2", mid, Netlist::GND, r2).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let expected = v * r2 / (r1 + r2);
        prop_assert!((sol.voltage(mid) - expected).abs() < 1e-6 * v.max(1.0));
    }

    #[test]
    fn parallel_conductances_add(
        rs in proptest::collection::vec(10.0f64..1.0e5, 1..6),
    ) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I", Netlist::GND, a, 1.0e-3);
        for (k, r) in rs.iter().enumerate() {
            nl.resistor(&format!("R{k}"), a, Netlist::GND, *r).unwrap();
        }
        let g: f64 = rs.iter().map(|r| 1.0 / r).sum();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let expected = 1.0e-3 / g;
        prop_assert!((sol.voltage(a) - expected).abs() < 1e-9 + 1e-6 * expected);
    }
}

// ---------------------------------------------------------------------
// March engine invariants.
// ---------------------------------------------------------------------

/// Strategy generating well-formed March tests: every sweep's reads
/// expect the value most recently written (starting from an initial
/// write sweep), so a clean memory can never miscompare.
fn consistent_march_test() -> impl Strategy<Value = MarchTest> {
    let order = prop_oneof![
        Just(AddressOrder::Up),
        Just(AddressOrder::Down),
        Just(AddressOrder::Any),
    ];
    // Each subsequent element: (order, ops) where ops is a chain
    // beginning with a read of the current background and toggling via
    // writes; encoded as a vector of booleans "write new value".
    (
        any::<bool>(),
        proptest::collection::vec(
            (order, proptest::collection::vec(any::<bool>(), 1..4)),
            0..5,
        ),
    )
        .prop_map(|(init, sweeps)| {
            let mut background = init;
            let mut elements = vec![MarchElement::sweep(
                AddressOrder::Any,
                vec![if init { Op::W1 } else { Op::W0 }],
            )];
            for (order, toggles) in sweeps {
                let mut ops = Vec::new();
                for toggle in toggles {
                    ops.push(if background { Op::R1 } else { Op::R0 });
                    if toggle {
                        background = !background;
                        ops.push(if background { Op::W1 } else { Op::W0 });
                    }
                }
                elements.push(MarchElement::Sweep { order, ops });
            }
            MarchTest::new("generated", elements)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clean_memory_never_fails_consistent_tests(
        test in consistent_march_test(),
        words in 1usize..64,
        bits in 1usize..17,
    ) {
        let mut memory = SimpleMemory::new(words, bits);
        let outcome = engine::run(&test, &mut memory);
        prop_assert!(!outcome.detected(), "false failure: {test}");
    }

    #[test]
    fn operation_accounting_matches_complexity(
        test in consistent_march_test(),
        words in 1usize..32,
    ) {
        let mut memory = SimpleMemory::new(words, 8);
        let outcome = engine::run(&test, &mut memory);
        prop_assert_eq!(outcome.operations(), test.complexity(words));
    }

    #[test]
    fn stuck_at_detected_whenever_both_backgrounds_read(
        addr in 0usize..32,
        bit in 0usize..8,
        value in any::<bool>(),
    ) {
        use lp_sram_suite::march::{library, CellRef, Fault};
        let mut memory = SimpleMemory::new(32, 8);
        memory.inject(Fault::stuck_at(CellRef { addr, bit }, value));
        // March C- reads both backgrounds at every cell: must detect
        // every stuck-at fault.
        let outcome = engine::run(&library::march_cminus(), &mut memory);
        prop_assert!(outcome.detected());
    }

    #[test]
    fn generated_tests_always_validate(test in consistent_march_test()) {
        prop_assert!(test.validate().is_ok(), "{test}");
    }

    #[test]
    fn notation_roundtrip(test in consistent_march_test()) {
        let shown = test.to_string();
        let notation = shown.split(" = ").nth(1).unwrap();
        let reparsed = MarchTest::parse("again", notation, 1e-3).unwrap();
        prop_assert_eq!(test.elements(), reparsed.elements());
    }

    /// Full structural round-trip: rendering a test and parsing the
    /// result under the same name reproduces the value exactly
    /// (`parse(render(t)) == t`), not just element-wise.
    #[test]
    fn notation_roundtrip_is_exact(test in consistent_march_test()) {
        let shown = test.to_string();
        let notation = shown.split(" = ").nth(1).unwrap();
        let reparsed = MarchTest::parse("generated", notation, 1e-3).unwrap();
        prop_assert_eq!(&test, &reparsed);
    }

    /// Parse errors locate the offending token: the reported byte
    /// offset must slice the original notation back to exactly the
    /// reported token. Lowercase junk can never collide with the four
    /// op mnemonics (w0/w1/r0/r1 all contain a digit).
    #[test]
    fn parse_errors_locate_the_offending_token(
        junk in "[a-z]{2,4}",
        lead_ws in 0usize..3,
    ) {
        let notation = format!("{}{{⇑(w0,{junk},r0)}}", " ".repeat(lead_ws));
        let err = MarchTest::parse("bad", &notation, 1e-3).unwrap_err();
        prop_assert_eq!(&err.token, &junk);
        prop_assert_eq!(
            &notation[err.offset..err.offset + err.token.len()],
            junk.as_str()
        );
    }
}

// ---------------------------------------------------------------------
// Waveform invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pwl_is_bounded_by_its_points(
        points in proptest::collection::vec((0.0f64..1.0, -2.0f64..2.0), 2..8),
        t in -0.5f64..1.5,
    ) {
        use lp_sram_suite::anasim::devices::vsource::Waveform;
        let mut pts = points.clone();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        pts.dedup_by(|a, b| a.0 == b.0);
        prop_assume!(pts.len() >= 2);
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let w = Waveform::Pwl(pts);
        let v = w.value_at(t, 0.0);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

// ---------------------------------------------------------------------
// Model-structure invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mismatch_mirror_is_an_involution(sigmas in proptest::array::uniform6(-8.0f64..8.0)) {
        use lp_sram_suite::process::Sigma;
        use lp_sram_suite::sram::MismatchPattern;
        let p = MismatchPattern::from_sigmas(sigmas.map(Sigma));
        prop_assert_eq!(p.mirrored().mirrored(), p);
        // Mirroring swaps the weak bit (when one exists).
        use lp_sram_suite::sram::TableRetention;
        if let Some(weak) = TableRetention::weak_bit_of(&p) {
            use lp_sram_suite::sram::StoredBit;
            let flipped = match weak {
                StoredBit::One => StoredBit::Zero,
                StoredBit::Zero => StoredBit::One,
            };
            prop_assert_eq!(TableRetention::weak_bit_of(&p.mirrored()), Some(flipped));
        }
    }

    #[test]
    fn array_location_roundtrip(addr in 0usize..4096, bit in 0usize..64) {
        use lp_sram_suite::sram::ArrayGeometry;
        let g = ArrayGeometry::paper();
        let loc = g.cell_location(addr, bit);
        prop_assert_eq!(g.address_of(loc), (addr, bit));
        prop_assert!((loc.row as usize) < g.rows);
        prop_assert!((loc.col as usize) < g.cols);
    }

    #[test]
    fn complex_field_axioms(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in -10.0f64..10.0, bi in -10.0f64..10.0,
    ) {
        use lp_sram_suite::anasim::complex::Complex;
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity.
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        prop_assert!(((a + b) - (b + a)).abs() < 1e-12);
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
        // Division inverts multiplication (away from zero).
        prop_assume!(b.abs() > 1e-6);
        prop_assert!(((a * b) / b - a).abs() < 1e-9);
    }

    #[test]
    fn saturating_sigma_conversion_is_odd_and_bounded(
        sigma in -20.0f64..20.0,
        sat in 0.05f64..0.5,
        slope in 0.01f64..0.5,
    ) {
        use lp_sram_suite::process::{Sigma, VariationModel};
        let m = VariationModel::new(slope).with_saturation(sat);
        let v = m.to_volts(Sigma(sigma));
        prop_assert!(v.abs() <= sat + 1e-12, "bounded by saturation");
        prop_assert!((v + m.to_volts(Sigma(-sigma))).abs() < 1e-12, "odd function");
        // Monotone in sigma.
        let v2 = m.to_volts(Sigma(sigma + 0.1));
        prop_assert!(v2 >= v - 1e-12);
    }

    #[test]
    fn ohm_formatting_parses_back(ohms in 1.0f64..4.0e8) {
        use lp_sram_suite::drftest::report::format_ohms;
        let s = format_ohms(ohms);
        let value: f64 = if let Some(k) = s.strip_suffix('K') {
            k.parse::<f64>().unwrap() * 1e3
        } else if let Some(m) = s.strip_suffix('M') {
            m.parse::<f64>().unwrap() * 1e6
        } else {
            s.parse().unwrap()
        };
        // Two-decimal rendering: within 1% of the original.
        prop_assert!((value - ohms).abs() <= 0.01 * ohms.max(1.0));
    }

    #[test]
    fn mos_ids_monotonicity_random_cards(
        beta in 1.0e-5f64..1.0e-2,
        vth in 0.2f64..0.8,
        vgs in 0.0f64..1.2,
        vds in 0.01f64..1.2,
    ) {
        use lp_sram_suite::anasim::devices::mosfet::MosParams;
        let p = MosParams::nmos(beta, vth);
        let (i, gm, gds) = p.ids(vgs, vds);
        prop_assert!(i >= 0.0 && gm >= 0.0 && gds >= 0.0);
        let (i_up, ..) = p.ids(vgs + 0.05, vds);
        prop_assert!(i_up >= i);
        let (i_vds, ..) = p.ids(vgs, vds + 0.05);
        prop_assert!(i_vds >= i * 0.999);
    }
}

// ---------------------------------------------------------------------
// Static analysis (ERC): every netlist the Table II generator can
// produce passes the full rule set, at any admissible tap / feed mode /
// injected defect resistance — the pre-flight gate must never reject a
// healthy campaign grid point.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table2_generator_netlists_pass_erc(
        tap_idx in 0usize..4,
        feed_idx in 0usize..3,
        defect_num in 1u8..=32,
        log_ohms in -3.0f64..8.7, // 1 mΩ (absent) … 500 MΩ (full open)
    ) {
        use lp_sram_suite::process::PvtCondition;
        use lp_sram_suite::regulator::{
            Defect, FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap,
        };
        let feed = [
            FeedMode::Static,
            FeedMode::BiasActivation,
            FeedMode::VrefActivation,
        ][feed_idx];
        let mut circuit = RegulatorCircuit::new(
            &RegulatorDesign::lp40nm(),
            PvtCondition::nominal(),
            VrefTap::ALL[tap_idx],
            feed,
        ).expect("healthy build succeeds");
        circuit.inject(Defect::new(defect_num), 10f64.powf(log_ohms));
        let report = circuit.erc_report();
        prop_assert!(
            report.is_empty(),
            "Df{defect_num} at 1e{log_ohms:.1} Ω:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn retention_netlists_pass_erc(
        sigmas in proptest::array::uniform6(-6.0f64..6.0),
        vddc in 0.3f64..1.3,
    ) {
        use lp_sram_suite::erc;
        use lp_sram_suite::process::{PvtCondition, Sigma};
        use lp_sram_suite::sram::cell::build_retention_netlist;
        use lp_sram_suite::sram::{CellInstance, MismatchPattern};
        let pattern = MismatchPattern::from_sigmas(sigmas.map(Sigma));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let (nl, _) = build_retention_netlist(&inst, vddc).expect("valid build");
        let report = erc::check_netlist(&nl);
        prop_assert!(report.is_empty(), "{}", report.render_text());
    }
}

// ---------------------------------------------------------------------
// Hierarchical array reduction: promoting background cells out of the
// Schur blocks is electrically inert.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random `force_active` promotion sets never change the retention
    /// verdict grid. A promoted cell is solved in the interface instead
    /// of through a shared macromodel — the Schur reduction being exact
    /// block elimination, the choice of active set must be invisible
    /// beyond solver tolerance, defect or no defect.
    #[test]
    fn forced_active_promotion_is_electrically_inert(
        promoted in proptest::collection::vec((0usize..8, 0usize..4), 0..6),
        defect in proptest::option::of((0usize..8, 0usize..4)),
    ) {
        use lp_sram_suite::anasim::{solve_array, ArraySolveOptions, SolveScratch};
        use lp_sram_suite::process::PvtCondition;
        use lp_sram_suite::sram::{ActiveCell, ArraySpec, CellInstance, StoredBit};

        let base = CellInstance::symmetric(PvtCondition::nominal());
        let mut reference = ArraySpec::retention(8, 4, 0.5, base);
        if let Some((r, c)) = defect {
            reference
                .active
                .push(ActiveCell::bridged(r, c, StoredBit::One, 1.0e3));
        }
        let mut with_promotions = reference.clone();
        with_promotions.force_active = promoted;

        let opts = ArraySolveOptions::default();
        let verdicts = |spec: &ArraySpec| {
            let built = spec.build().expect("array builds");
            let mut scratch = SolveScratch::new();
            let sol = solve_array(
                &built.netlist,
                &built.partition,
                &opts,
                Some(&built.guess()),
                &mut scratch,
            )
            .expect("array solves");
            built.retained(&sol)
        };
        prop_assert_eq!(verdicts(&reference), verdicts(&with_promotions));
    }
}

// ---------------------------------------------------------------------
// Netlist-level singular diagnostics through the scratch path. (The
// kernel's bit-identity to dense elimination, and the workspace's to
// the consuming path, are a drill property in `anasim::matrix`.)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Netlist-level singular diagnostics: a floating node solved
    /// through the scratch path names the same unknown as a fresh
    /// cold solve (the retry/rescue machinery reports through the
    /// identical in-place factorization).
    #[test]
    fn singular_netlist_names_same_node_through_scratch(
        i_ma in 0.1f64..10.0,
    ) {
        use lp_sram_suite::anasim::mna::AnalysisMode;
        use lp_sram_suite::anasim::newton::{solve, solve_with_scratch};
        use lp_sram_suite::anasim::{Error, NewtonOptions, SolveScratch};
        let mut nl = Netlist::new();
        let c = nl.node("floating");
        nl.isource("I1", Netlist::GND, c, i_ma * 1.0e-3);
        let opts = NewtonOptions::plain();
        let fresh = solve(&nl, &opts, None, AnalysisMode::Dc).err().expect("singular");
        let mut scratch = SolveScratch::new();
        let scratched = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
            .err()
            .expect("singular");
        match (&fresh, &scratched) {
            (
                Error::SingularMatrix { pivot_row: pa, unknown: ua },
                Error::SingularMatrix { pivot_row: pb, unknown: ub },
            ) => {
                prop_assert_eq!(pa, pb);
                prop_assert_eq!(ua, ub);
                prop_assert!(ua.is_some(), "diagnostic must name the node");
            }
            other => prop_assert!(false, "unexpected error pair: {:?}", other),
        }
    }
}
