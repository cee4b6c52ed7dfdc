//! Property tests over the suite's core invariants, on `drill`.
//!
//! Every property draws its cases from one fixed run seed, so the
//! suite is deterministic. A failure names the property and prints
//! the seed of the failing case; case 0 of a run draws from the run
//! seed itself, so setting [`SEED`] to that value replays the
//! counterexample as the first case.

use std::fmt::Debug;

use drill::{check, no_shrink, Config, Rng};
use lp_sram_suite::anasim::dc::DcAnalysis;
use lp_sram_suite::anasim::matrix::{DenseMatrix, LuWorkspace};
use lp_sram_suite::anasim::Netlist;
use lp_sram_suite::march::{engine, AddressOrder, MarchElement, MarchTest, Op, SimpleMemory};

/// Run seed shared by every property.
const SEED: u64 = 20_130_318;

/// Runs `cases` generated inputs through `holds` and panics with the
/// replay seed of the first failure.
fn property<T: Debug>(
    name: &str,
    cases: u64,
    generate: impl Fn(&mut Rng) -> T,
    holds: impl Fn(&T) -> Result<(), String>,
) {
    check(
        &Config::new(name, SEED).cases(cases),
        generate,
        no_shrink,
        holds,
    )
    .assert_ok();
}

/// The property-side `assert!`: fails the case with a message instead
/// of panicking.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Six independent draws uniform in `[lo, hi)`.
fn uniform6(rng: &mut Rng, lo: f64, hi: f64) -> [f64; 6] {
    std::array::from_fn(|_| uniform(rng, lo, hi))
}

// ---------------------------------------------------------------------
// Linear algebra: LU solves random diagonally-dominant systems exactly.
// ---------------------------------------------------------------------

#[test]
fn lu_roundtrips_random_systems() {
    property(
        "lu_roundtrips_random_systems",
        64,
        |rng| (rng.int_in(1, 11), rng.next_u64()),
        |&(n, seed)| {
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
            let mut lu = LuWorkspace::new();
            lu.factor_from(&a).map_err(|e| e.to_string())?;
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x);
            let back = a.mul_vec(&x);
            for (lhs, rhs) in back.iter().zip(&b) {
                ensure!((lhs - rhs).abs() < 1e-8, "A·x = {lhs} against b = {rhs}");
            }
            Ok(())
        },
    );
}

#[test]
fn divider_matches_closed_form() {
    property(
        "divider_matches_closed_form",
        64,
        |rng| {
            (
                uniform(rng, 10.0, 1.0e6),
                uniform(rng, 10.0, 1.0e6),
                uniform(rng, 0.1, 10.0),
            )
        },
        |&(r1, r2, v)| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let mid = nl.node("mid");
            nl.vsource("V", a, Netlist::GND, v);
            nl.resistor("R1", a, mid, r1).unwrap();
            nl.resistor("R2", mid, Netlist::GND, r2).unwrap();
            let sol = DcAnalysis::new().operating_point(&nl).unwrap();
            let expected = v * r2 / (r1 + r2);
            let got = sol.voltage(mid);
            ensure!(
                (got - expected).abs() < 1e-6 * v.max(1.0),
                "mid = {got} V, closed form {expected} V"
            );
            Ok(())
        },
    );
}

#[test]
fn parallel_conductances_add() {
    property(
        "parallel_conductances_add",
        64,
        |rng| {
            let len = rng.int_in(1, 5);
            (0..len)
                .map(|_| uniform(rng, 10.0, 1.0e5))
                .collect::<Vec<f64>>()
        },
        |rs| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.isource("I", Netlist::GND, a, 1.0e-3);
            for (k, r) in rs.iter().enumerate() {
                nl.resistor(&format!("R{k}"), a, Netlist::GND, *r).unwrap();
            }
            let g: f64 = rs.iter().map(|r| 1.0 / r).sum();
            let sol = DcAnalysis::new().operating_point(&nl).unwrap();
            let expected = 1.0e-3 / g;
            let got = sol.voltage(a);
            ensure!(
                (got - expected).abs() < 1e-9 + 1e-6 * expected,
                "node = {got} V, I/ΣG = {expected} V"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// March engine invariants.
// ---------------------------------------------------------------------

/// A well-formed March test: every sweep's reads expect the value most
/// recently written (starting from an initial write sweep), so a clean
/// memory can never miscompare. Up to four sweeps follow the initial
/// write, each a chain of one to three reads of the current background,
/// any of them followed by a write that toggles it.
fn consistent_march_test(rng: &mut Rng) -> MarchTest {
    let mut background = rng.coin();
    let mut elements = vec![MarchElement::sweep(
        AddressOrder::Any,
        vec![if background { Op::W1 } else { Op::W0 }],
    )];
    for _ in 0..rng.int_in(0, 4) {
        let order = *rng.choose(&[AddressOrder::Up, AddressOrder::Down, AddressOrder::Any]);
        let mut ops = Vec::new();
        for _ in 0..rng.int_in(1, 3) {
            ops.push(if background { Op::R1 } else { Op::R0 });
            if rng.coin() {
                background = !background;
                ops.push(if background { Op::W1 } else { Op::W0 });
            }
        }
        elements.push(MarchElement::Sweep { order, ops });
    }
    MarchTest::new("generated", elements)
}

#[test]
fn clean_memory_never_fails_consistent_tests() {
    property(
        "clean_memory_never_fails_consistent_tests",
        128,
        |rng| {
            (
                consistent_march_test(rng),
                rng.int_in(1, 63),
                rng.int_in(1, 16),
            )
        },
        |(test, words, bits)| {
            let mut memory = SimpleMemory::new(*words, *bits);
            let outcome = engine::run(test, &mut memory);
            ensure!(!outcome.detected(), "false failure: {test}");
            Ok(())
        },
    );
}

#[test]
fn operation_accounting_matches_complexity() {
    property(
        "operation_accounting_matches_complexity",
        128,
        |rng| (consistent_march_test(rng), rng.int_in(1, 31)),
        |(test, words)| {
            let mut memory = SimpleMemory::new(*words, 8);
            let outcome = engine::run(test, &mut memory);
            let expected = test.complexity(*words);
            ensure!(
                outcome.operations() == expected,
                "{} operations, complexity {expected}: {test}",
                outcome.operations()
            );
            Ok(())
        },
    );
}

#[test]
fn stuck_at_detected_whenever_both_backgrounds_read() {
    use lp_sram_suite::march::{library, CellRef, Fault};
    property(
        "stuck_at_detected_whenever_both_backgrounds_read",
        128,
        |rng| (rng.int_in(0, 31), rng.int_in(0, 7), rng.coin()),
        |&(addr, bit, value)| {
            let mut memory = SimpleMemory::new(32, 8);
            memory.inject(Fault::stuck_at(CellRef { addr, bit }, value));
            // March C- reads both backgrounds at every cell: must detect
            // every stuck-at fault.
            let outcome = engine::run(&library::march_cminus(), &mut memory);
            ensure!(
                outcome.detected(),
                "SA{} at ({addr}, {bit}) escaped",
                u8::from(value)
            );
            Ok(())
        },
    );
}

#[test]
fn generated_tests_always_validate() {
    property(
        "generated_tests_always_validate",
        128,
        consistent_march_test,
        |test| {
            test.validate().map_err(|e| format!("{test}: {e}"))?;
            Ok(())
        },
    );
}

/// Full structural round-trip: rendering a test and parsing the result
/// under the same name reproduces the value exactly
/// (`parse(render(t)) == t`), elements included.
#[test]
fn notation_roundtrip_is_exact() {
    property(
        "notation_roundtrip_is_exact",
        128,
        consistent_march_test,
        |test| {
            let shown = test.to_string();
            let notation = shown.split(" = ").nth(1).unwrap();
            let reparsed =
                MarchTest::parse("generated", notation, 1e-3).map_err(|e| e.to_string())?;
            ensure!(*test == reparsed, "{test} reparsed as {reparsed}");
            Ok(())
        },
    );
}

/// Parse errors locate the offending token: the reported byte offset
/// must slice the original notation back to exactly the reported
/// token. Lowercase junk can never collide with the four op mnemonics
/// (w0/w1/r0/r1 all contain a digit).
#[test]
fn parse_errors_locate_the_offending_token() {
    property(
        "parse_errors_locate_the_offending_token",
        128,
        |rng| {
            let len = rng.int_in(2, 4);
            let junk: String = (0..len)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect();
            (junk, rng.int_in(0, 2))
        },
        |(junk, lead_ws)| {
            let notation = format!("{}{{⇑(w0,{junk},r0)}}", " ".repeat(*lead_ws));
            let Err(err) = MarchTest::parse("bad", &notation, 1e-3) else {
                return Err(format!("`{notation}` parsed"));
            };
            ensure!(err.token == *junk, "token `{}`, junk `{junk}`", err.token);
            let located = &notation[err.offset..err.offset + err.token.len()];
            ensure!(located == junk, "offset {} slices `{located}`", err.offset);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Waveform invariants.
// ---------------------------------------------------------------------

#[test]
fn pwl_is_bounded_by_its_points() {
    use lp_sram_suite::anasim::devices::vsource::Waveform;
    property(
        "pwl_is_bounded_by_its_points",
        64,
        |rng| {
            let len = rng.int_in(2, 7);
            let points: Vec<(f64, f64)> = (0..len)
                .map(|_| (uniform(rng, 0.0, 1.0), uniform(rng, -2.0, 2.0)))
                .collect();
            (points, uniform(rng, -0.5, 1.5))
        },
        |(points, t)| {
            let mut pts = points.clone();
            pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            pts.dedup_by(|a, b| a.0 == b.0);
            // A waveform needs two distinct times; a draw that repeats
            // a time until fewer remain holds vacuously.
            if pts.len() < 2 {
                return Ok(());
            }
            let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
            let v = Waveform::Pwl(pts).value_at(*t, 0.0);
            ensure!(
                v >= lo - 1e-12 && v <= hi + 1e-12,
                "value {v} outside [{lo}, {hi}]"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Model-structure invariants.
// ---------------------------------------------------------------------

#[test]
fn mismatch_mirror_is_an_involution() {
    use lp_sram_suite::process::Sigma;
    use lp_sram_suite::sram::{MismatchPattern, StoredBit, TableRetention};
    property(
        "mismatch_mirror_is_an_involution",
        256,
        |rng| uniform6(rng, -8.0, 8.0),
        |sigmas| {
            let p = MismatchPattern::from_sigmas(sigmas.map(Sigma));
            ensure!(p.mirrored().mirrored() == p, "mirror twice changed {p:?}");
            // Mirroring swaps the weak bit (when one exists).
            if let Some(weak) = TableRetention::weak_bit_of(&p) {
                let flipped = match weak {
                    StoredBit::One => StoredBit::Zero,
                    StoredBit::Zero => StoredBit::One,
                };
                let mirrored = TableRetention::weak_bit_of(&p.mirrored());
                ensure!(
                    mirrored == Some(flipped),
                    "weak bit {weak:?}, mirrored {mirrored:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn array_location_roundtrip() {
    use lp_sram_suite::sram::ArrayGeometry;
    property(
        "array_location_roundtrip",
        256,
        |rng| (rng.int_in(0, 4095), rng.int_in(0, 63)),
        |&(addr, bit)| {
            let g = ArrayGeometry::paper();
            let loc = g.cell_location(addr, bit);
            ensure!(
                g.address_of(loc) == (addr, bit),
                "({addr}, {bit}) → {loc:?} → {:?}",
                g.address_of(loc)
            );
            ensure!(
                (loc.row as usize) < g.rows && (loc.col as usize) < g.cols,
                "{loc:?} outside the array"
            );
            Ok(())
        },
    );
}

#[test]
fn saturating_sigma_conversion_is_odd_and_bounded() {
    use lp_sram_suite::process::{Sigma, VariationModel};
    property(
        "saturating_sigma_conversion_is_odd_and_bounded",
        256,
        |rng| {
            (
                uniform(rng, -20.0, 20.0),
                uniform(rng, 0.05, 0.5),
                uniform(rng, 0.01, 0.5),
            )
        },
        |&(sigma, sat, slope)| {
            let m = VariationModel::new(slope).with_saturation(sat);
            let v = m.to_volts(Sigma(sigma));
            ensure!(v.abs() <= sat + 1e-12, "{v} V beyond saturation {sat} V");
            ensure!(
                (v + m.to_volts(Sigma(-sigma))).abs() < 1e-12,
                "not an odd function at {sigma}σ"
            );
            // Monotone in sigma.
            let v2 = m.to_volts(Sigma(sigma + 0.1));
            ensure!(v2 >= v - 1e-12, "decreasing at {sigma}σ: {v} → {v2}");
            Ok(())
        },
    );
}

#[test]
fn ohm_formatting_parses_back() {
    use lp_sram_suite::drftest::report::format_ohms;
    property(
        "ohm_formatting_parses_back",
        256,
        |rng| uniform(rng, 1.0, 4.0e8),
        |&ohms| {
            let s = format_ohms(ohms);
            let value: f64 = if let Some(k) = s.strip_suffix('K') {
                k.parse::<f64>().unwrap() * 1e3
            } else if let Some(m) = s.strip_suffix('M') {
                m.parse::<f64>().unwrap() * 1e6
            } else {
                s.parse().unwrap()
            };
            // Two-decimal rendering: within 1% of the original.
            ensure!(
                (value - ohms).abs() <= 0.01 * ohms.max(1.0),
                "{ohms} Ω rendered `{s}`"
            );
            Ok(())
        },
    );
}

#[test]
fn mos_ids_monotonicity_random_cards() {
    use lp_sram_suite::anasim::devices::mosfet::MosParams;
    property(
        "mos_ids_monotonicity_random_cards",
        256,
        |rng| {
            (
                uniform(rng, 1.0e-5, 1.0e-2),
                uniform(rng, 0.2, 0.8),
                uniform(rng, 0.0, 1.2),
                uniform(rng, 0.01, 1.2),
            )
        },
        |&(beta, vth, vgs, vds)| {
            let p = MosParams::nmos(beta, vth);
            let (i, gm, gds) = p.ids(vgs, vds);
            ensure!(
                i >= 0.0 && gm >= 0.0 && gds >= 0.0,
                "ids {i}, gm {gm}, gds {gds}"
            );
            let (i_up, ..) = p.ids(vgs + 0.05, vds);
            ensure!(i_up >= i, "ids falls with vgs: {i} → {i_up}");
            let (i_vds, ..) = p.ids(vgs, vds + 0.05);
            ensure!(i_vds >= i * 0.999, "ids falls with vds: {i} → {i_vds}");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Static analysis (ERC): every netlist the Table II generator can
// produce passes the full rule set, at any admissible tap / feed mode /
// injected defect resistance — the pre-flight gate must never reject a
// healthy campaign grid point.
// ---------------------------------------------------------------------

#[test]
fn table2_generator_netlists_pass_erc() {
    use lp_sram_suite::process::PvtCondition;
    use lp_sram_suite::regulator::{Defect, FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap};
    property(
        "table2_generator_netlists_pass_erc",
        64,
        |rng| {
            (
                rng.int_in(0, 3),
                rng.int_in(0, 2),
                rng.int_in(1, 32) as u8,
                // 1 mΩ (absent) … 500 MΩ (full open).
                uniform(rng, -3.0, 8.7),
            )
        },
        |&(tap_idx, feed_idx, defect_num, log_ohms)| {
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
            )
            .expect("healthy build succeeds");
            circuit.inject(Defect::new(defect_num), 10f64.powf(log_ohms));
            let report = circuit.erc_report();
            ensure!(
                report.is_empty(),
                "Df{defect_num} at 1e{log_ohms:.1} Ω:\n{}",
                report.render_text()
            );
            Ok(())
        },
    );
}

#[test]
fn retention_netlists_pass_erc() {
    use lp_sram_suite::erc;
    use lp_sram_suite::process::{PvtCondition, Sigma};
    use lp_sram_suite::sram::cell::build_retention_netlist;
    use lp_sram_suite::sram::{CellInstance, MismatchPattern};
    property(
        "retention_netlists_pass_erc",
        64,
        |rng| (uniform6(rng, -6.0, 6.0), uniform(rng, 0.3, 1.3)),
        |&(sigmas, vddc)| {
            let pattern = MismatchPattern::from_sigmas(sigmas.map(Sigma));
            let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
            let (nl, _) = build_retention_netlist(&inst, vddc).expect("valid build");
            let report = erc::check_netlist(&nl);
            ensure!(report.is_empty(), "{}", report.render_text());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Shape claim: array leakage rises with temperature, which is why
// Table II's minimum defect resistances are smallest at 125 °C.
// ---------------------------------------------------------------------

/// At any corner and retention supply, the symmetric 256K-cell array
/// load (as Table II samples it, 9 points up to 1.3 V) draws more
/// current at the hotter of two temperatures at least 1 °C apart.
#[test]
fn array_leakage_rises_with_temperature() {
    use lp_sram_suite::process::{ProcessCorner, PvtCondition};
    use lp_sram_suite::sram::{ArrayLoad, CellInstance};
    property(
        "array_leakage_rises_with_temperature",
        64,
        |rng| {
            let corner = *rng.choose(&ProcessCorner::ALL);
            let supply = uniform(rng, 0.05, 1.3);
            let t1 = uniform(rng, -30.0, 124.0);
            (corner, supply, t1, uniform(rng, t1 + 1.0, 125.0))
        },
        |&(corner, supply, t1, t2)| {
            let current = |temp_c| {
                let cell = CellInstance::symmetric(PvtCondition::new(corner, 1.1, temp_c));
                ArrayLoad::build(&cell, &[], 256 * 1024, 1.3, 9)
                    .map(|load| load.current(supply))
                    .map_err(|e| format!("load at {temp_c} °C: {e}"))
            };
            let (cold, hot) = (current(t1)?, current(t2)?);
            ensure!(
                hot > cold,
                "{corner:?} at {supply} V: {cold:e} A at {t1} °C, {hot:e} A at {t2} °C"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Hierarchical array reduction: promoting background cells out of the
// Schur blocks is electrically inert.
// ---------------------------------------------------------------------

/// Random `force_active` promotion sets never change the retention
/// verdict grid. A promoted cell is solved in the interface instead of
/// through a shared macromodel — the Schur reduction being exact block
/// elimination, the choice of active set must be invisible beyond
/// solver tolerance, defect or no defect.
#[test]
fn forced_active_promotion_is_electrically_inert() {
    use lp_sram_suite::anasim::{solve_array, ArraySolveOptions, SolveScratch};
    use lp_sram_suite::process::PvtCondition;
    use lp_sram_suite::sram::{ActiveCell, ArraySpec, CellInstance, StoredBit};

    let cell = |rng: &mut Rng| (rng.int_in(0, 7), rng.int_in(0, 3));
    property(
        "forced_active_promotion_is_electrically_inert",
        12,
        |rng| {
            let len = rng.int_in(0, 5);
            let promoted: Vec<(usize, usize)> = (0..len).map(|_| cell(rng)).collect();
            let defect = rng.coin().then(|| cell(rng));
            (promoted, defect)
        },
        |(promoted, defect)| {
            let base = CellInstance::symmetric(PvtCondition::nominal());
            let mut reference = ArraySpec::retention(8, 4, 0.5, base);
            if let Some((r, c)) = *defect {
                reference
                    .active
                    .push(ActiveCell::bridged(r, c, StoredBit::One, 1.0e3));
            }
            let mut with_promotions = reference.clone();
            with_promotions.force_active = promoted.clone();

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
            let (plain, promoted) = (verdicts(&reference), verdicts(&with_promotions));
            ensure!(plain == promoted, "verdicts {plain:?} became {promoted:?}");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Netlist-level singular diagnostics through the scratch path. (The
// kernel's bit-identity to dense elimination is a drill property in
// `anasim::matrix`.)
// ---------------------------------------------------------------------

/// A singular netlist solved through the scratch path names the same
/// unknown as a fresh cold solve (the rescue ladder reports the plain
/// stage's failure through the identical in-place factorization).
#[test]
fn singular_netlist_names_same_node_through_scratch() {
    use lp_sram_suite::anasim::mna::AnalysisMode;
    use lp_sram_suite::anasim::newton::{solve, solve_with_scratch};
    use lp_sram_suite::anasim::{Error, NewtonOptions, SolveScratch};
    property(
        "singular_netlist_names_same_node_through_scratch",
        64,
        |rng| uniform(rng, 0.1, 10.0),
        |&i_ma| {
            // The current source alone would leave the node floating,
            // which the gmin-regularized rung pins; the two parallel
            // voltage sources make two dependent branch rows, singular
            // on every rung.
            let mut nl = Netlist::new();
            let c = nl.node("floating");
            nl.isource("I1", Netlist::GND, c, i_ma * 1.0e-3);
            nl.vsource("V1", c, Netlist::GND, 1.0);
            nl.vsource("V2", c, Netlist::GND, 1.0);
            let opts = NewtonOptions::default();
            let mut scratch = SolveScratch::new();
            let (Err(fresh), Err(scratched)) = (
                solve(&nl, &opts, None, AnalysisMode::Dc),
                solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch),
            ) else {
                return Err("a voltage-source loop solved".into());
            };
            match (&fresh, &scratched) {
                (
                    Error::SingularMatrix {
                        pivot_row: pa,
                        unknown: ua,
                    },
                    Error::SingularMatrix {
                        pivot_row: pb,
                        unknown: ub,
                    },
                ) => {
                    ensure!(
                        pa == pb && ua == ub,
                        "fresh {fresh:?}, scratch {scratched:?}"
                    );
                    ensure!(ua.is_some(), "diagnostic must name the unknown");
                    Ok(())
                }
                other => Err(format!("unexpected error pair: {other:?}")),
            }
        },
    );
}
