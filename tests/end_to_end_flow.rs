//! End-to-end integration: resistive-open defect → electrical
//! regulator solve → behavioural SRAM retention → March m-LZ flow
//! detection. This is the full pipeline of the paper, crossing every
//! crate of the workspace.

use lp_sram_suite::drftest::case_study::CaseStudy;
use lp_sram_suite::drftest::test_flow::{run_flow_against_defect, TestFlow};
use lp_sram_suite::regulator::Defect;
use lp_sram_suite::sram::StoredBit;

#[test]
fn severe_output_stage_defect_is_detected() {
    let run = run_flow_against_defect(
        &TestFlow::paper_optimized(1e-3),
        Defect::new(19),
        100.0e3,
        &CaseStudy::new(1, StoredBit::One),
    )
    .unwrap();
    assert!(run.detected());
}

#[test]
fn tiny_defect_escapes_and_larger_is_caught() {
    // Around the minimum resistance there is a pass/fail boundary: a
    // far smaller defect must pass, a far bigger one must fail.
    let cs = CaseStudy::new(1, StoredBit::One);
    let flow = TestFlow::paper_optimized(1e-3);
    let small = run_flow_against_defect(&flow, Defect::new(16), 20.0, &cs).unwrap();
    assert!(!small.detected(), "a 20 Ω imperfection must pass");
    let large = run_flow_against_defect(&flow, Defect::new(16), 1.0e6, &cs).unwrap();
    assert!(large.detected(), "a 1 MΩ open must fail");
}

#[test]
fn divider_defect_detected_through_reference_shift() {
    // Df1 starves every tap; the flow sees the depressed Vreg.
    let run = run_flow_against_defect(
        &TestFlow::paper_optimized(1e-3),
        Defect::new(1),
        2.0e6,
        &CaseStudy::new(2, StoredBit::One),
    )
    .unwrap();
    assert!(run.detected());
}

#[test]
fn mirror_case_study_is_caught_by_the_second_retention_pass() {
    // A CS2-0 cell loses '0's: only the second DSM (array holding 0)
    // sensitizes it, so detection happens in ME7 (element index 6).
    // The defect resistance is chosen so the rail lands between the
    // symmetric cells' retention voltage and the stressed cell's (a
    // huge open would scramble the whole array and fire in ME4
    // instead).
    let run = run_flow_against_defect(
        &TestFlow::paper_optimized(1e-3),
        Defect::new(16),
        30.0e3,
        &CaseStudy::new(2, StoredBit::Zero),
    )
    .unwrap();
    assert!(run.detected());
    let first = run
        .iterations
        .iter()
        .find(|r| r.outcome.detected())
        .unwrap();
    assert_eq!(
        first.outcome.failures[0].element, 6,
        "a lost '0' must surface in ME7's r0"
    );
}

#[test]
fn transient_defect_df8_detected_at_large_resistance() {
    // Df8 delays regulator activation; at hundreds of MΩ the rail
    // collapses before hand-off and the data is gone.
    let run = run_flow_against_defect(
        &TestFlow::paper_optimized(1e-3),
        Defect::new(8),
        400.0e6,
        &CaseStudy::new(1, StoredBit::One),
    )
    .unwrap();
    assert!(run.detected(), "Df8 at 400 MΩ must be caught");
}

#[test]
fn negligible_defects_never_fail_the_flow() {
    let cs = CaseStudy::new(1, StoredBit::One);
    let flow = TestFlow::paper_optimized(1e-3);
    for n in [14u8, 17, 18, 21, 24, 25] {
        let run = run_flow_against_defect(&flow, Defect::new(n), 450.0e6, &cs).unwrap();
        assert!(!run.detected(), "negligible Df{n} flagged");
    }
}

#[test]
fn power_category_defects_pass_the_retention_flow() {
    // Category-1 defects raise Vreg: retention is safe (they cost
    // power instead), so the DRF flow must not flag them.
    let cs = CaseStudy::new(1, StoredBit::One);
    let flow = TestFlow::paper_optimized(1e-3);
    for n in [13u8, 15, 20, 28, 30] {
        let run = run_flow_against_defect(&flow, Defect::new(n), 450.0e6, &cs).unwrap();
        assert!(!run.detected(), "category-1 Df{n} flagged as DRF");
    }
}

#[test]
fn exhaustive_flow_detects_whatever_optimized_detects() {
    let cs = CaseStudy::new(1, StoredBit::One);
    for (defect, ohms) in [(Defect::new(16), 50.0e3), (Defect::new(23), 1.0e6)] {
        let opt =
            run_flow_against_defect(&TestFlow::paper_optimized(1e-3), defect, ohms, &cs).unwrap();
        let exh = run_flow_against_defect(&TestFlow::exhaustive(1e-3), defect, ohms, &cs).unwrap();
        assert_eq!(
            opt.detected(),
            exh.detected(),
            "{defect}: optimized and exhaustive flows disagree"
        );
    }
}
