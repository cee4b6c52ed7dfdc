//! Quickstart: the suite in five steps — measure a cell's retention
//! voltage, watch a regulator defect depress the deep-sleep rail, and
//! catch it with the paper's March m-LZ test flow.
//!
//! Run with `cargo run --release --example quickstart`.

use lp_sram_suite::drftest::case_study::CaseStudy;
use lp_sram_suite::drftest::test_flow::{run_flow_against_defect, TestFlow};
use lp_sram_suite::process::PvtCondition;
use lp_sram_suite::regulator::{static_circuit, Defect, VrefTap};
use lp_sram_suite::sram::{drv_ds, ArrayLoad, CellInstance, DrvOptions, StoredBit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A symmetric 6T cell retains data down to very low supplies.
    let pvt = PvtCondition::nominal();
    let symmetric = CellInstance::symmetric(pvt);
    let drv = drv_ds(&symmetric, StoredBit::One, &DrvOptions::default())?;
    println!(
        "symmetric cell: retains '1' down to {:.0} mV at {pvt}",
        drv.drv * 1e3
    );

    // 2. A worst-case mismatched cell (Table I's CS1) needs far more.
    let cs1 = CaseStudy::new(1, StoredBit::One);
    let stressed = CellInstance::with_pattern(cs1.pattern(), pvt);
    let stressed_drv = drv_ds(&stressed, StoredBit::One, &DrvOptions::default())?;
    println!(
        "{cs1} cell: retains '1' only down to {:.0} mV (paper: {:.0} mV)",
        stressed_drv.drv * 1e3,
        cs1.paper_drv_mv()
    );

    // 3. The healthy regulator holds the deep-sleep rail just above it.
    let load = ArrayLoad::build(&symmetric, &[], 256 * 1024, 1.3, 9)?;
    let mut circuit = static_circuit(pvt, VrefTap::V70)?;
    let healthy = circuit.solve(&load)?;
    println!(
        "healthy regulator: V_DD_CC = {:.3} V (expected {:.3} V)",
        healthy.vddcc,
        circuit.expected_vreg()
    );

    // 4. A resistive open in the output stage (Df16) sinks it. At room
    // temperature the array load is tiny, so a large resistance is
    // needed; at 125 °C the same defect fails at ~1000x less — the
    // reason the paper recommends testing hot.
    circuit.inject(Defect::new(16), 5.0e6);
    let faulty = circuit.solve(&load)?;
    println!(
        "with Df16 = 5 MΩ:     V_DD_CC = {:.3} V — {} the CS1 cell's DRV",
        faulty.vddcc,
        if faulty.vddcc < stressed_drv.drv {
            "below"
        } else {
            "still above"
        }
    );

    // 5. The paper's optimized 3-iteration March m-LZ flow catches it.
    let flow = TestFlow::paper_optimized(1.0e-3);
    let run = run_flow_against_defect(
        &flow,
        Defect::new(16),
        500.0e3, // at the hot test insertion this is far beyond the minimum
        &cs1,
    )?;
    match run.first_detection() {
        Some(i) => println!(
            "March m-LZ flow: DEFECT DETECTED at iteration {} ({})",
            i + 1,
            run.iterations[i].iteration
        ),
        None => println!("March m-LZ flow: defect escaped (unexpected!)"),
    }
    Ok(())
}
