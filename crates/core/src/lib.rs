//! `drftest` — the paper's contribution: a test methodology for data
//! retention faults in low-power SRAMs (DATE 2013 reproduction).
//!
//! Builds on the electrical substrates ([`anasim`], [`sram`],
//! [`regulator`]) and the March engine ([`march`]) to provide:
//!
//! * the Table I case studies of within-die variation
//!   ([`case_study`]),
//! * the DRF_DS fault model and its sensitization analysis
//!   ([`fault_model`]),
//! * the Fig. 4 DRV-vs-variation sweep ([`drv_analysis`]),
//! * the Table II defect characterization campaign
//!   ([`defect_analysis`]),
//! * test flows and the end-to-end flow-vs-defect runner
//!   ([`test_flow`]), the adapter that lets March m-LZ drive the
//!   electrically-backed SRAM ([`sram_target`]),
//! * the static ERC lint driver over the suite's canonical netlists
//!   ([`lint`]),
//! * the flow optimizer behind Table III ([`optimize`]), and
//! * displayable experiment reports pairing measured values with the
//!   published ones ([`experiments`]), and
//! * the resilient-campaign machinery — per-point failure records,
//!   coverage accounting, and checkpoint/resume ([`campaign`]) — and
//!   the deterministic work-stealing parallel executor the campaign
//!   drivers fan grid points across cores with ([`executor`]).
//!
//! # Example: is a defective regulator caught by the optimized flow?
//!
//! ```no_run
//! use drftest::case_study::CaseStudy;
//! use drftest::test_flow::{run_flow_against_defect, TestFlow};
//! use regulator::Defect;
//! use sram::StoredBit;
//!
//! # fn main() -> Result<(), anasim::Error> {
//! let flow = TestFlow::paper_optimized(1.0e-3);
//! let cs = CaseStudy::new(1, StoredBit::One);
//! let run = run_flow_against_defect(&flow, Defect::new(16), 50.0e3, &cs)?;
//! println!("detected: {}", run.detected());
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod case_study;
pub mod defect_analysis;
pub mod diagnosis;
pub mod drv_analysis;
pub mod ds_time;
pub mod executor;
pub mod experiments;
pub mod fault_model;
pub mod fuzz;
pub mod lint;
pub mod montecarlo_drv;
pub mod optimize;
pub mod power_defect_analysis;
pub mod report;
pub mod sram_target;
pub mod taxonomy;
pub mod test_flow;

pub use campaign::{
    completeness_footer, preflight_netlist, publish_coverage, run_grid, Checkpoint, Coverage,
    GridPoint, PointFailure, Settled,
};
pub use case_study::{CaseStudy, WORST_CASE_DRV};
pub use defect_analysis::{table2, tap_for_vdd, Table2, Table2Options};
pub use diagnosis::{diagnose_mlz, diagnose_mlz_with_prepass, FailureSignature, LostValue};
pub use drv_analysis::{fig4, Fig4Data, Fig4Options};
pub use ds_time::{ds_time_sweep, DsTimeReport};
pub use executor::{available_jobs, effective_jobs, parallel_map_isolated, WorkOutcome};
pub use experiments::array::{ArrayRetentionOptions, ArrayRetentionReport, ArrayScenario};
pub use fault_model::DrfDs;
pub use fuzz::{fuzz_functional, fuzz_netlists, random_netlist, FuzzSummary};
pub use lint::{lint_all, rule_catalogue, LintRun, LintTarget};
pub use montecarlo_drv::{monte_carlo_drv, MonteCarloOptions, MonteCarloReport};
pub use optimize::{
    build_coverage, escape_analysis, greedy_cover, CoverageMatrix, CoverageOptions, EscapeReport,
};
pub use power_defect_analysis::{power_defect_table, PowerDefectReport};
pub use sram_target::SramTarget;
pub use taxonomy::{taxonomy, TaxonomyReport};
pub use test_flow::{run_flow_against_defect, FlowIteration, FlowRun, TestFlow};
