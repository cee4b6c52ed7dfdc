//! `lp-sram-suite` — umbrella crate of the DATE 2013 reproduction
//! *"Test Solution for Data Retention Faults in Low-Power SRAMs"*
//! (Zordan, Bosio, Dilillo, Girard, Todri, Virazel, Badereddine).
//!
//! The suite is organised as a workspace; this crate re-exports every
//! member so examples and downstream users need a single dependency:
//!
//! * [`anasim`] — analog circuit simulator (MNA, Newton, DC/transient);
//! * [`erc`] — static netlist analysis (electrical rule checks) with
//!   the campaign pre-flight gate and the `lint` CLI behind it;
//! * [`process`] — PVT corners, temperature, σ-valued mismatch;
//! * [`sram`] — 6T cell, SNM/DRV analysis, array, power modes,
//!   leakage, retention dynamics, behavioural memory;
//! * [`regulator`] — the embedded voltage regulator with 32
//!   resistive-open defect sites and characterization;
//! * [`march`] — March test notation, engine, algorithm library and
//!   fault-coverage grading;
//! * [`mprove`] — symbolic coverage prover: per-(test, fault-class)
//!   Proven-Detected / Proven-Escaped / Unknown verdicts over the
//!   whole march library, behind the `prove` CLI;
//! * [`drftest`] — the paper's methodology: case studies, DRF_DS fault
//!   model, Fig. 4 / Table I / Table II / Table III experiments, the
//!   optimized test flow.
//!
//! # Quickstart
//!
//! ```no_run
//! use lp_sram_suite::drftest::case_study::CaseStudy;
//! use lp_sram_suite::drftest::test_flow::{run_flow_against_defect, TestFlow};
//! use lp_sram_suite::regulator::Defect;
//! use lp_sram_suite::sram::StoredBit;
//!
//! # fn main() -> Result<(), lp_sram_suite::anasim::Error> {
//! let flow = TestFlow::paper_optimized(1.0e-3);
//! let run = run_flow_against_defect(
//!     &flow,
//!     Defect::new(19),
//!     50.0e3,
//!     &CaseStudy::new(1, StoredBit::One),
//! )?;
//! assert!(run.detected());
//! # Ok(())
//! # }
//! ```

pub use anasim;
pub use drftest;
pub use erc;
pub use march;
pub use mprove;
pub use obs;
pub use process;
pub use regulator;
pub use sram;
