//! `process` — PVT (process, voltage, temperature) modeling.
//!
//! The DATE 2013 paper characterizes every defect over the full PVT
//! grid its SRAM is specified for:
//!
//! * **Process corner**: slow, typical, fast, fast-NMOS/slow-PMOS
//!   (`fs`), slow-NMOS/fast-PMOS (`sf`);
//! * **Supply voltage**: 1.0 V, 1.1 V (nominal), 1.2 V;
//! * **Temperature**: −30 °C, 25 °C, 125 °C.
//!
//! This crate provides those axes ([`ProcessCorner`], [`PvtCondition`]),
//! the translation of a corner onto an
//! [`anasim`] MOSFET model card, and the within-die mismatch machinery
//! (σ-valued threshold shifts, [`Sigma`]; Gaussian Monte Carlo sampling,
//! [`montecarlo::MonteCarlo`]) that drives the paper's Fig. 4 and
//! Table I analyses.
//!
//! # Example
//!
//! ```
//! use process::{ProcessCorner, PvtCondition};
//!
//! // Conditions render in the paper's notation.
//! let worst = PvtCondition::new(ProcessCorner::FastNSlowP, 1.0, 125.0);
//! assert_eq!(worst.to_string(), "fs, 1.0V, 125°C");
//! ```

pub mod corner;
pub mod montecarlo;
pub mod pvt;
pub mod sigma;

pub use corner::ProcessCorner;
pub use montecarlo::MonteCarlo;
pub use pvt::PvtCondition;
pub use sigma::{Sigma, VariationModel};
