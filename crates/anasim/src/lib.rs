//! `anasim` — a small, self-contained analog circuit simulator.
//!
//! This crate is the electrical substrate of the DATE 2013 low-power-SRAM
//! reproduction. It provides exactly what the paper's SPICE flow needed:
//!
//! * a [`Netlist`] of lumped devices, each one
//!   [`ElementKind`](devices::ElementKind) value: resistors, voltage
//!   sources, capacitors and a continuous EKV-style MOSFET,
//! * modified nodal analysis (MNA) stamping with auxiliary branch
//!   currents for voltage sources,
//! * a dense LU linear solver ([`matrix`]),
//! * a damped Newton–Raphson nonlinear solver with gmin stepping and
//!   source stepping continuation ([`newton`]),
//! * DC operating-point and sweep analyses ([`dc`]) and a fixed-step
//!   backward-Euler transient analysis ([`transient`]); backward Euler
//!   is the only integration method (see [`devices::capacitor`]).
//!
//! The circuits it is used on (an SRAM 6T cell, a voltage regulator with a
//! five-transistor error amplifier) have at most a few tens of nodes, where
//! a dense factorization is the right tool. For full-array simulations the
//! solver switches automatically to a sparse LU backend ([`sparse`]) above
//! [`sparse::SPARSE_THRESHOLD`] unknowns.
//!
//! # Example
//!
//! A resistive divider solved at its DC operating point:
//!
//! ```
//! use anasim::{Netlist, dc::DcAnalysis};
//!
//! # fn main() -> Result<(), anasim::Error> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("vin");
//! let mid = nl.node("mid");
//! nl.vsource("V1", vin, Netlist::GND, 1.0);
//! nl.resistor("R1", vin, mid, 1.0e3)?;
//! nl.resistor("R2", mid, Netlist::GND, 1.0e3)?;
//! let sol = DcAnalysis::new().operating_point(&nl)?;
//! assert!((sol.voltage(mid) - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod dc;
pub mod devices;
pub mod error;
pub mod matrix;
pub mod mna;
mod names;
pub mod netlist;
pub mod newton;
pub mod schur;
pub mod scratch;
pub mod sparse;
pub mod transient;

pub use error::Error;
pub use netlist::{Netlist, NodeId, SourceId};
pub use newton::{NewtonOptions, RescueStage, Solution, SolverStats};
pub use schur::{solve_array, ArraySolveOptions, Partition};
pub use scratch::SolveScratch;

/// Boltzmann constant over elementary charge, in volts per kelvin.
///
/// `V_T = K_OVER_Q * T` is the thermal voltage of the MOSFET model.
pub const K_OVER_Q: f64 = 8.617_333_262e-5;
