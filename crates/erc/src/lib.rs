//! Static netlist analysis (electrical rule checks).
//!
//! This crate walks an [`anasim::Netlist`] *without solving it* and
//! reports structural problems — floating nodes, voltage-source loops,
//! dead-end terminals, degenerate values — as
//! structured [`Diagnostic`]s with stable codes (`ERC001`…), severity,
//! the node/device names involved, and a fix hint.
//!
//! Three consumers share the engine:
//!
//! * the `lint` CLI subcommand renders reports as text or JSON
//!   (from [`Report::diagnostics`]);
//! * campaign executors run [`check_netlist`] as a pre-flight gate, so
//!   a broken grid point is rejected with a named-node
//!   [`anasim::Error::PreflightRejected`] before any Newton iteration
//!   is spent on it;
//! * circuit-family crates (the regulator) add their own `ERC1xx`
//!   rules through the same [`Rule`] trait.
//!
//! Severity semantics: only [`Severity::Error`] findings reject a
//! netlist in pre-flight ([`Report::reject_on_error`]). Warnings and
//! infos are advisory; the lint CLI can escalate warnings with
//! `--deny-warnings`.
//!
//! ```
//! use anasim::devices::mosfet::MosParams;
//! use anasim::Netlist;
//!
//! let mut nl = Netlist::new();
//! let vdd = nl.node("vdd");
//! let gate = nl.node("gate");
//! nl.vsource("V1", vdd, Netlist::GND, 1.0);
//! let card = MosParams::nmos(2.0e-4, 0.45);
//! nl.mosfet("M1", vdd, gate, Netlist::GND, card)?; // nothing drives the gate!
//! let report = erc::check_netlist(&nl);
//! assert!(report.has_errors());
//! assert_eq!(report.first_error().unwrap().code, "ERC001");
//! assert!(report.reject_on_error().is_err());
//! # Ok::<(), anasim::Error>(())
//! ```

pub mod connect;
pub mod diag;
pub mod model;
pub mod rules;

pub use connect::{ground_reachable, UnionFind};
pub use diag::{Diagnostic, Report, Severity};
pub use model::{CircuitModel, EdgeStrength, Element, ElementClass};
pub use rules::{
    check_model, check_model_with, check_netlist, default_rules, Rule, EXTREME_RESISTANCE_OHMS,
};
