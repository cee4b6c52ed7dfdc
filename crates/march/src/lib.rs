//! `march` — a self-contained March memory-test library.
//!
//! Provides the notation and engine for word-oriented March tests
//! ([`op`], [`element`], [`mod@test`], [`engine`]), a library of published
//! algorithms including the paper's **March m-LZ** ([`library`]),
//! behavioural fault models with a deep-sleep retention fault
//! ([`fault`]), a reference memory with fault injection ([`target`]),
//! and fault-coverage grading ([`coverage`]).
//!
//! The crate is deliberately free of electrical dependencies: it can
//! grade any [`target::TestTarget`], including the electrically-backed
//! SRAM device that the `drftest` crate adapts into it.
//!
//! # Example
//!
//! ```
//! use march::{engine, library, target::SimpleMemory};
//! use march::fault::{CellRef, Fault};
//!
//! let test = library::march_mlz(1.0e-3);
//! let mut memory = SimpleMemory::new(64, 8);
//! memory.inject(Fault::retention_loss(CellRef { addr: 3, bit: 5 }, true));
//! let outcome = engine::run(&test, &mut memory);
//! assert!(outcome.detected());
//! ```

pub mod background;
pub mod coverage;
pub mod element;
pub mod engine;
pub mod fault;
pub mod library;
pub mod op;
pub mod target;
pub mod test;

pub use background::DataBackground;
pub use coverage::{grade, grade_with_backgrounds, CoverageReport};
pub use element::MarchElement;
pub use engine::{detects, run, run_with_background, FailureRecord, TestOutcome};
pub use fault::{CellRef, Fault, FaultKind, FaultPrimitive};
pub use op::{AddressOrder, Op};
pub use target::{SimpleMemory, TestTarget};
pub use test::{MarchTest, ParseNotationError, ValidateTestError};
