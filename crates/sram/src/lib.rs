//! `sram` — electrical and behavioural model of the low-power SRAM.
//!
//! Models the paper's Intel 40 nm LP single-port 4K×64 SRAM:
//!
//! * the 6T core-cell with per-transistor mismatch ([`cell`]),
//! * SNM butterfly analysis ([`snm`]) over solver-extracted transfer
//!   curves ([`vtc`]),
//! * the deep-sleep data-retention-voltage search ([`drv`]),
//! * the 512×512 core-cell array organisation ([`mod@array`]),
//! * the array's leakage load on the regulator ([`leakage`]),
//! * power modes, PM-control logic and power switches ([`power`]),
//! * retention flip dynamics during deep-sleep ([`retention`]),
//! * a behavioural word-oriented memory with power-mode awareness
//!   ([`memory`]), and
//! * static power accounting ([`static_power`]).
//!
//! # Example: measuring a cell's retention voltage
//!
//! ```no_run
//! use process::PvtCondition;
//! use sram::{CellInstance, DrvOptions, StoredBit};
//!
//! # fn main() -> Result<(), anasim::Error> {
//! let cell = CellInstance::symmetric(PvtCondition::nominal());
//! let result = sram::drv_ds(&cell, StoredBit::One, &DrvOptions::default())?;
//! println!("symmetric cell retains '1' down to {:.0} mV", result.drv * 1e3);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod array_netlist;
pub mod cell;
pub mod drv;
pub mod leakage;
pub mod memory;
pub mod power;
pub mod retention;
pub mod snm;
pub mod static_power;
pub mod vtc;

pub use array::{ArrayGeometry, CellArray, CellLocation};
pub use array_netlist::{
    holds_bit, ActiveCell, ArrayNetlist, ArraySpec, Parasitics, RETENTION_MARGIN_FRACTION,
};
pub use cell::{CellDesign, CellInstance, CellTransistor, MismatchPattern};
pub use drv::{drv_ds, drv_ds_worst, DrvOptions, DrvResult, StoredBit};
pub use leakage::{ArrayLoad, CellPopulation, KahanSum};
pub use memory::{
    DsConditions, ElectricalRetention, MemoryError, RetentionPolicy, SramDevice, TableRetention,
};
pub use power::{PmControl, PmInputs, PowerMode};
pub use retention::{flip_time, retention_outcome, RetentionOutcome};
pub use snm::{snm_ds, ButterflySnm};
pub use static_power::{StaticPowerModel, StaticPowerReport};
