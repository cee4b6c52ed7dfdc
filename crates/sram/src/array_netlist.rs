//! Full row×col MNA netlists of the core-cell array.
//!
//! PR 9's sparse backend made a ~10k-unknown array solvable; this
//! module makes it *cheap* by generating the netlist in the shape the
//! hierarchical block-Schur reduction ([`anasim::schur`]) wants:
//!
//! * Interface nodes first — the supply strap, the lumped cell rail
//!   V_DD_CC, one word line per row, one bit-line pair per column —
//!   so every shared net has a low unknown index.
//! * Then the cells in row-major order, each contributing a contiguous
//!   `(S, SB)` pair of unknowns. Every *inactive* cell (identical
//!   background instance, no defect) is declared a 2-unknown block of
//!   the returned [`Partition`]; active or force-promoted cells stay in
//!   the interface.
//! * Each cell's devices mirror the single-cell retention template
//!   ([`crate::cell::build_retention_netlist`]) but share the array's
//!   rail/word/bit nets, so an inactive cell couples to the interface
//!   only through {rail, WL(row), BL(col), BLB(col)} — a 4-entry
//!   boundary whose packed `[B|E|F]` bytes are position-indexed.
//!   Inactive cells holding the same bit therefore share one Schur
//!   macromodel regardless of their row or column, which is the whole
//!   reduction: a 512×8 array factors a couple of 2×2 blocks plus a
//!   ~500-unknown interface instead of an ~8.7k-unknown monolith.
//!
//! Retention configuration throughout: word lines and bit lines are
//! resistively tied to ground (peripheral drivers off), the cell rail
//! hangs off the supply through the power-switch strap resistance.

use std::fmt::{self, Write as _};

use crate::cell::{CellInstance, CellTransistor, MismatchPattern};
use crate::drv::StoredBit;
use anasim::newton::Solution;
use anasim::{Netlist, NodeId, Partition};

/// Retention margin of [`ArrayNetlist::retained`], as a fraction of the
/// supply: a cell holds its bit when its storage nodes stay separated
/// in the stored direction by more than `RETENTION_MARGIN_FRACTION ×
/// supply` (see [`holds_bit`]).
///
/// The margin must be far above solver noise and far below a healthy
/// cell's separation, so that no verdict depends on which solver path
/// produced the solution:
///
/// * **Above solver noise.** Newton accepts an iterate once no node
///   voltage moves by more than `vntol + reltol·|V|` (1 nV + 2·10⁻⁴·V
///   with the default options): about 0.22 mV at 1.1 V and 0.10 mV at
///   0.5 V. Two solver paths can each stop that far from the exact
///   solution on both storage nodes, so their separations differ by
///   about four times that at most:
///   0.9 mV at 1.1 V, 0.4 mV at 0.5 V. At 10 % the margin is 110 mV
///   and 50 mV, over a hundred times larger. A cell whose bridge
///   collapsed it to a separation of millivolts or less therefore fails
///   on every path, even though the sign of that separation is decided
///   by sub-tolerance noise.
/// * **Below a healthy cell.** A healthy retention cell holds almost the
///   full rail across its storage nodes: on the 4096×64 map the
///   weakest healthy separation is 0.49999918 V at a 0.5 V supply and
///   1.0999866 V at 1.1 V, ten times the margin. A 1 kΩ S–SB bridge
///   collapses its cell to below 10⁻¹⁴ V.
pub const RETENTION_MARGIN_FRACTION: f64 = 0.1;

/// Whether a cell meant to hold `stored` still holds it, given its
/// storage-node voltages `v_s` and `v_sb` at `supply` volts: the
/// separation in the stored direction must exceed
/// [`RETENTION_MARGIN_FRACTION`] of the supply. A separation exactly at
/// the margin does not retain.
pub fn holds_bit(stored: StoredBit, v_s: f64, v_sb: f64, supply: f64) -> bool {
    let separation = match stored {
        StoredBit::One => v_s - v_sb,
        StoredBit::Zero => v_sb - v_s,
    };
    separation > RETENTION_MARGIN_FRACTION * supply
}

/// Lumped parasitics of the array's shared nets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parasitics {
    /// Power-switch strap between the external supply and the lumped
    /// cell rail V_DD_CC, in ohms.
    pub r_supply: f64,
    /// Word-line tie-down to ground per row (driver off), in ohms.
    pub r_wordline: f64,
    /// Bit-line tie-down to ground per column (precharge off), in ohms.
    pub r_bitline: f64,
}

impl Default for Parasitics {
    fn default() -> Self {
        Parasitics {
            r_supply: 5.0,
            r_wordline: 1.0e3,
            r_bitline: 1.0e3,
        }
    }
}

/// One cell that differs from the background: a mismatch pattern, a
/// different stored bit, and optionally an injected S–SB bridge defect.
/// Active cells are excluded from the Schur blocks and solved in the
/// interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveCell {
    /// Row index, `0..rows`.
    pub row: usize,
    /// Column index, `0..cols`.
    pub col: usize,
    /// Per-transistor mismatch of this cell.
    pub pattern: MismatchPattern,
    /// The bit this cell is holding.
    pub stored: StoredBit,
    /// Resistive S–SB bridge defect (the paper's data-retention-fault
    /// injection), `None` for a defect-free active cell.
    pub bridge_ohms: Option<f64>,
}

impl ActiveCell {
    /// A defect-free active cell holding `stored` with symmetric
    /// transistors.
    pub fn stored(row: usize, col: usize, stored: StoredBit) -> Self {
        ActiveCell {
            row,
            col,
            pattern: MismatchPattern::symmetric(),
            stored,
            bridge_ohms: None,
        }
    }

    /// A cell with an S–SB bridge defect of `ohms`, holding `stored`.
    pub fn bridged(row: usize, col: usize, stored: StoredBit, ohms: f64) -> Self {
        ActiveCell {
            row,
            col,
            pattern: MismatchPattern::symmetric(),
            stored,
            bridge_ohms: Some(ohms),
        }
    }
}

/// Specification of a full-array retention netlist.
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Rows (word lines).
    pub rows: usize,
    /// Columns (bit-line pairs).
    pub cols: usize,
    /// External supply in volts.
    pub supply: f64,
    /// Bit held by every background cell.
    pub background: StoredBit,
    /// Instance of every background cell.
    pub base: CellInstance,
    /// Cells differing from the background (deduplicated by position;
    /// the last entry for a position wins).
    pub active: Vec<ActiveCell>,
    /// Background cells to *promote* to the interface without changing
    /// their electrical content. Solving with different promotion sets
    /// must not change any node voltage beyond solver tolerance — the
    /// equivalence property `tests/properties.rs` leans on.
    pub force_active: Vec<(usize, usize)>,
    /// Shared-net parasitics.
    pub parasitics: Parasitics,
}

impl ArraySpec {
    /// A defect-free background array in retention at `supply` volts.
    pub fn retention(rows: usize, cols: usize, supply: f64, base: CellInstance) -> Self {
        ArraySpec {
            rows,
            cols,
            supply,
            background: StoredBit::One,
            base,
            active: Vec::new(),
            force_active: Vec::new(),
            parasitics: Parasitics::default(),
        }
    }

    /// Builds the netlist, its block [`Partition`], and the per-cell
    /// bookkeeping needed to warm-start and grade a solve.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction errors (invalid model cards or
    /// parasitic values) and partition-validation errors.
    ///
    /// # Panics
    ///
    /// Panics when an active or forced cell lies outside the array.
    pub fn build(&self) -> Result<ArrayNetlist, anasim::Error> {
        // Supply, rail, word lines, bit-line pairs and two storage nodes
        // per cell; two supply devices, one tie per shared net, six
        // transistors per cell and at most one bridge per active cell.
        let cells = self.rows * self.cols;
        let bridges = self.active.iter().filter(|a| a.bridge_ohms.is_some());
        let mut nl = Netlist::with_capacity(
            2 + self.rows + 2 * self.cols + 2 * cells,
            2 + self.rows + 2 * self.cols + 6 * cells + bridges.count(),
        );
        // One buffer serves every formatted name: the netlist stores
        // its own copy, so naming the cells allocates nothing per name.
        // Each cell's eight names share its `{r}_{c}` suffix, formatted
        // once per cell.
        let mut buf = String::new();
        let mut suffix = String::new();
        // Interface nets first: their unknown indices stay below every
        // cell's, and the VDDC branch row lands in the interface too.
        let vdd_supply = nl.node("vdd_supply");
        let vdd_rail = nl.node("vdd_rail");
        nl.vsource("VDDC", vdd_supply, Netlist::GND, self.supply);
        nl.resistor("Rsup", vdd_supply, vdd_rail, self.parasitics.r_supply)?;
        let wl: Vec<NodeId> = (0..self.rows)
            .map(|r| {
                let node = nl.node(name(&mut buf, format_args!("wl{r}")));
                nl.resistor(
                    name(&mut buf, format_args!("Rwl{r}")),
                    node,
                    Netlist::GND,
                    self.parasitics.r_wordline,
                )
                .map(|_| node)
            })
            .collect::<Result<_, _>>()?;
        let mut bl = Vec::with_capacity(self.cols);
        let mut blb = Vec::with_capacity(self.cols);
        for c in 0..self.cols {
            let b = nl.node(name(&mut buf, format_args!("bl{c}")));
            nl.resistor(
                name(&mut buf, format_args!("Rbl{c}")),
                b,
                Netlist::GND,
                self.parasitics.r_bitline,
            )?;
            let bb = nl.node(name(&mut buf, format_args!("blb{c}")));
            nl.resistor(
                name(&mut buf, format_args!("Rblb{c}")),
                bb,
                Netlist::GND,
                self.parasitics.r_bitline,
            )?;
            bl.push(b);
            blb.push(bb);
        }
        // Per site (row-major): the index of the last `active` entry
        // there (the last writer wins), `FORCED` for a promoted
        // background cell, or `BACKGROUND`.
        const BACKGROUND: u32 = u32::MAX;
        const FORCED: u32 = u32::MAX - 1;
        assert!(self.active.len() < FORCED as usize, "too many active cells");
        let mut sites = vec![BACKGROUND; self.rows * self.cols];
        for (i, a) in self.active.iter().enumerate() {
            assert!(
                a.row < self.rows && a.col < self.cols,
                "active cell ({}, {}) outside the {}x{} array",
                a.row,
                a.col,
                self.rows,
                self.cols
            );
            sites[a.row * self.cols + a.col] = i as u32;
        }
        for &(r, c) in &self.force_active {
            assert!(
                r < self.rows && c < self.cols,
                "forced cell ({r}, {c}) outside the {}x{} array",
                self.rows,
                self.cols
            );
            let site = &mut sites[r * self.cols + c];
            if *site == BACKGROUND {
                *site = FORCED;
            }
        }

        let mut cells = Vec::with_capacity(self.rows * self.cols);
        let mut blocks = Vec::new();
        for (r, &wl_r) in wl.iter().enumerate() {
            for c in 0..self.cols {
                let site = sites[r * self.cols + c];
                name(&mut suffix, format_args!("{r}_{c}"));
                let s = nl.node(label(&mut buf, "s", &suffix));
                let sb = nl.node(label(&mut buf, "sb", &suffix));
                // Neither sentinel indexes an `active` entry.
                let over = self.active.get(site as usize);
                if site == BACKGROUND {
                    // A cell's two unknowns are consecutive: the block
                    // starts at S's unknown index.
                    blocks.push((s.index() - 1, 2));
                }
                let inst = match over {
                    Some(a) => CellInstance {
                        pattern: a.pattern,
                        ..self.base
                    },
                    None => self.base,
                };
                let stored = over.map_or(self.background, |a| a.stored);
                nl.mosfet(
                    label(&mut buf, "MP1_", &suffix),
                    s,
                    sb,
                    vdd_rail,
                    inst.card(CellTransistor::MPcc1),
                )?;
                nl.mosfet(
                    label(&mut buf, "MN1_", &suffix),
                    s,
                    sb,
                    Netlist::GND,
                    inst.card(CellTransistor::MNcc1),
                )?;
                nl.mosfet(
                    label(&mut buf, "MP2_", &suffix),
                    sb,
                    s,
                    vdd_rail,
                    inst.card(CellTransistor::MPcc2),
                )?;
                nl.mosfet(
                    label(&mut buf, "MN2_", &suffix),
                    sb,
                    s,
                    Netlist::GND,
                    inst.card(CellTransistor::MNcc2),
                )?;
                nl.mosfet(
                    label(&mut buf, "MN3_", &suffix),
                    bl[c],
                    wl_r,
                    s,
                    inst.card(CellTransistor::MNcc3),
                )?;
                nl.mosfet(
                    label(&mut buf, "MN4_", &suffix),
                    blb[c],
                    wl_r,
                    sb,
                    inst.card(CellTransistor::MNcc4),
                )?;
                if let Some(ohms) = over.and_then(|a| a.bridge_ohms) {
                    nl.resistor(label(&mut buf, "Rbr", &suffix), s, sb, ohms)?;
                }
                cells.push(CellSite { s, sb, stored });
            }
        }
        let partition = Partition::new(nl.num_unknowns(), blocks)?;
        Ok(ArrayNetlist {
            netlist: nl,
            partition,
            vdd_supply,
            vdd_rail,
            supply: self.supply,
            rows: self.rows,
            cols: self.cols,
            cells,
        })
    }
}

/// Formats a netlist name into `buf`, reusing its capacity.
fn name<'a>(buf: &'a mut String, args: fmt::Arguments<'_>) -> &'a str {
    buf.clear();
    buf.write_fmt(args)
        .expect("formatting into a String cannot fail");
    buf
}

/// Writes `prefix` followed by `suffix` into `buf`, reusing its
/// capacity.
fn label<'a>(buf: &'a mut String, prefix: &str, suffix: &str) -> &'a str {
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(suffix);
    buf
}

/// One cell's solve-relevant handles.
#[derive(Debug, Clone, Copy)]
struct CellSite {
    s: NodeId,
    sb: NodeId,
    /// The bit this cell is *supposed* to hold.
    stored: StoredBit,
}

/// A built full-array netlist: the MNA system, its Schur block
/// partition, and per-cell bookkeeping.
#[derive(Debug)]
pub struct ArrayNetlist {
    /// The assembled netlist (retention configuration).
    pub netlist: Netlist,
    /// Inactive-cell block partition for [`anasim::solve_array`].
    pub partition: Partition,
    /// External supply node.
    pub vdd_supply: NodeId,
    /// Lumped cell rail V_DD_CC.
    pub vdd_rail: NodeId,
    supply: f64,
    rows: usize,
    cols: usize,
    cells: Vec<CellSite>,
}

impl ArrayNetlist {
    /// Rows of the built array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the built array.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Warm-start vector: rails at the supply, every cell biased into
    /// its intended state. Without it the bistable cells would settle
    /// by solver accident rather than by stored data.
    pub fn guess(&self) -> Vec<f64> {
        let mut x = self.netlist.zero_state();
        self.netlist.set_guess(&mut x, self.vdd_supply, self.supply);
        self.netlist.set_guess(&mut x, self.vdd_rail, self.supply);
        for site in &self.cells {
            let high = match site.stored {
                StoredBit::One => site.s,
                StoredBit::Zero => site.sb,
            };
            self.netlist.set_guess(&mut x, high, self.supply);
        }
        x
    }

    /// Grades a solution: `true` per cell (row-major) when the cell
    /// still holds its intended bit per [`holds_bit`]. The margin makes
    /// the verdict independent of which solver path produced the
    /// solution (see [`RETENTION_MARGIN_FRACTION`]).
    pub fn retained(&self, sol: &Solution) -> Vec<bool> {
        self.cells
            .iter()
            .map(|site| {
                holds_bit(
                    site.stored,
                    sol.voltage(site.s),
                    sol.voltage(site.sb),
                    self.supply,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::{solve_array, ArraySolveOptions, SolveScratch};
    use process::PvtCondition;

    fn base() -> CellInstance {
        CellInstance::symmetric(PvtCondition::nominal())
    }

    #[test]
    fn retention_margin_is_exclusive_for_both_bits() {
        for supply in [0.5, 1.1] {
            let margin = RETENTION_MARGIN_FRACTION * supply;
            let above = f64::from_bits(margin.to_bits() + 1);
            // Bit 1 is held by S above SB, bit 0 by SB above S.
            assert!(holds_bit(StoredBit::One, above, 0.0, supply));
            assert!(!holds_bit(StoredBit::One, margin, 0.0, supply));
            assert!(holds_bit(StoredBit::Zero, 0.0, above, supply));
            assert!(!holds_bit(StoredBit::Zero, 0.0, margin, supply));
            // A separation in the wrong direction never retains.
            assert!(!holds_bit(StoredBit::One, 0.0, supply, supply));
            assert!(!holds_bit(StoredBit::Zero, supply, 0.0, supply));
        }
    }

    #[test]
    fn geometry_and_partition_bookkeeping() {
        let spec = ArraySpec::retention(16, 8, 1.1, base());
        let built = spec.build().expect("clean array builds");
        // 2 rails + 16 WLs + 16 BL/BLBs + 256 cell nodes + 1 branch.
        assert_eq!(built.netlist.num_unknowns(), 291);
        assert_eq!(built.partition.num_blocks(), 128);
        assert_eq!(built.partition.interface_unknowns(), 35);
    }

    #[test]
    fn names_carry_rows_and_columns_and_cells_share_three_cards() {
        let mut spec = ArraySpec::retention(2, 3, 1.1, base());
        spec.active
            .push(ActiveCell::bridged(1, 2, StoredBit::One, 1.0e3));
        let built = spec.build().expect("array builds");
        let nl = &built.netlist;
        let mut nodes = ["0", "vdd_supply", "vdd_rail", "wl0", "wl1"]
            .map(String::from)
            .to_vec();
        let mut devices = ["VDDC", "Rsup", "Rwl0", "Rwl1"].map(String::from).to_vec();
        for c in 0..3 {
            nodes.extend([format!("bl{c}"), format!("blb{c}")]);
            devices.extend([format!("Rbl{c}"), format!("Rblb{c}")]);
        }
        for r in 0..2 {
            for c in 0..3 {
                nodes.extend([format!("s{r}_{c}"), format!("sb{r}_{c}")]);
                let transistors = ["MP1", "MN1", "MP2", "MN2", "MN3", "MN4"];
                devices.extend(transistors.map(|t| format!("{t}_{r}_{c}")));
            }
        }
        devices.push("Rbr1_2".into());
        assert!(nl.node_names().eq(nodes.iter().map(String::as_str)));
        assert!(nl
            .elements()
            .map(|(name, _)| name)
            .eq(devices.iter().map(String::as_str)));
        // Pull-ups, pull-downs and access transistors: the 36
        // transistors of a symmetric array hold three cards between them.
        assert_eq!(nl.num_cards(), 3);
    }

    #[test]
    fn active_and_forced_cells_leave_the_blocks() {
        let mut spec = ArraySpec::retention(4, 4, 1.1, base());
        spec.active
            .push(ActiveCell::bridged(1, 2, StoredBit::One, 50.0e3));
        spec.force_active.push((3, 0));
        let built = spec.build().expect("array with actives builds");
        assert_eq!(built.partition.num_blocks(), 14);
    }

    #[test]
    fn the_last_active_entry_at_a_site_wins() {
        let mut spec = ArraySpec::retention(4, 4, 1.1, base());
        spec.active
            .push(ActiveCell::bridged(1, 2, StoredBit::One, 50.0e3));
        spec.active.push(ActiveCell::stored(1, 2, StoredBit::Zero));
        // Forcing an active site promotes nothing more.
        spec.force_active.push((1, 2));
        let built = spec.build().expect("array with actives builds");
        assert_eq!(built.partition.num_blocks(), 15);
        assert_eq!(built.cells[6].stored, StoredBit::Zero);
        assert!(
            built
                .netlist
                .elements()
                .all(|(name, _)| !name.starts_with("Rbr")),
            "the overwritten bridge is not built"
        );
    }

    #[test]
    fn healthy_array_retains_everywhere_and_rail_droops_microvolts() {
        let spec = ArraySpec::retention(4, 4, 1.1, base());
        let built = spec.build().expect("clean array builds");
        let mut scratch = SolveScratch::new();
        let sol = solve_array(
            &built.netlist,
            &built.partition,
            &ArraySolveOptions::default(),
            Some(&built.guess()),
            &mut scratch,
        )
        .expect("healthy array solves");
        assert!(built.retained(&sol).iter().all(|&r| r));
        // Retention leakage through the 5 Ω strap drops microvolts, not
        // millivolts: the rail must sit essentially at the supply.
        let rail = sol.voltage(built.vdd_rail);
        assert!((rail - 1.1).abs() < 1.0e-3, "rail at {rail}");
    }

    #[test]
    fn bridge_defect_flips_only_the_injected_cell() {
        let mut spec = ArraySpec::retention(4, 4, 0.5, base());
        // A hard S–SB short collapses the cell's state at low supply.
        spec.active
            .push(ActiveCell::bridged(2, 1, StoredBit::One, 1.0e3));
        let built = spec.build().expect("defective array builds");
        let mut scratch = SolveScratch::new();
        let sol = solve_array(
            &built.netlist,
            &built.partition,
            &ArraySolveOptions::default(),
            Some(&built.guess()),
            &mut scratch,
        )
        .expect("defective array solves");
        let grid = built.retained(&sol);
        for r in 0..4 {
            for c in 0..4 {
                let ok = grid[r * 4 + c];
                if (r, c) == (2, 1) {
                    assert!(!ok, "bridged cell must lose its data");
                } else {
                    assert!(ok, "healthy cell ({r},{c}) must retain");
                }
            }
        }
    }
}
