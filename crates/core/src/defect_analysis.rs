//! Table II campaign: minimum defect resistance causing a DRF_DS, per
//! defect × case study, minimized over the PVT grid.
//!
//! The campaign runs in two [`run_grid`] passes. The first pre-solves
//! one context per (case study, PVT) condition a computed cell needs:
//! the stressed cell's retention voltage, the array load and, with
//! warm starts on, the healthy regulator's operating point. The second
//! runs one minimum-resistance search per (defect, case study, PVT)
//! point, in grid order; each cell is the minimum over its points, and
//! a point that fails, panics or lost its context counts in the cell's
//! `failed_points` instead of aborting the campaign. As each cell's
//! last point settles it is checkpointed, reported and ticked into the
//! heartbeat, so an interrupted run resumes past every finished cell.

use std::collections::HashMap;
use std::path::PathBuf;

use process::{ProcessCorner, PvtCondition};
use regulator::characterize::{
    healthy_seed, min_resistance_seeded, CharacterizeOptions, DrfCriterion, MinResistance,
};
use regulator::{Defect, RegulatorDesign, VrefTap};
use sram::drv::{drv_ds, DrvOptions};
use sram::{ArrayLoad, CellInstance, CellPopulation, StoredBit};

use crate::campaign::{
    publish_coverage, run_grid, Checkpoint, Coverage, GridPoint, Heartbeat, PointFailure,
};
use crate::case_study::CaseStudy;

/// The regulator configuration rule of §IV.A: pick the tap that puts
/// `Vreg` as close as possible to — but not below — the worst-case
/// retention voltage (730 mV) at each supply.
pub fn tap_for_vdd(vdd: f64) -> VrefTap {
    if vdd >= 1.15 {
        VrefTap::V64 // 1.2 V → 0.768 V
    } else if vdd >= 1.05 {
        VrefTap::V70 // 1.1 V → 0.770 V
    } else {
        VrefTap::V74 // 1.0 V → 0.740 V
    }
}

/// Options of the Table II campaign, which characterizes the
/// [`RegulatorDesign::lp40nm`] regulator.
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// Corners in the PVT grid.
    pub corners: Vec<ProcessCorner>,
    /// Temperatures in the grid, °C.
    pub temperatures: Vec<f64>,
    /// Supplies in the grid (each paired with [`tap_for_vdd`]).
    pub supplies: Vec<f64>,
    /// Defects characterized (default: the paper's 17 Table II rows).
    pub defects: Vec<Defect>,
    /// Case studies characterized (default: the five `-1` variants;
    /// the `-0` rows are mirrors).
    pub case_studies: Vec<CaseStudy>,
    /// Min-resistance search tuning.
    pub characterize: CharacterizeOptions,
    /// DRV search tuning.
    pub drv: DrvOptions,
    /// Samples of the array-load I(V) curve.
    pub load_points: usize,
    /// When set, completed `(defect, case study)` cells are appended to
    /// this tab-separated file and a rerun pointed at the same path
    /// resumes, skipping cells already logged. The file's first line
    /// names the options that decide a cell's value (the grid,
    /// `characterize`, `drv`, `load_points` and `warm_start`); a file
    /// written under other ones is refused before any solve.
    pub checkpoint: Option<PathBuf>,
    /// Worker threads the campaign fans its grid points across. `0`
    /// means "available parallelism"; `1` runs the sequential inline
    /// path. Output tables, checkpoint rows and coverage footers are
    /// byte-identical for every value (see [`crate::executor`]).
    pub jobs: usize,
    /// Seed each point's resistance search from the healthy operating
    /// point pre-solved at its grid condition
    /// ([`regulator::characterize::healthy_seed`]) instead of the cold
    /// DC guess. Purely an accelerator: a missing or stale seed
    /// degrades to a cold start.
    pub warm_start: bool,
}

impl Table2Options {
    /// The paper's full grid (5 corners × 3 temperatures × 3
    /// supplies). Expensive: minutes of CPU.
    pub fn paper() -> Self {
        Table2Options {
            corners: ProcessCorner::ALL.to_vec(),
            temperatures: vec![-30.0, 25.0, 125.0],
            supplies: vec![1.0, 1.1, 1.2],
            defects: Defect::table2_rows(),
            case_studies: CaseStudy::ones(),
            characterize: CharacterizeOptions::default(),
            drv: DrvOptions::default(),
            load_points: 9,
            checkpoint: None,
            jobs: 0,
            warm_start: true,
        }
    }

    /// A single-condition smoke configuration for tests.
    pub fn quick() -> Self {
        Table2Options {
            corners: vec![ProcessCorner::FastNSlowP],
            temperatures: vec![125.0],
            supplies: vec![1.0],
            characterize: CharacterizeOptions::coarse(),
            drv: DrvOptions::coarse(),
            load_points: 5,
            ..Self::paper()
        }
    }

    /// The grid conditions every cell is minimized over, corner-major,
    /// then temperature, then supply.
    fn grid(&self) -> Vec<PvtCondition> {
        let mut grid = Vec::new();
        for &corner in &self.corners {
            for &temp in &self.temperatures {
                for &vdd in &self.supplies {
                    grid.push(PvtCondition::new(corner, vdd, temp));
                }
            }
        }
        grid
    }

    /// The checkpoint's settings line: every option that decides a
    /// cell's value.
    fn checkpoint_settings(&self) -> String {
        format!(
            "table2 corners={:?} temperatures={:?} supplies={:?} characterize={:?} \
             drv={:?} load_points={} warm_start={}",
            self.corners,
            self.temperatures,
            self.supplies,
            self.characterize,
            self.drv,
            self.load_points,
            self.warm_start
        )
    }
}

/// One (defect, case study) cell of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Cell {
    /// Minimum resistance causing a DRF_DS, minimized over the grid;
    /// `None` renders as the paper's `> 500M`.
    pub min_ohms: Option<f64>,
    /// The grid condition achieving the minimum.
    pub pvt: Option<PvtCondition>,
    /// Rail voltage at the failing point (diagnostic).
    pub vddcc: Option<f64>,
    /// Grid points of this cell left unsolved (failed, panicked, or
    /// whose shared context could not be built); when non-zero the
    /// cell's minimum is over the points that *did* complete.
    pub failed_points: usize,
}

impl Table2Cell {
    const EMPTY: Table2Cell = Table2Cell {
        min_ohms: None,
        pvt: None,
        vddcc: None,
        failed_points: 0,
    };

    /// The cell's share of the campaign's coverage: its grid points, of
    /// which all but the failed ones completed.
    fn coverage(&self, grid_size: usize) -> Coverage {
        Coverage {
            attempted: grid_size,
            completed: grid_size - self.failed_points.min(grid_size),
            elapsed_s: 0.0,
        }
    }
}

/// One defect row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The characterized defect.
    pub defect: Defect,
    /// One cell per case study, in `options.case_studies` order.
    pub cells: Vec<Table2Cell>,
}

/// The full table, possibly partial: grid points that stayed unsolved
/// after the solver's rescue ladder are listed in `failures` and
/// accounted in `coverage` instead of aborting the campaign.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Case studies, column order.
    pub case_studies: Vec<CaseStudy>,
    /// Rows in `options.defects` order.
    pub rows: Vec<Table2Row>,
    /// Grid points (or shared contexts) left unsolved this run.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting over all grid points (resumed
    /// cells count with the failure tally recorded at checkpoint time).
    pub coverage: Coverage,
}

impl Table2 {
    /// The cell for (defect, case-study number), if present.
    pub fn cell(&self, defect: Defect, cs_number: u8) -> Option<&Table2Cell> {
        let col = self
            .case_studies
            .iter()
            .position(|c| c.number == cs_number)?;
        let row = self.rows.iter().find(|r| r.defect == defect)?;
        row.cells.get(col)
    }
}

/// Per-(case-study, PVT) context, shared across defects by Tables II
/// and III: the stressed cell, its retention voltage and the array
/// load.
pub(crate) struct GridContext {
    pub(crate) stressed: CellInstance,
    pub(crate) drv: f64,
    pub(crate) load: ArrayLoad,
}

/// A Table II context plus — when warm starts are on — the healthy
/// circuit's converged state, the seed every resistance search at this
/// condition starts Newton from.
type SeededContext = (GridContext, Option<Vec<f64>>);

/// Stable checkpoint key of one (defect, case-study) cell.
fn cell_key(defect: Defect, cs_number: u8) -> String {
    format!("df{}/cs{}", defect.number(), cs_number)
}

fn checkpoint_fields(key: &str, cell: &Table2Cell) -> Vec<String> {
    // `{x:e}` with no precision prints the shortest string that parses
    // back to the same f64 bit pattern — a resumed cell is then
    // bit-identical to the fresh-computed one. (`{x:.6e}` used to cut
    // to 6 significant figures, so resumed Table II cells drifted.)
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:e}"));
    vec![
        key.to_string(),
        opt(cell.min_ohms),
        cell.pvt
            .map_or_else(|| "-".to_string(), |p| p.corner.abbreviation().to_string()),
        opt(cell.pvt.map(|p| p.vdd)),
        opt(cell.pvt.map(|p| p.temp_c)),
        opt(cell.vddcc),
        cell.failed_points.to_string(),
    ]
}

/// Parses a checkpoint row back into a cell; `None` (recompute) on any
/// malformed or stale-format field.
fn checkpoint_cell(fields: &[String]) -> Option<Table2Cell> {
    let opt = |s: &str| -> Option<Option<f64>> {
        if s == "-" {
            Some(None)
        } else {
            s.parse::<f64>().ok().map(Some)
        }
    };
    if fields.len() < 6 {
        return None;
    }
    let min_ohms = opt(&fields[0])?;
    let pvt = if fields[1] == "-" {
        None
    } else {
        let corner = *ProcessCorner::ALL
            .iter()
            .find(|c| c.abbreviation() == fields[1])?;
        Some(PvtCondition::new(
            corner,
            opt(&fields[2])??,
            opt(&fields[3])??,
        ))
    };
    Some(Table2Cell {
        min_ohms,
        pvt,
        vddcc: opt(&fields[4])?,
        failed_points: fields[5].parse().ok()?,
    })
}

/// One grid point of a computed cell, as the campaign hands it to its
/// per-point evaluation: the cell's defect and case study, the
/// condition, and the context pre-solved there.
pub(crate) struct CellPoint<'a> {
    pub(crate) defect: Defect,
    pub(crate) case_study: u8,
    pub(crate) pvt: PvtCondition,
    context: &'a GridContext,
    seed: Option<&'a [f64]>,
}

impl CellPoint<'_> {
    /// The minimum-resistance search at this point, started from the
    /// healthy seed when there is one: the evaluation [`table2`] runs.
    pub(crate) fn search(
        &self,
        characterize: &CharacterizeOptions,
    ) -> Result<MinResistance, anasim::Error> {
        let criterion = DrfCriterion {
            stressed: &self.context.stressed,
            stored: StoredBit::One,
            drv: self.context.drv,
        };
        min_resistance_seeded(
            &RegulatorDesign::lp40nm(),
            self.pvt,
            tap_for_vdd(self.pvt.vdd),
            self.defect,
            &self.context.load,
            &criterion,
            characterize,
            self.seed,
        )
    }
}

/// Runs the campaign with per-grid-point fault isolation.
///
/// Each grid point runs independently: a point that the solver's
/// escalation ladder cannot rescue, that the pre-flight gate turns
/// away, or whose evaluation panics is recorded in the returned
/// table's `failures`/`coverage` (and in the owning cell's
/// `failed_points`) rather than aborting the whole campaign. When
/// [`Table2Options::checkpoint`] is set, finished cells are appended
/// there and a rerun resumes past them.
///
/// # Errors
///
/// Non-recordable failures — invalid netlists, bad sweep setups,
/// checkpoint I/O problems and a checkpoint written under other
/// options (both surfaced as [`anasim::Error::InvalidValue`]) — still
/// abort: they mean the campaign itself is misconfigured, not that one
/// point is hard.
pub fn table2(options: &Table2Options) -> Result<Table2, anasim::Error> {
    table2_with(options, |point| point.search(&options.characterize))
}

/// [`table2`] with `evaluate` in place of each grid point's search, so
/// that tests can make chosen points fail, be turned away or panic.
pub(crate) fn table2_with(
    options: &Table2Options,
    evaluate: impl Fn(&CellPoint<'_>) -> Result<MinResistance, anasim::Error> + Sync,
) -> Result<Table2, anasim::Error> {
    let _span = obs::span("table2");
    let campaign_start = std::time::Instant::now();
    let grid = options.grid();
    let grid_size = grid.len();
    let io_err = |e: std::io::Error| anasim::Error::InvalidValue {
        device: "checkpoint".into(),
        what: e.to_string(),
    };
    let checkpoint = match &options.checkpoint {
        Some(path) => Some(Checkpoint::open(path, &options.checkpoint_settings()).map_err(io_err)?),
        None => None,
    };
    let resumed: HashMap<String, Table2Cell> = match &checkpoint {
        Some(cp) => cp
            .rows_by_key()
            .map_err(io_err)?
            .into_iter()
            .filter_map(|(k, fields)| checkpoint_cell(&fields).map(|c| (k, c)))
            .collect(),
        None => HashMap::new(),
    };
    // The cells this run computes, as (defect, case-study column), in
    // grid order.
    let computed: Vec<(Defect, usize)> = options
        .defects
        .iter()
        .flat_map(|&d| (0..options.case_studies.len()).map(move |ci| (d, ci)))
        .filter(|&(d, ci)| !resumed.contains_key(&cell_key(d, options.case_studies[ci].number)))
        .collect();

    // ---- Contexts, for every condition of each case study a computed
    // cell needs, pre-solved in grid order so the warm-start seeds do
    // not depend on the worker count.
    let needed: Vec<bool> = (0..options.case_studies.len())
        .map(|ci| computed.iter().any(|&(_, c)| c == ci))
        .collect();
    let ctx_items: Vec<(usize, PvtCondition)> = (0..options.case_studies.len())
        .filter(|&ci| needed[ci])
        .flat_map(|ci| grid.iter().map(move |&pvt| (ci, pvt)))
        .collect();
    let design = RegulatorDesign::lp40nm();
    let built = run_grid(
        options.jobs,
        &ctx_items,
        |_, &(ci, pvt)| {
            let cs = options.case_studies[ci].number;
            GridPoint::new(format!("context cs{cs} @ {pvt}"), None, Some(cs), Some(pvt))
        },
        |&(ci, pvt)| {
            let ctx = {
                let _span = obs::span("context");
                build_context(
                    &options.case_studies[ci],
                    pvt,
                    &options.drv,
                    options.load_points,
                )?
            };
            // A failed healthy solve only costs the warm start: the
            // searches at this condition run cold.
            let seed = if options.warm_start {
                healthy_seed(&design, pvt, tap_for_vdd(pvt.vdd), &ctx.load).ok()
            } else {
                None
            };
            Ok((ctx, seed))
        },
        |_, _| {},
    )?;
    // Per case-study column, its contexts in grid order (none for a
    // column no computed cell needs). A context whose construction
    // failed is `None`: the failure is charged once, above, and every
    // point that needs it counts as failed without being evaluated.
    let mut built_contexts = built.results.into_iter();
    let contexts: Vec<Vec<Option<SeededContext>>> = needed
        .iter()
        .map(|&n| {
            let count = if n { grid_size } else { 0 };
            built_contexts.by_ref().take(count).collect()
        })
        .collect();

    // ---- The computed cells' points with a context, one grid item
    // each, in grid order.
    let mut points = Vec::new();
    let mut poisoned = Vec::with_capacity(computed.len() * grid_size);
    for &(defect, ci) in &computed {
        for (context, &pvt) in contexts[ci].iter().zip(&grid) {
            poisoned.push(context.is_none());
            if let Some((context, seed)) = context {
                points.push(CellPoint {
                    defect,
                    case_study: options.case_studies[ci].number,
                    pvt,
                    context,
                    seed: seed.as_deref(),
                });
            }
        }
    }
    let keys = computed
        .iter()
        .map(|&(d, ci)| cell_key(d, options.case_studies[ci].number))
        .collect();
    let resumed_coverage = resumed.values().fold(Coverage::default(), |mut c, cell| {
        c.merge(cell.coverage(grid_size));
        c
    });
    let mut fold = CellFold::new(
        grid_size,
        keys,
        poisoned,
        checkpoint.as_ref(),
        resumed_coverage,
    );
    let settled = run_grid(
        options.jobs,
        &points,
        |_, p| {
            GridPoint::new(
                format!("{} @ {}", cell_key(p.defect, p.case_study), p.pvt),
                Some(p.defect),
                Some(p.case_study),
                Some(p.pvt),
            )
        },
        &evaluate,
        |j, outcome| fold.settle(points[j].pvt, outcome),
    );
    let mut computed_cells = fold.finish().map_err(io_err)?.into_iter();
    let settled = settled?;

    // ---- Assembly, in (defect × case-study) grid order.
    let mut coverage = Coverage::default();
    let rows = options
        .defects
        .iter()
        .map(|&defect| {
            let cells = options
                .case_studies
                .iter()
                .map(|cs| {
                    let cell = match resumed.get(&cell_key(defect, cs.number)) {
                        Some(cell) => *cell,
                        None => computed_cells
                            .next()
                            .expect("one computed cell per cell not resumed"),
                    };
                    coverage.merge(cell.coverage(grid_size));
                    cell
                })
                .collect();
            Table2Row { defect, cells }
        })
        .collect();
    coverage.elapsed_s = campaign_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    let mut failures = built.failures;
    failures.extend(settled.failures);
    Ok(Table2 {
        case_studies: options.case_studies.clone(),
        rows,
        failures,
        coverage,
    })
}

/// Table II's computed cells, folded from their grid points in grid
/// order as [`run_grid`] settles them: each cell is the minimum over
/// its solved points (the first of equal minima wins), and a point that
/// failed or lost its context counts in its `failed_points`. As a
/// cell's last point folds in, the cell is appended to the checkpoint
/// (until the first fatal error or checkpoint failure), reported as a
/// progress line and ticked into the heartbeat.
struct CellFold<'a> {
    /// Grid points per cell.
    grid_size: usize,
    /// The computed cells' checkpoint keys.
    keys: Vec<String>,
    /// Per point of the computed cells: whether its context is
    /// poisoned, so that no grid item evaluates it.
    poisoned: Vec<bool>,
    /// Points folded so far.
    folded: usize,
    cells: Vec<Table2Cell>,
    checkpoint: Option<&'a Checkpoint>,
    /// Coverage of the resumed and the finished cells.
    running: Coverage,
    heartbeat: Heartbeat,
    /// Set by the first fatal error: no cell is logged past it.
    halted: bool,
    io_error: Option<std::io::Error>,
}

impl<'a> CellFold<'a> {
    fn new(
        grid_size: usize,
        keys: Vec<String>,
        poisoned: Vec<bool>,
        checkpoint: Option<&'a Checkpoint>,
        resumed: Coverage,
    ) -> Self {
        CellFold {
            grid_size,
            heartbeat: Heartbeat::new("table2", poisoned.len() + resumed.attempted),
            cells: vec![Table2Cell::EMPTY; keys.len()],
            keys,
            poisoned,
            folded: 0,
            checkpoint,
            running: resumed,
            halted: false,
            io_error: None,
        }
    }

    /// Folds the poisoned points before the next evaluated one, then
    /// that point's outcome.
    fn settle(&mut self, pvt: PvtCondition, outcome: &Result<MinResistance, anasim::Error>) {
        self.halted |= outcome.as_ref().is_err_and(|e| !e.is_recordable());
        while self.poisoned[self.folded] {
            self.fold(None);
        }
        self.fold(outcome.as_ref().ok().map(|found| (pvt, found)));
    }

    /// Folds the poisoned points after the last evaluated one and
    /// returns the cells, or the first checkpoint failure.
    fn finish(mut self) -> std::io::Result<Vec<Table2Cell>> {
        while self.folded < self.poisoned.len() {
            self.fold(None);
        }
        match self.io_error {
            Some(e) => Err(e),
            None => Ok(self.cells),
        }
    }

    /// Folds the next point: its condition and search result, or `None`
    /// when it has none.
    fn fold(&mut self, found: Option<(PvtCondition, &MinResistance)>) {
        let c = self.folded / self.grid_size;
        let cell = &mut self.cells[c];
        match found {
            Some((pvt, found)) => {
                if let Some(ohms) = found.ohms {
                    if cell.min_ohms.is_none_or(|b| ohms < b) {
                        cell.min_ohms = Some(ohms);
                        cell.pvt = Some(pvt);
                        cell.vddcc = found.vddcc_at_fault;
                    }
                }
            }
            None => cell.failed_points += 1,
        }
        self.folded += 1;
        if !self.folded.is_multiple_of(self.grid_size) {
            return;
        }
        let cell = self.cells[c];
        self.running.merge(cell.coverage(self.grid_size));
        if !self.halted && self.io_error.is_none() {
            let key = &self.keys[c];
            let logged = self
                .checkpoint
                .map_or(Ok(()), |cp| cp.append(&checkpoint_fields(key, &cell)));
            match logged {
                Ok(()) => obs::progress(&format!("table2 cell {key} done ({})", self.running)),
                Err(e) => self.io_error = Some(e),
            }
        }
        self.heartbeat.tick(self.running.completed);
    }
}

/// Builds the per-(case study, PVT) shared context, sampling the
/// array-load I(V) curve at `load_points` supplies.
pub(crate) fn build_context(
    cs: &CaseStudy,
    pvt: PvtCondition,
    drv: &DrvOptions,
    load_points: usize,
) -> Result<GridContext, anasim::Error> {
    let stressed = CellInstance::with_pattern(cs.pattern(), pvt);
    let drv = drv_ds(&stressed, StoredBit::One, drv)?.drv;
    let base = CellInstance::symmetric(pvt);
    let load = ArrayLoad::build(
        &base,
        &[CellPopulation {
            pattern: cs.pattern(),
            count: cs.cell_count(),
            stored: StoredBit::One,
        }],
        256 * 1024,
        1.3,
        load_points,
    )?;
    Ok(GridContext {
        stressed,
        drv,
        load,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_matching_rule() {
        assert_eq!(tap_for_vdd(1.0), VrefTap::V74);
        assert_eq!(tap_for_vdd(1.1), VrefTap::V70);
        assert_eq!(tap_for_vdd(1.2), VrefTap::V64);
        // Expected Vreg stays at or just above 730 mV.
        for vdd in [1.0, 1.1, 1.2] {
            let vreg = tap_for_vdd(vdd).fraction() * vdd;
            assert!((0.73..0.78).contains(&vreg), "vreg {vreg} at vdd {vdd}");
        }
    }

    /// Pulls the cell for (defect, case study), failing with the grid
    /// coordinate in the message instead of a bare unwrap.
    fn cell_at(table: &Table2, df: u8, cs: u8) -> Table2Cell {
        *table.cell(Defect::new(df), cs).unwrap_or_else(|| {
            panic!("campaign produced no cell at (Df{df}, CS{cs})");
        })
    }

    /// The quick grid over `defects` × `case_studies`.
    fn quick_over(defects: &[u8], case_studies: &[u8]) -> Table2Options {
        let mut opts = Table2Options::quick();
        opts.defects = defects.iter().map(|&d| Defect::new(d)).collect();
        opts.case_studies = case_studies
            .iter()
            .map(|&cs| CaseStudy::new(cs, StoredBit::One))
            .collect();
        opts
    }

    /// The search [`table2`] runs at every point, except at the points
    /// of cell `(defect, case study)`, which run `inject` instead.
    fn inject_at(
        characterize: CharacterizeOptions,
        cell: (u8, u8),
        inject: impl Fn(&CellPoint<'_>) -> Result<MinResistance, anasim::Error> + Sync,
    ) -> impl Fn(&CellPoint<'_>) -> Result<MinResistance, anasim::Error> + Sync {
        move |p| {
            if (p.defect.number(), p.case_study) == cell {
                inject(p)
            } else {
                p.search(&characterize)
            }
        }
    }

    /// A non-convergence, as the rescue ladder reports it.
    fn no_convergence(_: &CellPoint<'_>) -> Result<MinResistance, anasim::Error> {
        Err(anasim::Error::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })
    }

    #[test]
    fn quick_campaign_over_two_defects() {
        let table = table2(&quick_over(&[16, 18], &[1, 2])).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert!(
            table.coverage.is_complete() && table.failures.is_empty(),
            "healthy quick campaign must be complete, got {} with {} failures",
            table.coverage,
            table.failures.len()
        );
        // 2 defects × 2 CS × 1 grid point.
        assert_eq!(table.coverage.attempted, 4);
        // Df16 hurts; lower-DRV CS2 needs more resistance than CS1.
        let cs1 = cell_at(&table, 16, 1);
        let cs2 = cell_at(&table, 16, 2);
        let r1 = cs1
            .min_ohms
            .unwrap_or_else(|| panic!("no DRF threshold at (Df16, CS1): {cs1:?}"));
        let r2 = cs2
            .min_ohms
            .unwrap_or_else(|| panic!("no DRF threshold at (Df16, CS2): {cs2:?}"));
        assert!(
            r1 < r2,
            "CS1 (highest DRV) must need the least resistance: {r1} vs {r2}"
        );
        // The negligible sense-line defect never fails.
        let neg = cell_at(&table, 18, 1);
        assert_eq!(neg.min_ohms, None, "(Df18, CS1) unexpectedly faulted");
        assert_eq!(neg.failed_points, 0, "(Df18, CS1) lost grid points");
    }

    #[test]
    fn injected_failure_is_isolated_not_fatal() {
        let opts = quick_over(&[16, 19], &[1, 2]);
        // Every grid point of (Df19, CS1) fails to converge.
        let table = table2_with(&opts, inject_at(opts.characterize, (19, 1), no_convergence))
            .expect("campaign must survive an unsolvable point");

        // The poisoned cell carries the tally, not a result.
        let hurt = cell_at(&table, 19, 1);
        assert_eq!(hurt.failed_points, 1);
        assert_eq!(hurt.min_ohms, None);
        // Every other cell still completed normally.
        assert!(cell_at(&table, 16, 1).min_ohms.is_some());
        assert!(cell_at(&table, 16, 2).min_ohms.is_some());
        assert_eq!(cell_at(&table, 19, 2).failed_points, 0);
        // And the bookkeeping reflects exactly one lost point.
        assert_eq!(table.failures.len(), 1);
        let f = &table.failures[0];
        assert_eq!(f.defect, Some(Defect::new(19)));
        assert_eq!(f.case_study, Some(1));
        assert!(f.error.is_retryable());
        assert_eq!(f.attempts, anasim::newton::SOLVE_ATTEMPTS);
        assert_eq!(table.coverage.attempted, 4);
        assert_eq!(table.coverage.completed, 3);
        assert!(!table.coverage.is_complete());
    }

    #[test]
    fn injected_panic_is_isolated_not_fatal() {
        let _obs = crate::campaign::tests::obs_lock();
        let mut opts = quick_over(&[16, 19], &[1, 2]);
        // The worker evaluating (Df19, CS1) dies mid-campaign.
        let evaluate = inject_at(opts.characterize, (19, 1), |p| {
            panic!("injected panic evaluating Df{}", p.defect.number())
        });
        opts.jobs = 1;
        let sequential = table2_with(&opts, &evaluate).expect("a panic costs one point");
        opts.jobs = 4;
        let parallel = table2_with(&opts, &evaluate).expect("a panic costs one point");
        assert_eq!(
            table_fingerprint(&sequential),
            table_fingerprint(&parallel),
            "surviving cells must be byte-identical at any --jobs count"
        );

        // The lost point's cell carries the tally; survivors are untouched.
        let hurt = cell_at(&sequential, 19, 1);
        assert_eq!(hurt.failed_points, 1);
        assert_eq!(hurt.min_ohms, None);
        assert!(cell_at(&sequential, 16, 1).min_ohms.is_some());
        assert!(cell_at(&sequential, 16, 2).min_ohms.is_some());
        assert_eq!(cell_at(&sequential, 19, 2).failed_points, 0);

        // Exactly one failure, marked as a caught panic.
        assert_eq!(sequential.failures.len(), 1);
        let f = &sequential.failures[0];
        assert!(f.panicked, "failure must carry the panicked marker");
        assert!(f.error.is_panic());
        assert_eq!(f.defect, Some(Defect::new(19)));
        assert_eq!(f.case_study, Some(1));
        assert_eq!(f.attempts, 0);
        assert!(
            f.error.to_string().contains("injected panic"),
            "the panic message survives: {}",
            f.error
        );
        assert!(!sequential.coverage.is_complete());
        assert_eq!(sequential.coverage.completed, 3);

        // The report footer renders the casualty.
        let footer =
            crate::campaign::completeness_footer(&sequential.coverage, &sequential.failures);
        assert!(footer.contains("[panicked]"), "{footer}");
    }

    #[test]
    fn a_panic_costs_one_point_and_its_cell_is_checkpointed() {
        let _obs = crate::campaign::tests::obs_lock();
        let dir = std::env::temp_dir().join("drftest-table2-panic-point");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = quick_over(&[16, 19], &[1]);
        opts.temperatures = vec![-30.0, 125.0];
        // (Df19, CS1) dies at 125 °C only; its −30 °C point still runs.
        let evaluate = |p: &CellPoint<'_>| {
            assert!(
                (p.defect.number(), p.pvt.temp_c) != (19, 125.0),
                "injected panic at {}",
                p.pvt
            );
            p.search(&opts.characterize)
        };
        let run = |jobs: usize, checkpoint: Option<PathBuf>| {
            let opts = Table2Options {
                jobs,
                checkpoint,
                ..opts.clone()
            };
            table2_with(&opts, evaluate).expect("a panic costs one point")
        };
        let sequential = run(1, None);
        let parallel = run(4, Some(path.clone()));
        assert_eq!(table_fingerprint(&sequential), table_fingerprint(&parallel));

        // Exactly one panicked failure, at the point that died.
        let [f] = &sequential.failures[..] else {
            panic!("one failure: {:?}", sequential.failures);
        };
        assert!(f.panicked && f.error.is_panic(), "{f}");
        assert_eq!((f.defect, f.case_study), (Some(Defect::new(19)), Some(1)));
        assert_eq!(f.pvt.map(|p| p.temp_c), Some(125.0));
        assert_eq!(
            (sequential.coverage.attempted, sequential.coverage.completed),
            (4, 3)
        );

        // The cell keeps the −30 °C point's minimum, exactly as a run
        // over that condition alone finds it.
        let mut cold = opts.clone();
        cold.temperatures = vec![-30.0];
        let alone = cell_at(&table2(&cold).unwrap(), 19, 1);
        let hurt = cell_at(&sequential, 19, 1);
        assert!(alone.min_ohms.is_some(), "{alone:?}");
        assert_eq!(
            Table2Cell {
                failed_points: 1,
                ..alone
            },
            hurt
        );

        // The cell is checkpointed like one with a non-converged point,
        // and a resumed run reproduces the table without re-running it.
        let logged = Checkpoint::new(&path).rows_by_key().unwrap();
        assert_eq!(logged["df19/cs1"][5], "1", "{:?}", logged["df19/cs1"]);
        assert_eq!(logged.len(), 2);
        let resumed = run(1, Some(path.clone()));
        assert_eq!(cells_fingerprint(&resumed), cells_fingerprint(&sequential));
        assert_eq!(resumed.coverage.completed, 3);
        assert!(resumed.failures.is_empty(), "nothing ran again");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_disconnect_is_rejected_by_preflight() {
        let opts = quick_over(&[16], &[1, 2]);
        // Every grid point of (Df16, CS2) builds the circuit it would
        // solve with a severed node, which the pre-flight gate rejects
        // before any solve.
        let severed = |p: &CellPoint<'_>| {
            let mut circuit = regulator::RegulatorCircuit::new(
                &RegulatorDesign::lp40nm(),
                p.pvt,
                tap_for_vdd(p.pvt.vdd),
                regulator::FeedMode::Static,
            )?;
            circuit.add_orphan_node("injected_disconnect");
            circuit.preflight()?;
            panic!("pre-flight accepted a severed netlist")
        };
        let table = table2_with(&opts, inject_at(opts.characterize, (16, 2), severed))
            .expect("campaign must survive a rejected point");

        let hurt = cell_at(&table, 16, 2);
        assert_eq!(hurt.failed_points, 1);
        assert_eq!(hurt.min_ohms, None);
        assert!(
            cell_at(&table, 16, 1).min_ohms.is_some(),
            "the untouched cell still characterizes"
        );
        assert_eq!(table.failures.len(), 1);
        let f = &table.failures[0];
        assert_eq!(f.attempts, 0, "no Newton iteration may be spent");
        assert!(!f.panicked);
        match &f.error {
            anasim::Error::PreflightRejected { code, what } => {
                assert_eq!(code, "ERC001");
                assert!(
                    what.contains("injected_disconnect"),
                    "diagnostic must name the severed node: {what}"
                );
            }
            other => panic!("expected a pre-flight rejection, got {other}"),
        }
        assert!(!f.error.is_retryable(), "rescue ladder cannot help");
        // The gate's work shows up in the observability counters (and
        // therefore in every run manifest).
        let counters = obs::snapshot().counters;
        assert!(*counters.get("erc.preflight.checked").unwrap_or(&0) >= 1);
        assert!(*counters.get("erc.preflight.rejected").unwrap_or(&0) >= 1);
    }

    #[test]
    fn poisoned_context_is_charged_once_and_fails_its_points() {
        let _obs = crate::campaign::tests::obs_lock();
        let mut opts = quick_over(&[16, 19], &[1]);
        // No context can be built at a NaN supply: the retention-voltage
        // search refuses it with a panic, which the runner records.
        opts.supplies = vec![1.0, f64::NAN];
        let table = table2(&opts).expect("a poisoned context is recordable");

        // One failure, the context's: no defect, at the NaN condition.
        let [f] = &table.failures[..] else {
            panic!("one failure: {:?}", table.failures);
        };
        assert_eq!((f.defect, f.case_study), (None, Some(1)));
        assert!(f.pvt.is_some_and(|p| p.vdd.is_nan()), "{f}");
        assert!(f.panicked && f.error.to_string().contains("supply"), "{f}");
        // Each dependent point is attempted but not completed, in the
        // coverage and in its cell, while the 1.0 V points still yield
        // the quick grid's cells.
        assert_eq!((table.coverage.attempted, table.coverage.completed), (4, 2));
        let quick = table2(&quick_over(&[16, 19], &[1])).unwrap();
        for df in [16, 19] {
            assert_eq!(
                cell_at(&table, df, 1),
                Table2Cell {
                    failed_points: 1,
                    ..cell_at(&quick, df, 1)
                }
            );
        }
    }

    #[test]
    fn cells_fold_poisoned_points_in_grid_order() {
        // Three cells of two points; a poisoned context takes the first
        // cell's first point and the whole last cell, which no grid item
        // evaluates.
        let found = |ohms: f64| MinResistance {
            ohms: Some(ohms),
            vddcc_at_fault: Some(0.5),
            healthy_faulty: false,
        };
        let at = |temp_c| PvtCondition::new(ProcessCorner::Typical, 1.0, temp_c);
        let keys = ["a", "b", "c"].map(String::from).to_vec();
        let poisoned = vec![true, false, false, false, true, true];
        let mut fold = CellFold::new(2, keys, poisoned, None, Coverage::default());
        fold.settle(at(25.0), &Ok(found(2.0e3)));
        fold.settle(at(-30.0), &Ok(found(1.0e3)));
        // A tie keeps the first point's condition.
        fold.settle(at(125.0), &Ok(found(1.0e3)));
        let cells = fold.finish().unwrap();
        assert_eq!(
            cells.iter().map(|c| c.failed_points).collect::<Vec<_>>(),
            [1, 0, 2]
        );
        assert_eq!(cells[0].min_ohms, Some(2.0e3));
        assert_eq!(cells[1].min_ohms, Some(1.0e3));
        assert_eq!(cells[1].pvt, Some(at(-30.0)));
        assert_eq!(
            cells[2],
            Table2Cell {
                failed_points: 2,
                ..Table2Cell::EMPTY
            }
        );
        let covered: Vec<_> = cells.iter().map(|c| c.coverage(2).completed).collect();
        assert_eq!(covered, [1, 2, 0]);
    }

    #[test]
    fn checkpoint_resume_skips_logged_cells() {
        let dir = std::env::temp_dir().join("drftest-table2-ckpt");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = quick_over(&[16], &[1]);
        opts.checkpoint = Some(path.clone());
        let first = table2(&opts).unwrap();
        let logged = Checkpoint::new(&path).rows_by_key().unwrap();
        assert!(logged.contains_key("df16/cs1"), "cell not checkpointed");

        // A rerun resumes from the file and reproduces the same cell
        // without recomputing (verified by the round-trip parse).
        let second = table2(&opts).unwrap();
        let a = cell_at(&first, 16, 1);
        let b = cell_at(&second, 16, 1);
        let (ra, rb) = (a.min_ohms.unwrap(), b.min_ohms.unwrap());
        // Bit-exact: checkpoint_fields serializes with shortest
        // round-trip precision, so resume introduces zero drift.
        assert_eq!(
            ra.to_bits(),
            rb.to_bits(),
            "resumed cell drifted: {ra} vs {rb}"
        );
        assert_eq!(
            a.vddcc.map(f64::to_bits),
            b.vddcc.map(f64::to_bits),
            "resumed vddcc drifted"
        );
        assert_eq!(a.pvt.map(|p| p.corner), b.pvt.map(|p| p.corner));
        assert_eq!(
            a.pvt.map(|p| (p.vdd.to_bits(), p.temp_c.to_bits())),
            b.pvt.map(|p| (p.vdd.to_bits(), p.temp_c.to_bits())),
            "resumed pvt drifted"
        );
        assert_eq!(a.failed_points, b.failed_points);
        assert!(second.coverage.is_complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_of_other_options_is_refused_before_any_solve() {
        let dir = std::env::temp_dir().join("drftest-table2-ckpt-options");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = quick_over(&[16], &[1]);
        opts.checkpoint = Some(path.clone());
        opts.jobs = 1;
        table2(&opts).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(
            written.starts_with("# table2 corners=[FastNSlowP]"),
            "{written}"
        );

        // Another load sampling would compute other cells: the logged
        // ones are refused, by file name, before anything is solved.
        opts.load_points += 1;
        let before = obs::tally();
        let err = table2(&opts).expect_err("options differ");
        assert_eq!(obs::tally().since(&before).iterations, 0, "nothing solved");
        match &err {
            anasim::Error::InvalidValue { device, what } => {
                assert_eq!(device, "checkpoint");
                assert!(what.contains(&path.display().to_string()), "{what}");
            }
            other => panic!("expected the checkpoint refusal, got {other}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), written);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Serializes every cell through the full-precision checkpoint field
    /// format: two tables rendering to identical strings are
    /// bit-identical in every cell value.
    fn cells_fingerprint(table: &Table2) -> String {
        let mut out = String::new();
        for row in &table.rows {
            for (cs, cell) in table.case_studies.iter().zip(&row.cells) {
                let key = cell_key(row.defect, cs.number);
                out.push_str(&checkpoint_fields(&key, cell).join("\t"));
                out.push('\n');
            }
        }
        out
    }

    /// [`cells_fingerprint`] plus the coverage and failure counts.
    fn table_fingerprint(table: &Table2) -> String {
        format!(
            "{}coverage {}/{} failures {}\n",
            cells_fingerprint(table),
            table.coverage.completed,
            table.coverage.attempted,
            table.failures.len()
        )
    }

    #[test]
    fn table2_identical_across_jobs_and_parallel_resume() {
        let dir = std::env::temp_dir().join("drftest-table2-determinism");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = quick_over(&[16, 18, 19], &[1, 2]);
        // Exercise the failure path under parallelism too.
        let evaluate = inject_at(opts.characterize, (19, 2), no_convergence);

        opts.jobs = 1;
        let sequential = table2_with(&opts, &evaluate).unwrap();
        opts.jobs = 4;
        let parallel = table2_with(&opts, &evaluate).unwrap();
        assert_eq!(
            table_fingerprint(&sequential),
            table_fingerprint(&parallel),
            "--jobs 4 must be byte-identical to --jobs 1"
        );

        // Resumed-from-checkpoint parallel run: a first (interrupted)
        // run logs only the Df16 cells; the rerun resumes them from
        // the file and computes the rest in parallel. The assembled
        // table must still match the uninterrupted sequential run.
        let mut partial = opts.clone();
        partial.defects = vec![Defect::new(16)];
        partial.checkpoint = Some(path.clone());
        let _ = table2(&partial).unwrap();
        let mut resumed_opts = opts.clone();
        resumed_opts.checkpoint = Some(path.clone());
        let resumed = table2_with(&resumed_opts, &evaluate).unwrap();
        assert_eq!(
            table_fingerprint(&sequential),
            table_fingerprint(&resumed),
            "a parallel run resumed from a checkpoint must reproduce the table"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table2_verdicts_identical_from_cold_and_warm_starts() {
        // The healthy-state warm start is an accelerator: over the
        // full quick grid every minimum resistance must equal the cold
        // run's exactly. (The diagnostic rail voltages converge from
        // different starts, so they agree only to solver tolerance.)
        // One worker keeps every solve on this thread, so the
        // thread-local tally counts exactly this campaign's Newton
        // iterations, which are deterministic and pinned.
        let mut cold = Table2Options::quick();
        cold.jobs = 1;
        cold.warm_start = false;
        let mut warm = cold.clone();
        warm.warm_start = true;
        let newton_iterations = |opts: &Table2Options| {
            let before = obs::tally();
            let table = table2(opts).unwrap();
            (table, obs::tally().since(&before).iterations)
        };
        let (cold_t, cold_iterations) = newton_iterations(&cold);
        let (warm_t, warm_iterations) = newton_iterations(&warm);
        assert_eq!(
            (cold_iterations, warm_iterations),
            (38_947, 38_313),
            "Newton iterations from cold and warm starts"
        );
        assert!(cold_t.coverage.is_complete(), "{}", cold_t.coverage);
        assert!(warm_t.coverage.is_complete(), "{}", warm_t.coverage);
        for (row_c, row_w) in cold_t.rows.iter().zip(&warm_t.rows) {
            for (cs, (c, w)) in cold_t
                .case_studies
                .iter()
                .zip(row_c.cells.iter().zip(&row_w.cells))
            {
                assert_eq!(
                    c.min_ohms,
                    w.min_ohms,
                    "Df{}/CS{}: warm start changed the verdict",
                    row_c.defect.number(),
                    cs.number
                );
            }
        }
    }
}
