//! Table II campaign: minimum defect resistance causing a DRF_DS, per
//! defect × case study, minimized over the PVT grid.

use std::collections::HashMap;
use std::path::PathBuf;

use process::{ProcessCorner, PvtCondition};
use regulator::characterize::{
    healthy_seed, min_resistance_seeded, CharacterizeOptions, DrfCriterion,
};
use regulator::{Defect, RegulatorDesign, VrefTap};
use sram::drv::{drv_ds, DrvOptions};
use sram::{ArrayLoad, CellInstance, CellPopulation, StoredBit};

use crate::campaign::{
    publish_coverage, run_grid, settle_point, Checkpoint, Coverage, GridPoint, Heartbeat,
    PointFailure, Quarantine, Settled,
};
use crate::case_study::CaseStudy;
use crate::executor::{parallel_map_isolated, WorkOutcome};

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
    /// Fault-injection hook for resilience tests: `(defect number,
    /// case-study number)` cells whose every grid point is forced to
    /// report a synthetic non-convergence instead of being solved.
    pub inject_failures: Vec<(u8, u8)>,
    /// Fault-injection hook for the ERC pre-flight gate: `(defect
    /// number, case-study number)` cells whose grid points get a
    /// deliberately severed (orphan-node) regulator netlist, so the
    /// static checks must reject them before any Newton iteration.
    pub inject_disconnects: Vec<(u8, u8)>,
    /// Fault-injection hook for the executor's panic isolation:
    /// `(defect number, case-study number)` cells whose evaluation
    /// deliberately panics on the worker. The campaign must record the
    /// cell as a panicked [`PointFailure`] and keep going — surviving
    /// cells, checkpoint rows and the coverage footer stay
    /// byte-identical at any `--jobs` count.
    pub inject_panics: Vec<(u8, u8)>,
    /// When set, completed `(defect, case study)` cells are appended to
    /// this tab-separated file and a rerun pointed at the same path
    /// resumes, skipping cells already logged.
    pub checkpoint: Option<PathBuf>,
    /// Worker threads the campaign fans its (defect, case-study) cells
    /// across. `0` means "available parallelism"; `1` runs the
    /// sequential inline path. Output tables, checkpoint rows and
    /// coverage footers are byte-identical for every value (see
    /// [`crate::executor`]).
    pub jobs: usize,
    /// Seed each cell's resistance search from the healthy operating
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
            inject_failures: Vec::new(),
            inject_disconnects: Vec::new(),
            inject_panics: Vec::new(),
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
    /// Grid points of this cell left unsolved after the rescue ladder;
    /// when non-zero the cell's minimum is over the points that *did*
    /// complete.
    pub failed_points: usize,
}

impl Table2Cell {
    fn empty() -> Self {
        Table2Cell {
            min_ohms: None,
            pvt: None,
            vddcc: None,
            failed_points: 0,
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

/// The context-cache key: (cs number, corner, temp bits, vdd bits).
/// Temperature and supply key on their exact values, so two conditions
/// share a context only when they are the same condition. The tap is
/// derived from vdd ([`tap_for_vdd`]), so it needs no key component.
type CtxKey = (u8, &'static str, u64, u64);

fn ctx_key(cs_number: u8, pvt: PvtCondition) -> CtxKey {
    (
        cs_number,
        pvt.corner.abbreviation(),
        pvt.temp_c.to_bits(),
        pvt.vdd.to_bits(),
    )
}

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

/// Runs the campaign with per-grid-point fault isolation.
///
/// Each grid point runs independently: a point that the solver's
/// escalation ladder cannot rescue is recorded in the returned table's
/// `failures`/`coverage` (and in the owning cell's `failed_points`)
/// rather than aborting the whole campaign. When
/// [`Table2Options::checkpoint`] is set, finished cells are appended
/// there and a rerun resumes past them.
///
/// # Errors
///
/// Non-retryable failures — invalid netlists, bad sweep setups, and
/// checkpoint I/O problems (surfaced as
/// [`anasim::Error::InvalidValue`]) — still abort: they mean the
/// campaign itself is misconfigured, not that one point is hard.
pub fn table2(options: &Table2Options) -> Result<Table2, anasim::Error> {
    let _span = obs::span("table2");
    let campaign_start = std::time::Instant::now();
    let design = RegulatorDesign::lp40nm();
    let grid_size = options.corners.len() * options.temperatures.len() * options.supplies.len();
    let checkpoint = options.checkpoint.as_ref().map(Checkpoint::new);
    let io_err = |e: std::io::Error| anasim::Error::InvalidValue {
        device: "checkpoint".into(),
        what: e.to_string(),
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
    // The quarantine sidecar remembers cells that died identically on
    // earlier resume attempts; those are turned away up front instead
    // of re-dying on every resume forever.
    let mut quarantine = match &checkpoint {
        Some(cp) => Some(Quarantine::load(Quarantine::sidecar_path(cp.path())).map_err(io_err)?),
        None => None,
    };
    // Snapshot at load time: a death recorded *during this run* must
    // not retroactively rewrite this run's own failure record — the
    // quarantine only gates future runs.
    let quarantined_at_start: std::collections::HashSet<String> = quarantine
        .as_ref()
        .map(|q| q.quarantined_keys().iter().map(|s| s.to_string()).collect())
        .unwrap_or_default();
    let skipped = |defect: Defect, cs: &CaseStudy| {
        resumed.contains_key(&cell_key(defect, cs.number))
            || quarantined_at_start.contains(&cell_key(defect, cs.number))
            || options
                .inject_failures
                .contains(&(defect.number(), cs.number))
            || options
                .inject_disconnects
                .contains(&(defect.number(), cs.number))
            || options
                .inject_panics
                .contains(&(defect.number(), cs.number))
    };

    // ---- Phase A: shared grid contexts, in deterministic grid order.
    // Built for every (cs, pvt) some non-resumed, non-injected cell
    // will touch. Pre-solving them up front (instead of the old lazy
    // per-encounter build) keeps the warm-start cache population
    // deterministic — a racy lazy insert under parallelism could vary
    // which solve seeded the cache between runs.
    let mut ctx_items: Vec<(usize, PvtCondition)> = Vec::new();
    for (ci, cs) in options.case_studies.iter().enumerate() {
        if !options.defects.iter().any(|&d| !skipped(d, cs)) {
            continue;
        }
        for &corner in &options.corners {
            for &temp in &options.temperatures {
                for &vdd in &options.supplies {
                    ctx_items.push((ci, PvtCondition::new(corner, vdd, temp)));
                }
            }
        }
    }
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
        None,
    )?;
    // A context whose construction failed is cached poisoned (`None`)
    // so the failure is charged once here and every grid point that
    // needs it is tallied as failed without re-solving.
    let mut failures = built.failures;
    let contexts: HashMap<CtxKey, Option<SeededContext>> = ctx_items
        .iter()
        .zip(built.results)
        .map(|(&(ci, pvt), ctx)| (ctx_key(options.case_studies[ci].number, pvt), ctx))
        .collect();

    // ---- Phase B: the (defect × case-study) cells, fanned across
    // workers. Each worker owns its cell completely (grid loop, solver
    // tallies, local failure list); the single-threaded `on_ready`
    // callback appends checkpoint rows in strict grid order, so an
    // interrupted parallel run resumes exactly like a sequential one.
    let mut cell_items: Vec<(Defect, usize)> = Vec::new();
    for &d in &options.defects {
        for (ci, cs) in options.case_studies.iter().enumerate() {
            if !resumed.contains_key(&cell_key(d, cs.number))
                && !quarantined_at_start.contains(&cell_key(d, cs.number))
            {
                cell_items.push((d, ci));
            }
        }
    }
    let mut ckpt_err: Option<std::io::Error> = None;
    let mut halted = false;
    let mut running = Coverage::default();
    for cell in resumed.values() {
        running.merge(resumed_coverage(cell, grid_size));
    }
    // Periodic progress events with ETA and stall detection, paced by
    // the single-writer callback (no extra thread, no lock).
    // `running` already carries the resumed cells' coverage, so the
    // target is the fresh cells' grid plus whatever was pre-counted.
    let mut heartbeat = Heartbeat::new("table2", grid_size * cell_items.len() + running.attempted);
    let done = parallel_map_isolated(
        options.jobs,
        &cell_items,
        |_, &(defect, ci)| {
            evaluate_cell(
                defect,
                &options.case_studies[ci],
                options,
                &design,
                &contexts,
            )
        },
        |i, outcome| {
            let (defect, ci) = cell_items[i];
            let key = cell_key(defect, options.case_studies[ci].number);
            match outcome {
                WorkOutcome::Done(Ok(cell)) => {
                    running.merge(cell.coverage);
                    if !halted && ckpt_err.is_none() {
                        let logged = checkpoint
                            .as_ref()
                            .map_or(Ok(()), |cp| cp.append(&checkpoint_fields(&key, &cell.cell)));
                        match logged {
                            Ok(()) => obs::progress(&format!("table2 cell {key} done ({running})")),
                            Err(e) => ckpt_err = Some(e),
                        }
                    }
                }
                // A panicked cell is a recorded casualty, *not* a halt:
                // it is deliberately left out of the checkpoint so a
                // resumed run recomputes it, and the surviving cells'
                // checkpoint stream is exactly what a run without the
                // panic would have written around it. The death *is*
                // logged in the quarantine sidecar: a cell that dies
                // the same way on consecutive resumes loses its retry
                // rights.
                WorkOutcome::Panicked { message } => {
                    if let Some(q) = &mut quarantine {
                        if ckpt_err.is_none() {
                            if let Err(e) = q.record(&key, message) {
                                ckpt_err = Some(e);
                            }
                        }
                    }
                    running.merge(Coverage {
                        attempted: grid_size,
                        completed: 0,
                        elapsed_s: 0.0,
                    });
                    obs::progress(&format!("table2 cell {key} panicked ({running})"));
                }
                // A non-recordable error will abort the campaign once
                // the scope joins; stop checkpointing cells past it so
                // the file matches what a sequential run would have
                // logged before the abort.
                WorkOutcome::Done(Err(_)) => halted = true,
            }
            // Ticked after the merge, so the heartbeat counts the cell
            // that just finished.
            heartbeat.tick(running.completed);
        },
    );
    if let Some(e) = ckpt_err {
        return Err(io_err(e));
    }

    // ---- Assembly, in (defect × case-study) grid order.
    let mut done_iter = done.into_iter();
    let mut rows = Vec::with_capacity(options.defects.len());
    let mut coverage = Coverage::default();
    for &defect in &options.defects {
        let mut cells = Vec::with_capacity(options.case_studies.len());
        for cs in &options.case_studies {
            if let Some(cell) = resumed.get(&cell_key(defect, cs.number)) {
                coverage.merge(resumed_coverage(cell, grid_size));
                cells.push(*cell);
                continue;
            }
            if let Some(err) = quarantined_at_start
                .contains(&cell_key(defect, cs.number))
                .then(|| {
                    quarantine
                        .as_ref()
                        .and_then(|q| q.reject(&cell_key(defect, cs.number)))
                })
                .flatten()
            {
                // Turned away before any solve: the whole cell's grid
                // is charged as lost, exactly like a pre-flight ERC
                // rejection (attempts: 0).
                coverage.merge(Coverage {
                    attempted: grid_size,
                    completed: 0,
                    elapsed_s: 0.0,
                });
                failures.push(PointFailure::new(Some(defect), Some(cs.number), None, err));
                cells.push(Table2Cell {
                    failed_points: grid_size,
                    ..Table2Cell::empty()
                });
                continue;
            }
            let outcome = done_iter
                .next()
                .expect("the executor returns one result per non-resumed cell");
            let cell = match outcome {
                WorkOutcome::Done(result) => result?,
                // The worker evaluating this cell panicked: the whole
                // cell's grid is lost, charged as one panicked failure.
                WorkOutcome::Panicked { message } => CellDone {
                    cell: Table2Cell {
                        failed_points: grid_size,
                        ..Table2Cell::empty()
                    },
                    failures: vec![PointFailure::new(
                        Some(defect),
                        Some(cs.number),
                        None,
                        anasim::Error::Panicked { what: message },
                    )],
                    coverage: Coverage {
                        attempted: grid_size,
                        completed: 0,
                        elapsed_s: 0.0,
                    },
                },
            };
            coverage.merge(cell.coverage);
            failures.extend(cell.failures);
            cells.push(cell.cell);
        }
        rows.push(Table2Row { defect, cells });
    }
    coverage.elapsed_s = campaign_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    Ok(Table2 {
        case_studies: options.case_studies.clone(),
        rows,
        failures,
        coverage,
    })
}

/// Coverage contribution of a checkpoint-resumed cell: its grid points
/// count as attempted with the failure tally recorded at checkpoint
/// time, and no wall-clock (nothing was computed this run).
fn resumed_coverage(cell: &Table2Cell, grid_size: usize) -> Coverage {
    Coverage {
        attempted: grid_size,
        completed: grid_size - cell.failed_points.min(grid_size),
        elapsed_s: 0.0,
    }
}

/// One fully evaluated (defect, case-study) cell with its local
/// bookkeeping, produced on a worker thread and merged in grid order.
struct CellDone {
    cell: Table2Cell,
    failures: Vec<PointFailure>,
    coverage: Coverage,
}

/// Evaluates one cell's full PVT grid, settling each point through
/// [`settle_point`]. Runs on a worker thread: all state is local,
/// contexts are read-only shared.
fn evaluate_cell(
    defect: Defect,
    cs: &CaseStudy,
    options: &Table2Options,
    design: &RegulatorDesign,
    contexts: &HashMap<CtxKey, Option<SeededContext>>,
) -> Result<CellDone, anasim::Error> {
    let key = cell_key(defect, cs.number);
    let injected = options
        .inject_failures
        .contains(&(defect.number(), cs.number));
    let disconnected = options
        .inject_disconnects
        .contains(&(defect.number(), cs.number));
    // Resilience-test hook: die on the worker exactly as an untrusted
    // model evaluation would, and let the executor's per-point
    // isolation turn it into a recorded failure.
    assert!(
        !options
            .inject_panics
            .contains(&(defect.number(), cs.number)),
        "injected panic evaluating cell {key}"
    );
    let mut settled = Settled::<()>::default();
    let mut best = Table2Cell::empty();
    for &corner in &options.corners {
        for &temp in &options.temperatures {
            for &vdd in &options.supplies {
                let pvt = PvtCondition::new(corner, vdd, temp);
                let tap = tap_for_vdd(vdd);
                let ctx = contexts
                    .get(&ctx_key(cs.number, pvt))
                    .and_then(Option::as_ref);
                if !injected && !disconnected && ctx.is_none() {
                    // Poisoned (or, impossibly, missing) context: the
                    // build failure was charged once in phase A.
                    settled.coverage.record_failure();
                    continue;
                }
                let at = GridPoint::new(
                    format!("{key} @ {pvt}"),
                    Some(defect),
                    Some(cs.number),
                    Some(pvt),
                );
                let solved = settle_point(&at.key, || {
                    if injected {
                        return Err(anasim::Error::NoConvergence {
                            iterations: 0,
                            residual: f64::INFINITY,
                        });
                    }
                    if disconnected {
                        // Build the circuit this point would solve,
                        // sever a node, and let the pre-flight gate
                        // reject it — no solve is ever attempted.
                        let mut circuit = regulator::RegulatorCircuit::new(
                            design,
                            pvt,
                            tap,
                            regulator::FeedMode::Static,
                        )?;
                        circuit.add_orphan_node("injected_disconnect");
                        return Err(circuit.preflight().err().unwrap_or(
                            anasim::Error::InvalidValue {
                                device: "inject_disconnects".into(),
                                what: "pre-flight accepted a severed netlist".into(),
                            },
                        ));
                    }
                    let (ctx, seed) = ctx.expect("only points with a built context are solved");
                    let criterion = DrfCriterion {
                        stressed: &ctx.stressed,
                        stored: StoredBit::One,
                        drv: ctx.drv,
                    };
                    min_resistance_seeded(
                        design,
                        pvt,
                        tap,
                        defect,
                        &ctx.load,
                        &criterion,
                        &options.characterize,
                        seed.as_deref(),
                    )
                });
                let found = solved.map(|found| {
                    if let Some(ohms) = found.ohms {
                        if best.min_ohms.is_none_or(|b| ohms < b) {
                            best.min_ohms = Some(ohms);
                            best.pvt = Some(pvt);
                            best.vddcc = found.vddcc_at_fault;
                        }
                    }
                });
                settled.push(&at, found)?;
            }
        }
    }
    best.failed_points = settled.coverage.attempted - settled.coverage.completed;
    Ok(CellDone {
        cell: best,
        failures: settled.failures,
        coverage: settled.coverage,
    })
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

    #[test]
    fn close_conditions_get_distinct_context_keys() {
        let key = |vdd, temp_c| ctx_key(1, PvtCondition::new(ProcessCorner::Typical, vdd, temp_c));
        assert_ne!(key(1.0, 25.0), key(1.004, 25.0));
        assert_ne!(key(1.1, -30.5), key(1.1, -30.0));
        assert_eq!(key(1.1, -30.0), key(1.1, -30.0));
    }

    /// Pulls the cell for (defect, case study), failing with the grid
    /// coordinate in the message instead of a bare unwrap.
    fn cell_at(table: &Table2, df: u8, cs: u8) -> Table2Cell {
        *table.cell(Defect::new(df), cs).unwrap_or_else(|| {
            panic!("campaign produced no cell at (Df{df}, CS{cs})");
        })
    }

    #[test]
    fn quick_campaign_over_two_defects() {
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(18)];
        opts.case_studies = vec![
            CaseStudy::new(1, StoredBit::One),
            CaseStudy::new(2, StoredBit::One),
        ];
        let table = table2(&opts).unwrap();
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
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(19)];
        opts.case_studies = vec![
            CaseStudy::new(1, StoredBit::One),
            CaseStudy::new(2, StoredBit::One),
        ];
        // Force every grid point of (Df19, CS1) to fail.
        opts.inject_failures = vec![(19, 1)];
        let table = table2(&opts).expect("campaign must survive an unsolvable point");

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
        assert!(f.attempts >= 1);
        assert_eq!(table.coverage.attempted, 4);
        assert_eq!(table.coverage.completed, 3);
        assert!(!table.coverage.is_complete());
    }

    #[test]
    fn injected_panic_is_isolated_not_fatal() {
        let _obs = crate::campaign::tests::obs_lock();
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(19)];
        opts.case_studies = vec![
            CaseStudy::new(1, StoredBit::One),
            CaseStudy::new(2, StoredBit::One),
        ];
        // The worker evaluating (Df19, CS1) dies mid-campaign.
        opts.inject_panics = vec![(19, 1)];

        opts.jobs = 1;
        let sequential = table2(&opts).expect("campaign must survive a panicking cell");
        opts.jobs = 4;
        let parallel = table2(&opts).expect("campaign must survive a panicking cell");
        assert_eq!(
            table_fingerprint(&sequential),
            table_fingerprint(&parallel),
            "surviving cells must be byte-identical at any --jobs count"
        );

        // The lost cell carries the tally; survivors are untouched.
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
    fn panicked_cell_is_left_out_of_the_checkpoint() {
        let _obs = crate::campaign::tests::obs_lock();
        let dir = std::env::temp_dir().join("drftest-table2-panic-ckpt");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(19)];
        opts.case_studies = vec![CaseStudy::new(1, StoredBit::One)];
        opts.inject_panics = vec![(19, 1)];
        opts.checkpoint = Some(path.clone());
        opts.jobs = 2;
        let first = table2(&opts).expect("campaign must survive a panicking cell");

        // The checkpoint stream stays valid: the surviving cell is
        // logged, the panicked one is not — a resume recomputes it.
        let logged = Checkpoint::new(&path).completed_keys().unwrap();
        assert!(logged.contains("df16/cs1"), "surviving cell must be logged");
        assert!(
            !logged.contains("df19/cs1"),
            "a panicked cell must never be checkpointed"
        );

        // Resume: the healed cell (hook removed) is recomputed and the
        // table completes.
        opts.inject_panics = Vec::new();
        let healed = table2(&opts).unwrap();
        assert!(healed.coverage.is_complete(), "{}", healed.coverage);
        assert!(
            cell_at(&healed, 19, 1).min_ohms.is_some() || {
                // Df19 may legitimately not fault at the quick grid point;
                // completeness is the contract under test.
                cell_at(&healed, 19, 1).failed_points == 0
            }
        );
        assert_eq!(first.coverage.attempted, healed.coverage.attempted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeat_identical_panics_quarantine_the_cell() {
        let _obs = crate::campaign::tests::obs_lock();
        let dir = std::env::temp_dir().join("drftest-table2-quarantine");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(19)];
        opts.case_studies = vec![CaseStudy::new(1, StoredBit::One)];
        opts.inject_panics = vec![(19, 1)];
        opts.checkpoint = Some(path.clone());

        // Runs 1 and 2: the cell dies identically both times (run 2
        // resumed df16/cs1 from the checkpoint and re-tried df19/cs1).
        let first = table2(&opts).expect("run 1 survives the panic");
        assert!(first.failures[0].panicked);
        let second = table2(&opts).expect("run 2 survives the panic");
        assert!(second.failures[0].panicked);

        // Run 3: two consecutive identical deaths put the cell in
        // quarantine — it is turned away without re-evaluating (the
        // panic hook would still fire if it ran).
        let third = table2(&opts).expect("run 3 skips the quarantined cell");
        assert_eq!(third.failures.len(), 1);
        let f = &third.failures[0];
        assert!(!f.panicked, "quarantined cell must not re-run: {f}");
        assert_eq!(f.attempts, 0);
        let s = f.error.to_string();
        assert!(s.contains("QUARANTINED") && s.contains("df19/cs1"), "{s}");
        assert_eq!(cell_at(&third, 19, 1).failed_points, 1);
        assert!(!third.coverage.is_complete());

        // The sidecar documents the deaths and is the lever to undo
        // the quarantine: delete it (after fixing the bug) and the
        // cell computes again.
        let sidecar = crate::campaign::Quarantine::sidecar_path(&path);
        assert!(
            sidecar.exists(),
            "sidecar must be written next to the checkpoint"
        );
        std::fs::remove_file(&sidecar).unwrap();
        opts.inject_panics = Vec::new();
        let healed = table2(&opts).expect("healed run recomputes the cell");
        assert!(healed.coverage.is_complete(), "{}", healed.coverage);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_disconnect_is_rejected_by_preflight() {
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16)];
        opts.case_studies = vec![
            CaseStudy::new(1, StoredBit::One),
            CaseStudy::new(2, StoredBit::One),
        ];
        // Every grid point of (Df16, CS2) gets a severed netlist.
        opts.inject_disconnects = vec![(16, 2)];
        let table = table2(&opts).expect("campaign must survive a rejected point");

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
    fn checkpoint_resume_skips_logged_cells() {
        let dir = std::env::temp_dir().join("drftest-table2-ckpt");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_file(&path);
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16)];
        opts.case_studies = vec![CaseStudy::new(1, StoredBit::One)];
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

    /// Serializes a whole table through the full-precision checkpoint
    /// field format: two tables rendering to identical strings are
    /// bit-identical in every cell value.
    fn table_fingerprint(table: &Table2) -> String {
        let mut out = String::new();
        for row in &table.rows {
            for (cs, cell) in table.case_studies.iter().zip(&row.cells) {
                let key = cell_key(row.defect, cs.number);
                out.push_str(&checkpoint_fields(&key, cell).join("\t"));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "coverage {}/{} failures {}\n",
            table.coverage.completed,
            table.coverage.attempted,
            table.failures.len()
        ));
        out
    }

    #[test]
    fn table2_identical_across_jobs_and_parallel_resume() {
        let dir = std::env::temp_dir().join("drftest-table2-determinism");
        let path = dir.join("table2.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(16), Defect::new(18), Defect::new(19)];
        opts.case_studies = vec![
            CaseStudy::new(1, StoredBit::One),
            CaseStudy::new(2, StoredBit::One),
        ];
        // Exercise the failure path under parallelism too.
        opts.inject_failures = vec![(19, 2)];

        opts.jobs = 1;
        let sequential = table2(&opts).unwrap();
        opts.jobs = 4;
        let parallel = table2(&opts).unwrap();
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
        partial.inject_failures = Vec::new();
        let _ = table2(&partial).unwrap();
        let mut resumed_opts = opts.clone();
        resumed_opts.checkpoint = Some(path.clone());
        let resumed = table2(&resumed_opts).unwrap();
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
