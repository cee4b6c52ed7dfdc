//! The three workloads: their inputs, the library calls ("units") of
//! one pass, and the known-answer checks on their output.
//!
//! A repetition makes passes over the workload's units, single-threaded
//! on one core, until its time is up, and records each pass's time with
//! the core's speed over it (see `probe`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::probe::{thread_cpu_s, Probe};

use anasim::ArraySolveOptions;
use drftest::experiments::{array, table2};
use drftest::{ArrayRetentionOptions, ArrayScenario, CaseStudy, Table2Options};
use mprove::ClaimsMatrix;
use obs::Json;
use process::ProcessCorner;
use sram::{ActiveCell, StoredBit};

/// Word lines of the paper's 4K×64 array.
pub const ARRAY_ROWS: usize = 4096;
/// Bit-line pairs of the paper's 4K×64 array.
pub const ARRAY_COLS: usize = 64;
/// Supplies each array point is solved at: active and deep retention.
pub const ARRAY_SUPPLIES: [f64; 2] = [1.1, 0.5];
/// Bridged cells per array point.
const BRIDGES: usize = 3;
/// S–SB bridge of each injected cell, ohms: a hard defect that loses
/// its data at both supplies.
const BRIDGE_OHMS: f64 = 1.0e3;
/// Temperatures of the Table II slice, °C: the cold condition drives
/// the rescue ladder, the hot one sets the table's worst case.
const TABLE2_TEMPERATURES: [f64; 2] = [-30.0, 125.0];
/// Deep-sleep dwell of the march library, as `prove` uses it.
const DWELL: f64 = 1.0e-3;
/// Memory geometries (words × bits) that `prove --differential` grades
/// exhaustively.
const PROVE_GEOMETRIES: [(usize, usize); 3] = [(1, 8), (2, 8), (16, 8)];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II at paper precision on the fs corner, {−30, 125} °C, 1.0 V.
    Table2Slice,
    /// Retention map of the 4096×64 array with three seed-placed bridges.
    Array4kx64,
    /// The calls of `prove --differential`.
    ProveDifferential,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table2Slice,
        Workload::Array4kx64,
        Workload::ProveDifferential,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Slice => "table2_slice",
            Workload::Array4kx64 => "array_4kx64",
            Workload::ProveDifferential => "prove_differential",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed picks the workload's inputs. The other
    /// workloads are fixed grids: they record the seed and ignore it.
    pub fn uses_seed(self) -> bool {
        self == Workload::Array4kx64
    }

    /// The units of one pass, in call order. Diagnostic files go under
    /// `out`.
    pub fn units(self, seed: u64, out: &Path) -> Vec<Unit> {
        match self {
            Workload::Table2Slice => table2_units(out),
            Workload::Array4kx64 => array_units(seed),
            Workload::ProveDifferential => prove_units(),
        }
    }
}

/// One known-answer check on a unit's output.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether the output passed.
    pub ok: bool,
    /// What was found.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    /// The check as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name".to_string(), Json::Str(self.name.clone())),
            ("ok".to_string(), Json::Bool(self.ok)),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ])
    }
}

/// What one call of a unit produced.
pub struct Outcome {
    /// Work units attempted (named per workload in `BENCHMARK.json`).
    pub attempted: u64,
    /// Units that did not complete or whose output check failed.
    pub failed: u64,
    /// Every check made on the output.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// One work unit, failed when `check` failed.
    fn of(check: Check) -> Outcome {
        Outcome {
            attempted: 1,
            failed: u64::from(!check.ok),
            checks: vec![check],
        }
    }
}

/// One separately timed library call of a pass.
pub struct Unit {
    /// Name in the repetition's record.
    pub name: String,
    /// Span opened around the call: the layer it enters.
    span: &'static str,
    call: Box<dyn FnMut() -> Result<Outcome, String>>,
}

impl Unit {
    fn new(
        name: String,
        span: &'static str,
        call: impl FnMut() -> Result<Outcome, String> + 'static,
    ) -> Unit {
        Unit {
            name,
            span,
            call: Box::new(call),
        }
    }
}

/// One pass over a workload's units.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// CPU time of the workload thread over the pass, seconds: the wall
    /// time less the probe's share of the core.
    pub cpu_s: f64,
    /// The core's mean speed over the pass relative to an unloaded one.
    pub speed: f64,
    /// Probe samples the speed is the mean of.
    pub probes: usize,
}

/// One measured repetition.
#[derive(Debug)]
pub struct Rep {
    /// Wall-clock instant of the first library call, ns since the Unix
    /// epoch (comparable with the parent's spawn instant).
    pub first_call_unix_ns: u128,
    /// Every pass, in order.
    pub passes: Vec<Pass>,
    /// Work units attempted over all passes.
    pub attempted: u64,
    /// Work units failed over all passes.
    pub failed: u64,
    /// The first pass's checks, and every failed check of later passes.
    pub checks: Vec<Check>,
}

/// Makes passes over `units` inside the workload's root span, one span
/// per unit: at least one, and more while another pass as long as the
/// last still ends within `seconds`.
///
/// # Errors
///
/// A library call that returned an error instead of a result.
pub fn run(workload: Workload, units: &mut [Unit], seconds: f64) -> Result<Rep, String> {
    let root = format!("bench.{}", workload.name());
    let probe = Probe::start();
    let first_call_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let start = Instant::now();
    let mut rep = Rep {
        first_call_unix_ns,
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
    };
    loop {
        let pass_start = Instant::now();
        let cpu_start = thread_cpu_s();
        {
            let _root = obs::span(&root);
            for unit in units.iter_mut() {
                let outcome = {
                    let _span = obs::span(unit.span);
                    (unit.call)().map_err(|e| format!("{}: {e}", unit.name))?
                };
                rep.attempted += outcome.attempted;
                rep.failed += outcome.failed;
                let first_pass = rep.passes.is_empty();
                rep.checks
                    .extend(outcome.checks.into_iter().filter(|c| first_pass || !c.ok));
            }
        }
        let cpu_s = thread_cpu_s() - cpu_start;
        let pass_end = Instant::now();
        let (speed, probes) = probe.speed(pass_start, pass_end);
        rep.passes.push(Pass {
            wall_s: (pass_end - pass_start).as_secs_f64(),
            cpu_s,
            speed,
            probes,
        });
        let elapsed = start.elapsed();
        if elapsed + elapsed / rep.passes.len() as u32 > Duration::from_secs_f64(seconds) {
            return Ok(rep);
        }
    }
}

/// One unit per (temperature, case study): the campaign's own split,
/// since its contexts and warm starts are per case study and condition.
fn table2_units(out: &Path) -> Vec<Unit> {
    let reference = Rc::new(References::load(Workload::Table2Slice));
    let mut units = Vec::new();
    for temperature in TABLE2_TEMPERATURES {
        for cs in CaseStudy::ones() {
            let name = format!("cs{}_{temperature}C", cs.number);
            let options = Table2Options {
                corners: vec![ProcessCorner::FastNSlowP],
                temperatures: vec![temperature],
                supplies: vec![1.0],
                case_studies: vec![cs],
                jobs: 1,
                ..Table2Options::paper()
            };
            let reference = Rc::clone(&reference);
            let out = out.to_path_buf();
            let unit_name = name.clone();
            units.push(Unit::new(name, "drftest.table2", move || {
                let report = table2::run(&options).map_err(|e| e.to_string())?;
                let coverage = &report.table.coverage;
                let complete = Check::new(
                    "coverage",
                    coverage.is_complete() && report.table.failures.is_empty(),
                    format!("{unit_name}: {coverage}"),
                );
                let rendered = reference.check(&unit_name, &report.to_string(), &out);
                let attempted = coverage.attempted as u64;
                let failed = if complete.ok && rendered.ok {
                    0
                } else {
                    attempted
                };
                Ok(Outcome {
                    attempted,
                    failed,
                    checks: vec![complete, rendered],
                })
            }));
        }
    }
    units
}

/// FNV-1a digests of each unit's rendered report, recorded from a
/// known-good commit in `perfbench/reference/<workload>.txt`, one
/// `<unit> <digest>` line per unit.
struct References {
    path: String,
    digests: Result<HashMap<String, String>, String>,
}

impl References {
    fn load(workload: Workload) -> References {
        let path = format!("perfbench/reference/{}.txt", workload.name());
        let digests = std::fs::read_to_string(&path)
            .map(|text| {
                text.lines()
                    .filter_map(|line| line.split_once(' '))
                    .map(|(unit, digest)| (unit.to_string(), digest.trim().to_string()))
                    .collect()
            })
            .map_err(|e| format!("cannot read {path}: {e}"));
        References { path, digests }
    }

    /// Compares `rendered`'s digest with the unit's reference. A
    /// mismatched rendering is saved under `out` for diffing.
    fn check(&self, unit: &str, rendered: &str, out: &Path) -> Check {
        let digest = format!("{:016x}", fnv1a(rendered.as_bytes()));
        let why = match &self.digests {
            Ok(digests) => match digests.get(unit) {
                Some(expected) if *expected == digest => {
                    return Check::new(
                        "reference",
                        true,
                        format!("{unit}: {digest} matches {}", self.path),
                    );
                }
                Some(expected) => format!("{unit}: {digest}, {} records {expected}", self.path),
                None => format!("{unit}: {digest}, no line in {}", self.path),
            },
            Err(e) => format!("{unit}: {digest}, {e}"),
        };
        let actual: PathBuf = out.join(format!("{unit}.actual.txt"));
        let saved = match std::fs::write(&actual, rendered) {
            Ok(()) => format!("rendering saved to {}", actual.display()),
            Err(e) => format!("cannot save the rendering: {e}"),
        };
        Check::new("reference", false, format!("{why}; {saved}"))
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Three bridge sites in distinct rows and distinct columns of the
/// array, drawn from `seed`, in row-major order.
pub fn bridge_sites(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = drill::Rng::seeded(seed);
    let mut distinct = |n: usize| {
        let mut picked: Vec<usize> = Vec::with_capacity(BRIDGES);
        while picked.len() < BRIDGES {
            let k = rng.below(n as u64) as usize;
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked
    };
    let rows = distinct(ARRAY_ROWS);
    let cols = distinct(ARRAY_COLS);
    let mut sites: Vec<(usize, usize)> = rows.into_iter().zip(cols).collect();
    sites.sort_unstable();
    sites
}

/// The bridged cells of the array workload at `seed`.
pub fn bridged_cells(seed: u64) -> Vec<ActiveCell> {
    bridge_sites(seed)
        .into_iter()
        .map(|(row, col)| ActiveCell::bridged(row, col, StoredBit::One, BRIDGE_OHMS))
        .collect()
}

/// One unit per supply: the retention map of the array at that supply.
fn array_units(seed: u64) -> Vec<Unit> {
    let sites = bridge_sites(seed);
    ARRAY_SUPPLIES
        .into_iter()
        .map(|supply| {
            let options = ArrayRetentionOptions {
                rows: ARRAY_ROWS,
                cols: ARRAY_COLS,
                supplies: vec![supply],
                scenarios: vec![ArrayScenario {
                    name: format!("{BRIDGES} bridges"),
                    active: bridged_cells(seed),
                }],
                solve: ArraySolveOptions::default(),
                jobs: 1,
            };
            let sites = sites.clone();
            Unit::new(format!("array_{supply}V"), "drftest.array", move || {
                let report = array::run(&options).map_err(|e| e.to_string())?;
                // Exactly the bridged cells lose their data.
                let checks: Vec<Check> = report
                    .points
                    .iter()
                    .map(|p| {
                        let ok = p.cells == ARRAY_ROWS * ARRAY_COLS
                            && p.retained + BRIDGES == p.cells
                            && p.flipped == sites;
                        Check::new(
                            &format!("retention@{:.1}V", p.supply),
                            ok,
                            format!(
                                "retained {}/{}, flipped {:?}, bridged {:?}",
                                p.retained, p.cells, p.flipped, sites
                            ),
                        )
                    })
                    .collect();
                Ok(Outcome {
                    attempted: checks.len() as u64,
                    failed: checks.iter().filter(|c| !c.ok).count() as u64,
                    checks,
                })
            })
        })
        .collect()
}

/// The calls of `prove --differential`, one unit each: the prover, its
/// three oracles, then one exhaustive grading per (geometry, test).
/// Later units read the matrix the first one proved in the same pass.
/// Each call is one work unit, failed when its check fails.
fn prove_units() -> Vec<Unit> {
    let matrix: Rc<RefCell<Option<ClaimsMatrix>>> = Rc::default();
    let committed = std::fs::read_to_string("results/claims_matrix.json");

    let mut units = Vec::new();
    let slot = Rc::clone(&matrix);
    units.push(Unit::new(
        "prove_library".to_string(),
        "mprove.prove_library",
        move || {
            let proved = mprove::prove_library(DWELL);
            let claims = match &committed {
                Ok(committed) => Check::new(
                    "claims_matrix",
                    committed.trim() == proved.to_json().to_pretty().trim(),
                    "compared with results/claims_matrix.json".to_string(),
                ),
                Err(e) => Check::new(
                    "claims_matrix",
                    false,
                    format!("cannot read results/claims_matrix.json: {e}"),
                ),
            };
            *slot.borrow_mut() = Some(proved);
            Ok(Outcome::of(claims))
        },
    ));
    let m = Rc::clone(&matrix);
    units.push(Unit::new(
        "check_paper_claims".to_string(),
        "mprove.check_paper_claims",
        move || {
            with_matrix(&m, |m| {
                oracle("paper_claims", mprove::check_paper_claims(m))
            })
        },
    ));
    let m = Rc::clone(&matrix);
    let tests = march::library::all(DWELL);
    units.push(Unit::new(
        "check_replays".to_string(),
        "mprove.check_replays",
        move || {
            with_matrix(&m, |m| {
                oracle("replays", mprove::differential::check_replays(m, &tests))
            })
        },
    ));
    let m = Rc::clone(&matrix);
    units.push(Unit::new(
        "cross_check".to_string(),
        "drftest.fuzz.cross_check",
        move || {
            with_matrix(&m, |m| {
                oracle("fuzz_cross_check", drftest::fuzz::cross_check(m))
            })
        },
    ));
    for (words, bits) in PROVE_GEOMETRIES {
        for test in march::library::all(DWELL) {
            let m = Rc::clone(&matrix);
            let name = format!("exhaustive_{words}x{bits}_{}", test.name());
            units.push(Unit::new(name, "mprove.exhaustive", move || {
                with_matrix(&m, |m| {
                    oracle(
                        &format!("exhaustive_{words}x{bits}_{}", test.name()),
                        mprove::differential::exhaustive(&test, m, words, bits),
                    )
                })
            }));
        }
    }
    units
}

/// `f` of the matrix the pass's `prove_library` unit proved.
fn with_matrix(
    matrix: &RefCell<Option<ClaimsMatrix>>,
    f: impl FnOnce(&ClaimsMatrix) -> Outcome,
) -> Result<Outcome, String> {
    matrix
        .borrow()
        .as_ref()
        .map(f)
        .ok_or_else(|| "the claims matrix was not proved".to_string())
}

/// The outcome of an oracle call: one unit, failed by any problem.
fn oracle(name: &str, problems: Vec<String>) -> Outcome {
    Outcome::of(Check::new(
        name,
        problems.is_empty(),
        match problems.first() {
            None => "no problems".to_string(),
            Some(first) => format!("{} problems, first: {first}", problems.len()),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_sites_use_distinct_rows_and_columns() {
        for seed in 0..200 {
            let sites = bridge_sites(seed);
            assert_eq!(sites.len(), BRIDGES);
            for (i, a) in sites.iter().enumerate() {
                assert!(
                    a.0 < ARRAY_ROWS && a.1 < ARRAY_COLS,
                    "seed {seed}: {sites:?}"
                );
                for b in &sites[i + 1..] {
                    assert!(a.0 != b.0 && a.1 != b.1, "seed {seed}: {sites:?}");
                }
            }
            assert!(sites.windows(2).all(|w| w[0] < w[1]), "row-major order");
        }
    }

    #[test]
    fn the_seed_picks_the_sites() {
        assert_eq!(bridge_sites(7), bridge_sites(7));
        assert_ne!(bridge_sites(7), bridge_sites(8));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("table2"), None);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
