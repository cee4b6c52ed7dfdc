//! Test-flow optimization: choosing the fewest (V_DD, Vref)
//! combinations that keep every defect's detection condition covered —
//! the reasoning behind the paper's Table III.

use process::PvtCondition;
use regulator::characterize::{
    healthy_seed, min_resistance_seeded, CharacterizeOptions, DrfCriterion,
};
use regulator::{Defect, RegulatorDesign, VrefTap};
use sram::drv::DrvOptions;
use sram::StoredBit;

use crate::campaign::{publish_coverage, run_grid, Coverage, GridPoint, PointFailure};
use crate::case_study::{CaseStudy, WORST_CASE_DRV};
use crate::defect_analysis::build_context;
use crate::test_flow::{FlowIteration, TestFlow, TEST_CORNER, TEST_TEMP_C};

/// A combination "maximizes" detection of a defect when its minimum
/// failing resistance is within this factor of the best combination
/// for that defect. The paper names more than one maximizing `Vref`
/// for some defects (Df3: 0.70·VDD and 0.64·VDD), so the criterion
/// needs a tolerance; a factor of two admits near-ties and rejects
/// combinations a decade worse.
const SLACK: f64 = 2.0;

/// Options for building the coverage matrix. The matrix is evaluated
/// for the stressed CS1-1 cell, the worst-case retention voltage of
/// Table I, on the test insertion's die (`fs` at 125 °C) with the
/// [`RegulatorDesign::lp40nm`] regulator.
#[derive(Debug, Clone)]
pub struct CoverageOptions {
    /// Defects to cover (default: the 17 Table II rows).
    pub defects: Vec<Defect>,
    /// Characterization tuning; its `ds_time` is the deep-sleep dwell
    /// every combination is searched and labelled with.
    pub characterize: CharacterizeOptions,
    /// DRV tuning.
    pub drv: DrvOptions,
    /// Array-load samples.
    pub load_points: usize,
    /// Worker threads the (defect × combination) matrix fans across
    /// (`0` = available parallelism, `1` = sequential); the matrix is
    /// identical for every value.
    pub jobs: usize,
}

impl CoverageOptions {
    /// Default configuration used for Table III regeneration.
    pub fn paper() -> Self {
        CoverageOptions {
            defects: Defect::table2_rows(),
            characterize: CharacterizeOptions::default(),
            drv: DrvOptions::default(),
            load_points: 7,
            jobs: 0,
        }
    }

    /// A fast configuration for tests (few defects, coarse searches).
    pub fn quick() -> Self {
        CoverageOptions {
            defects: vec![
                Defect::new(2),
                Defect::new(3),
                Defect::new(4),
                Defect::new(16),
            ],
            characterize: CharacterizeOptions::coarse(),
            drv: DrvOptions::coarse(),
            load_points: 5,
            ..Self::paper()
        }
    }
}

/// The per-(defect, combination) detection data the optimizer works
/// from.
#[derive(Debug, Clone)]
pub struct CoverageMatrix {
    /// The twelve candidate combinations.
    pub combos: Vec<FlowIteration>,
    /// The defects considered.
    pub defects: Vec<Defect>,
    /// `min_r[d][c]`: minimum failing resistance of defect `d` at
    /// combination `c` (`None` = not detectable there, or not searched
    /// because the combination is unusable).
    pub min_r: Vec<Vec<Option<f64>>>,
    /// `unusable[c]`: combination `c`'s healthy Vreg sits below the
    /// stressed cell's DRV, so it would fail fault-free parts and no
    /// defect was searched there.
    pub unusable: Vec<bool>,
    /// `maximized[d][c]`: whether combination `c` is within slack of
    /// defect `d`'s best combination.
    pub maximized: Vec<Vec<bool>>,
    /// Matrix entries (or shared contexts) left unsolved after the
    /// rescue ladder; the corresponding `min_r` entries are `None`.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting over the (defect × combination)
    /// matrix.
    pub coverage: Coverage,
}

impl CoverageMatrix {
    /// Whether a set of combination indices covers every defect's
    /// maximized condition at least once.
    pub fn covers(&self, combo_indices: &[usize]) -> bool {
        self.defects.iter().enumerate().all(|(d, _)| {
            // Defects undetectable anywhere cannot constrain the flow.
            let detectable = self.min_r[d].iter().any(|r| r.is_some());
            !detectable || combo_indices.iter().any(|&c| self.maximized[d][c])
        })
    }
}

/// Builds the coverage matrix by characterizing every defect at each of
/// the 12 (V_DD, Vref) combinations.
///
/// Matrix entries run in isolation: an entry (or a shared per-supply
/// context) the rescue ladder cannot solve stays `None` in `min_r` and
/// is recorded in the matrix's `failures`/`coverage` rather than
/// aborting the build.
///
/// # Errors
///
/// Propagates non-retryable failures (invalid setups).
pub fn build_coverage(options: &CoverageOptions) -> Result<CoverageMatrix, anasim::Error> {
    let run_start = std::time::Instant::now();
    let design = RegulatorDesign::lp40nm();
    let supplies = [1.0, 1.1, 1.2].map(|vdd| PvtCondition::new(TEST_CORNER, vdd, TEST_TEMP_C));
    let taps = VrefTap::ALL.len();
    let mut combos = Vec::with_capacity(supplies.len() * taps);
    for pvt in &supplies {
        for tap in VrefTap::ALL {
            combos.push(FlowIteration {
                vdd: pvt.vdd,
                tap,
                ds_time: options.characterize.ds_time,
            });
        }
    }
    let cs = &CaseStudy::new(1, StoredBit::One);
    // Per-supply context (corner/temp fixed, vdd varies) with the
    // healthy operating point at each of its taps, the warm-start seed
    // of every defect search in that column; a failed build poisons
    // that supply's columns instead of the whole matrix.
    let contexts = run_grid(
        options.jobs,
        &supplies,
        |_, &pvt| {
            GridPoint::new(
                format!("context cs{} @ {pvt}", cs.number),
                None,
                Some(cs.number),
                Some(pvt),
            )
        },
        |&pvt| {
            let ctx = build_context(cs, pvt, &options.drv, options.load_points)?;
            // A seed is purely an accelerator: a failed healthy solve
            // degrades its column to a cold start.
            let seeds: Vec<Option<Vec<f64>>> = VrefTap::ALL
                .iter()
                .map(|&tap| healthy_seed(&design, pvt, tap, &ctx.load).ok())
                .collect();
            Ok((ctx, seeds))
        },
        |_, _| {},
    )?;

    // A combination whose healthy Vreg already sits below the stressed
    // cell's DRV would fail fault-free parts: it is not usable for this
    // criterion, whatever the defect.
    let unusable: Vec<bool> = combos
        .iter()
        .enumerate()
        .map(|(c, combo)| {
            contexts.results[c / taps]
                .as_ref()
                .is_some_and(|(ctx, _)| combo.expected_vreg() < ctx.drv)
        })
        .collect();

    // One work item per (defect × combination) entry, in matrix order;
    // the entries of a poisoned supply are charged as failed without a
    // run, the context's failure being their record.
    let entries: Vec<_> = (0..options.defects.len())
        .flat_map(|d| (0..combos.len()).map(move |c| (d, c)))
        .filter_map(|(d, c)| Some((d, c, contexts.results[c / taps].as_ref()?)))
        .collect();
    let solved = run_grid(
        options.jobs,
        &entries,
        |_, &(d, c, _)| {
            let pvt = supplies[c / taps];
            GridPoint::new(
                format!(
                    "df{}/{} @ {pvt}",
                    options.defects[d].number(),
                    combos[c].tap
                ),
                Some(options.defects[d]),
                Some(cs.number),
                Some(pvt),
            )
        },
        |&(d, c, (ctx, seeds))| {
            let combo = &combos[c];
            if unusable[c] {
                return Ok(None);
            }
            let criterion = DrfCriterion {
                stressed: &ctx.stressed,
                stored: StoredBit::One,
                drv: ctx.drv,
            };
            let found = min_resistance_seeded(
                &design,
                supplies[c / taps],
                combo.tap,
                options.defects[d],
                &ctx.load,
                &criterion,
                &options.characterize,
                seeds[c % taps].as_deref(),
            )?;
            Ok(found.ohms)
        },
        |_, _| {},
    )?;

    let mut min_r = vec![vec![None; combos.len()]; options.defects.len()];
    for (&(d, c, _), r) in entries.iter().zip(solved.results) {
        min_r[d][c] = r.flatten();
    }
    let mut failures = contexts.failures;
    failures.extend(solved.failures);
    let mut coverage = solved.coverage;
    coverage.attempted += options.defects.len() * combos.len() - entries.len();
    coverage.elapsed_s = run_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);

    // Maximized = within slack of the per-defect best.
    let mut maximized = vec![vec![false; combos.len()]; options.defects.len()];
    for d in 0..options.defects.len() {
        let best = min_r[d]
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        if best.is_finite() {
            for c in 0..combos.len() {
                if let Some(r) = min_r[d][c] {
                    maximized[d][c] = r <= best * SLACK;
                }
            }
        }
    }

    Ok(CoverageMatrix {
        combos,
        defects: options.defects.clone(),
        min_r,
        unusable,
        maximized,
        failures,
        coverage,
    })
}

/// Greedy set cover over the maximized-detection matrix. Ties are
/// broken toward combinations whose expected `Vreg` sits closest above
/// the worst-case retention voltage (the paper's primary design rule).
/// Each chosen iteration keeps its combination's dwell.
pub fn greedy_cover(matrix: &CoverageMatrix) -> TestFlow {
    let n_combos = matrix.combos.len();
    let detectable: Vec<usize> = (0..matrix.defects.len())
        .filter(|&d| matrix.min_r[d].iter().any(|r| r.is_some()))
        .collect();
    let mut uncovered: Vec<usize> = detectable;
    let mut chosen: Vec<usize> = Vec::new();
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize, f64)> = None; // (combo, gain, vreg distance)
        for c in 0..n_combos {
            if chosen.contains(&c) {
                continue;
            }
            let gain = uncovered
                .iter()
                .filter(|&&d| matrix.maximized[d][c])
                .count();
            if gain == 0 {
                continue;
            }
            let vreg = matrix.combos[c].expected_vreg();
            let dist = if vreg >= WORST_CASE_DRV {
                vreg - WORST_CASE_DRV
            } else {
                // Below the design point: heavily penalized.
                10.0 + (WORST_CASE_DRV - vreg)
            };
            let better = match best {
                None => true,
                Some((_, bg, bd)) => gain > bg || (gain == bg && dist < bd),
            };
            if better {
                best = Some((c, gain, dist));
            }
        }
        let Some((c, _, _)) = best else {
            // Some defect's maximized set is empty among usable combos;
            // cover what we can and stop.
            break;
        };
        chosen.push(c);
        uncovered.retain(|&d| !matrix.maximized[d][c]);
    }
    chosen.sort_by(|&a, &b| {
        matrix.combos[a]
            .vdd
            .partial_cmp(&matrix.combos[b].vdd)
            .expect("vdd is finite")
    });
    TestFlow::new(
        "greedy-optimized flow",
        chosen.into_iter().map(|c| matrix.combos[c]).collect(),
    )
}

/// Escape analysis of a flow against a measured coverage matrix.
///
/// For each defect, the exhaustive 12-combination flow catches every
/// resistance from that defect's global minimum upward; a reduced flow
/// only catches from the minimum over *its* combinations. The gap —
/// measured in decades of resistance — is the population of defective
/// parts the reduced flow lets escape.
#[derive(Debug, Clone)]
pub struct EscapeReport {
    /// Per-defect `(global_min, flow_min)` in ohms (`None` when the
    /// defect is undetectable even exhaustively).
    pub per_defect: Vec<(Defect, Option<(f64, f64)>)>,
}

impl EscapeReport {
    /// Total escape window, in decades of resistance summed over
    /// defects (0 = the flow is as strong as the exhaustive one).
    pub fn escape_decades(&self) -> f64 {
        self.per_defect
            .iter()
            .filter_map(|(_, v)| *v)
            .map(|(global, flow)| (flow / global).log10().max(0.0))
            .sum()
    }

    /// Defects whose detection threshold the flow degrades by more
    /// than 1 %.
    pub fn weakened_defects(&self) -> Vec<Defect> {
        self.per_defect
            .iter()
            .filter(|(_, v)| matches!(v, Some((g, f)) if f > &(g * 1.01)))
            .map(|(d, _)| *d)
            .collect()
    }
}

/// Computes the escape report of `flow` against `matrix`.
pub fn escape_analysis(matrix: &CoverageMatrix, flow: &TestFlow) -> EscapeReport {
    let flow_combos: Vec<usize> = flow
        .iterations()
        .iter()
        .filter_map(|it| {
            matrix
                .combos
                .iter()
                .position(|c| (c.vdd - it.vdd).abs() < 1e-9 && c.tap == it.tap)
        })
        .collect();
    let per_defect = matrix
        .defects
        .iter()
        .enumerate()
        .map(|(d, &defect)| {
            let global = matrix.min_r[d]
                .iter()
                .flatten()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            if !global.is_finite() {
                return (defect, None);
            }
            let flow_min = flow_combos
                .iter()
                .filter_map(|&c| matrix.min_r[d][c])
                .fold(f64::INFINITY, f64::min);
            (defect, Some((global, flow_min)))
        })
        .collect();
    EscapeReport { per_defect }
}

/// Exhaustive minimal cover (2¹² subsets; used to confirm greedy
/// optimality on this instance).
pub fn exhaustive_cover(matrix: &CoverageMatrix) -> TestFlow {
    let n = matrix.combos.len();
    let mut best: Option<Vec<usize>> = None;
    for mask in 1u32..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|&c| mask & (1 << c) != 0).collect();
        if let Some(b) = &best {
            if subset.len() >= b.len() {
                continue;
            }
        }
        if matrix.covers(&subset) {
            best = Some(subset);
        }
    }
    let chosen = best.unwrap_or_default();
    TestFlow::new(
        "exhaustive-optimal flow",
        chosen.into_iter().map(|c| matrix.combos[c]).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_matrix() -> CoverageMatrix {
        // 4 combos, 3 defects. Defect 0 maximized at combos {0, 1};
        // defect 1 at {1}; defect 2 at {3}.
        let combos: Vec<FlowIteration> = [
            (1.0, VrefTap::V74),
            (1.1, VrefTap::V70),
            (1.1, VrefTap::V78),
            (1.2, VrefTap::V64),
        ]
        .into_iter()
        .map(|(vdd, tap)| FlowIteration {
            vdd,
            tap,
            ds_time: 1e-3,
        })
        .collect();
        let min_r = vec![
            vec![Some(1e3), Some(1.5e3), Some(1e6), Some(1e6)],
            vec![Some(1e5), Some(1e3), None, Some(1e5)],
            vec![None, None, None, Some(2e4)],
        ];
        let mut maximized = vec![vec![false; 4]; 3];
        for d in 0..3 {
            let best = min_r[d]
                .iter()
                .flatten()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            for c in 0..4 {
                if let Some(r) = min_r[d][c] {
                    maximized[d][c] = r <= best * 2.0;
                }
            }
        }
        CoverageMatrix {
            combos,
            defects: vec![Defect::new(16), Defect::new(3), Defect::new(4)],
            min_r,
            unusable: vec![false; 4],
            maximized,
            failures: Vec::new(),
            coverage: Coverage {
                attempted: 12,
                completed: 12,
                elapsed_s: 0.0,
            },
        }
    }

    #[test]
    fn greedy_covers_synthetic_instance() {
        let m = synthetic_matrix();
        let flow = greedy_cover(&m);
        assert_eq!(flow.iterations().len(), 2);
        let indices: Vec<usize> = flow
            .iterations()
            .iter()
            .map(|it| {
                m.combos
                    .iter()
                    .position(|c| c.vdd == it.vdd && c.tap == it.tap)
                    .unwrap()
            })
            .collect();
        assert!(m.covers(&indices));
    }

    #[test]
    fn exhaustive_matches_greedy_size_here() {
        let m = synthetic_matrix();
        let greedy = greedy_cover(&m);
        let exact = exhaustive_cover(&m);
        assert_eq!(greedy.iterations().len(), exact.iterations().len());
    }

    #[test]
    fn covers_ignores_undetectable_defects() {
        let mut m = synthetic_matrix();
        // Make defect 2 undetectable everywhere.
        m.min_r[2] = vec![None; 4];
        m.maximized[2] = vec![false; 4];
        assert!(m.covers(&[1]), "defects 0 and 1 covered by combo 1");
    }

    #[test]
    fn escape_analysis_on_synthetic_matrix() {
        let m = synthetic_matrix();
        // The full exhaustive flow has zero escapes by definition.
        let full = TestFlow::exhaustive(1e-3);
        // Synthetic matrix's combos are a subset: build a flow from
        // them all.
        let all = TestFlow::new("all combos", m.combos.clone());
        let report = escape_analysis(&m, &all);
        assert_eq!(report.escape_decades(), 0.0);
        assert!(report.weakened_defects().is_empty());
        let _ = full;
        // A single-combo flow misses defect 2's only detecting combo.
        let weak = TestFlow::new("one combo", vec![m.combos[0]]);
        let report = escape_analysis(&m, &weak);
        assert!(report.escape_decades() > 0.0);
        assert!(!report.weakened_defects().is_empty());
        // A defect with no finite min anywhere reports None.
        let mut m2 = synthetic_matrix();
        m2.min_r[2] = vec![None; 4];
        let report = escape_analysis(&m2, &all);
        assert!(report.per_defect[2].1.is_none());
    }

    #[test]
    fn combinations_below_the_drv_are_marked_unusable() {
        // One cheap defect is enough: usability depends only on the
        // combination's column (its supply's DRV and its tap).
        let opts = CoverageOptions {
            defects: vec![Defect::new(16)],
            ..CoverageOptions::quick()
        };
        let matrix = build_coverage(&opts).unwrap();
        let unusable: Vec<String> = matrix
            .combos
            .iter()
            .zip(&matrix.unusable)
            .filter(|(_, &u)| u)
            .map(|(c, _)| format!("{:.1}V/{}", c.vdd, c.tap))
            .collect();
        assert_eq!(
            unusable,
            ["1.0V/0.70*VDD", "1.0V/0.64*VDD", "1.1V/0.64*VDD"]
        );
        for (c, &u) in matrix.unusable.iter().enumerate() {
            assert!(
                !u || matrix.min_r[0][c].is_none(),
                "an unusable combination is not searched"
            );
        }
        assert!(matrix.coverage.is_complete(), "{}", matrix.coverage);
    }

    #[test]
    fn combinations_and_flow_carry_the_searched_dwell() {
        let mut opts = CoverageOptions {
            defects: vec![Defect::new(16)],
            ..CoverageOptions::quick()
        };
        opts.characterize.ds_time = 2.0e-3;
        let matrix = build_coverage(&opts).unwrap();
        let flow = greedy_cover(&matrix);
        assert!(!flow.iterations().is_empty());
        for it in matrix.combos.iter().chain(flow.iterations()) {
            assert_eq!(it.ds_time, 2.0e-3, "{it}");
        }
    }

    #[test]
    fn electrical_coverage_smoke() {
        // Tiny instance: 4 divider/output defects, coarse searches.
        let opts = CoverageOptions::quick();
        let matrix = build_coverage(&opts).unwrap();
        assert_eq!(matrix.combos.len(), 12);
        assert!(
            matrix.coverage.is_complete() && matrix.failures.is_empty(),
            "healthy build must be complete: {}",
            matrix.coverage
        );
        // Df16 must be detectable somewhere.
        let d16 = matrix
            .defects
            .iter()
            .position(|&d| d == Defect::new(16))
            .unwrap();
        assert!(matrix.min_r[d16].iter().any(|r| r.is_some()));
        let flow = greedy_cover(&matrix);
        assert!(
            (1..=4).contains(&flow.iterations().len()),
            "flow of {} iterations",
            flow.iterations().len()
        );
        // And the chosen flow really covers.
        let indices: Vec<usize> = flow
            .iterations()
            .iter()
            .map(|it| {
                matrix
                    .combos
                    .iter()
                    .position(|c| (c.vdd - it.vdd).abs() < 1e-9 && c.tap == it.tap)
                    .unwrap()
            })
            .collect();
        assert!(matrix.covers(&indices));
    }
}
