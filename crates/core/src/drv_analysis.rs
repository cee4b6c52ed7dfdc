//! Fig. 4 analysis: impact of single-transistor Vth variation on the
//! deep-sleep retention voltages.
//!
//! For each of the six cell transistors, a σ sweep is applied to that
//! transistor alone and `DRV_DS1`/`DRV_DS0` are measured; each point
//! reports the maximum over the requested (corner, temperature) grid,
//! as in the paper ("data shown correspond to the combination … that
//! maximizes DRV").

use process::{ProcessCorner, PvtCondition, Sigma};
use sram::cell::build_retention_netlist;
use sram::drv::{drv_ds, DrvOptions, StoredBit};
use sram::{CellInstance, CellTransistor, MismatchPattern};

use crate::campaign::{
    preflight_netlist, publish_coverage, run_grid, Coverage, GridPoint, PointFailure,
};

/// Supply bound of the Fig. 4 and Table I DRV searches, volts: the
/// nominal 1.1 V the cells run from, above which no retention voltage
/// is of interest. A cell unstable even there reports the bound itself.
pub(crate) const DRV_SEARCH_VDD: f64 = 1.1;

/// Options for the Fig. 4 sweep.
#[derive(Debug, Clone)]
pub struct Fig4Options {
    /// σ values applied to the swept transistor.
    pub sigmas: Vec<f64>,
    /// Corners included in the max.
    pub corners: Vec<ProcessCorner>,
    /// Temperatures included in the max, °C.
    pub temperatures: Vec<f64>,
    /// DRV search tuning.
    pub drv: DrvOptions,
    /// Worker threads the (transistor × σ × corner × temp) grid fans
    /// across (`0` = available parallelism, `1` = sequential); the
    /// dataset is identical for every value.
    pub jobs: usize,
}

impl Fig4Options {
    /// The paper's configuration: ±6σ range, all corners, all
    /// temperatures.
    pub fn paper() -> Self {
        Fig4Options {
            sigmas: vec![-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0],
            corners: ProcessCorner::ALL.to_vec(),
            temperatures: vec![-30.0, 25.0, 125.0],
            drv: DrvOptions::default(),
            jobs: 0,
        }
    }

    /// A fast configuration for tests (includes the hot point so the
    /// worst-case maxima are representative).
    pub fn quick() -> Self {
        Fig4Options {
            sigmas: vec![-6.0, 0.0, 6.0],
            corners: vec![ProcessCorner::Typical],
            temperatures: vec![25.0, 125.0],
            drv: DrvOptions::coarse(),
            jobs: 0,
        }
    }
}

/// One sweep point of one transistor's series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// The σ applied to the swept transistor.
    pub sigma: f64,
    /// Worst-case `DRV_DS1` over the grid, volts.
    pub drv_ds1: f64,
    /// Worst-case `DRV_DS0` over the grid, volts.
    pub drv_ds0: f64,
    /// The grid point maximizing `DRV_DS1`.
    pub worst_pvt_ds1: PvtCondition,
    /// The grid point maximizing `DRV_DS0`.
    pub worst_pvt_ds0: PvtCondition,
}

/// The sweep of one transistor.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// The swept transistor.
    pub transistor: CellTransistor,
    /// Points in the order of `options.sigmas`.
    pub points: Vec<Fig4Point>,
}

impl Fig4Series {
    /// The point at the given σ, if it was swept.
    pub fn at_sigma(&self, sigma: f64) -> Option<&Fig4Point> {
        self.points.iter().find(|p| p.sigma == sigma)
    }
}

/// The complete Fig. 4 dataset: six series, possibly partial (see
/// `failures`/`coverage` — unsolved grid points are excluded from the
/// per-point maxima rather than aborting the sweep).
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// One series per cell transistor, in Fig. 3 order.
    pub series: Vec<Fig4Series>,
    /// Grid points left unsolved this run.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting over the (transistor × σ ×
    /// corner × temp) grid.
    pub coverage: Coverage,
}

impl Fig4Data {
    /// The series of one transistor.
    pub fn of(&self, transistor: CellTransistor) -> &Fig4Series {
        self.series
            .iter()
            .find(|s| s.transistor == transistor)
            .expect("all six transistors are swept")
    }

    /// The paper's observation 1: negative variation on the inverter
    /// driving '1' (MPcc1/MNcc1) raises `DRV_DS1` above the positive
    /// side.
    pub fn observation1_holds(&self) -> bool {
        [CellTransistor::MPcc1, CellTransistor::MNcc1]
            .iter()
            .all(|&t| {
                let s = self.of(t);
                let (lo, hi) = (
                    s.points.first().expect("sweeps are non-empty"),
                    s.points.last().expect("sweeps are non-empty"),
                );
                debug_assert!(lo.sigma < hi.sigma);
                lo.drv_ds1 > hi.drv_ds1
            })
    }

    /// The paper's observation 2 (mirror of observation 1): positive
    /// variation on MPcc1/MNcc1 raises `DRV_DS0`.
    pub fn observation2_holds(&self) -> bool {
        [CellTransistor::MPcc1, CellTransistor::MNcc1]
            .iter()
            .all(|&t| {
                let s = self.of(t);
                let (lo, hi) = (
                    s.points.first().expect("sweeps are non-empty"),
                    s.points.last().expect("sweeps are non-empty"),
                );
                hi.drv_ds0 > lo.drv_ds0
            })
    }

    /// The paper's remark that pass-transistor variation matters less
    /// than inverter variation (but is not negligible): the DRV spread
    /// of MNcc3's sweep is smaller than MNcc1's.
    pub fn pass_transistors_matter_less(&self) -> bool {
        let spread = |t: CellTransistor, pick: fn(&Fig4Point) -> f64| {
            let s = self.of(t);
            let max = s.points.iter().map(&pick).fold(f64::MIN, f64::max);
            let min = s.points.iter().map(&pick).fold(f64::MAX, f64::min);
            max - min
        };
        spread(CellTransistor::MNcc3, |p| p.drv_ds1) < spread(CellTransistor::MNcc1, |p| p.drv_ds1)
    }
}

/// Runs the Fig. 4 sweep with per-grid-point fault isolation: a point
/// the rescue ladder cannot solve is recorded in the returned
/// `failures`/`coverage` and left out of the maxima.
///
/// # Errors
///
/// Propagates non-retryable failures (invalid setups).
pub fn fig4(options: &Fig4Options) -> Result<Fig4Data, anasim::Error> {
    let _span = obs::span("fig4");
    let sweep_start = std::time::Instant::now();
    // Flatten the four-level (transistor × σ × corner × temp) grid;
    // the per-(transistor, σ) maxima fold below walks results in grid
    // order, so first-wins tie-breaking is identical for any job count.
    let mut grid: Vec<(CellTransistor, f64, PvtCondition)> = Vec::new();
    for transistor in CellTransistor::ALL {
        for &sigma in &options.sigmas {
            for &corner in &options.corners {
                for &temp in &options.temperatures {
                    grid.push((
                        transistor,
                        sigma,
                        PvtCondition::new(corner, DRV_SEARCH_VDD, temp),
                    ));
                }
            }
        }
    }
    let per_point = options.corners.len() * options.temperatures.len();
    let per_series = options.sigmas.len() * per_point;
    let settled = run_grid(
        options.jobs,
        &grid,
        |_, &(transistor, sigma, pvt)| {
            GridPoint::new(
                format!("{transistor}/{sigma:+.0}σ @ {pvt}"),
                None,
                None,
                Some(pvt),
            )
        },
        |&(transistor, sigma, pvt)| {
            let pattern = MismatchPattern::symmetric().with(transistor, Sigma(sigma));
            let inst = CellInstance::with_pattern(pattern, pvt);
            // ERC pre-flight on the cell netlist this point would
            // solve, then the two DRV searches.
            preflight_netlist(&build_retention_netlist(&inst, DRV_SEARCH_VDD)?.0)?;
            let d1 = drv_ds(&inst, StoredBit::One, &options.drv)?.drv;
            Ok((d1, drv_ds(&inst, StoredBit::Zero, &options.drv)?.drv))
        },
        |i, _| {
            if (i + 1).is_multiple_of(per_series) {
                obs::progress(&format!(
                    "fig4 series {} done",
                    CellTransistor::ALL[i / per_series]
                ));
            }
        },
    )?;

    let mut series = Vec::with_capacity(6);
    let mut results = grid.iter().zip(&settled.results);
    for transistor in CellTransistor::ALL {
        let mut points = Vec::with_capacity(options.sigmas.len());
        for &sigma in &options.sigmas {
            let mut best1 = (0.0f64, PvtCondition::nominal());
            let mut best0 = (0.0f64, PvtCondition::nominal());
            for (&(_, _, pvt), point) in results.by_ref().take(per_point) {
                if let Some((d1, d0)) = *point {
                    if d1 > best1.0 {
                        best1 = (d1, pvt);
                    }
                    if d0 > best0.0 {
                        best0 = (d0, pvt);
                    }
                }
            }
            points.push(Fig4Point {
                sigma,
                drv_ds1: best1.0,
                drv_ds0: best0.0,
                worst_pvt_ds1: best1.1,
                worst_pvt_ds0: best0.1,
            });
        }
        series.push(Fig4Series { transistor, points });
    }
    let mut coverage = settled.coverage;
    coverage.elapsed_s = sweep_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    Ok(Fig4Data {
        series,
        failures: settled.failures,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reproduces_observations() {
        let data = fig4(&Fig4Options::quick()).unwrap();
        assert_eq!(data.series.len(), 6);
        assert!(
            data.coverage.is_complete() && data.failures.is_empty(),
            "healthy quick sweep must be complete: {}",
            data.coverage
        );
        assert!(data.observation1_holds(), "observation 1 failed");
        assert!(data.observation2_holds(), "observation 2 failed");
        assert!(data.pass_transistors_matter_less());
    }

    #[test]
    fn symmetric_point_exceeds_60mv() {
        // The paper: with zero variation both DRVs are "over 60 mV".
        let data = fig4(&Fig4Options::quick()).unwrap();
        for t in CellTransistor::ALL {
            let p = data.of(t).at_sigma(0.0).expect("0 is swept");
            assert!(p.drv_ds1 > 0.06, "{t}: DRV_DS1 {}", p.drv_ds1);
            assert!(p.drv_ds0 > 0.06, "{t}: DRV_DS0 {}", p.drv_ds0);
        }
    }

    #[test]
    fn opposite_inverter_mirrors() {
        // Variation on MPcc2/MNcc2 affects DRV_DS1 with the opposite
        // sign of MPcc1/MNcc1.
        let data = fig4(&Fig4Options::quick()).unwrap();
        let s1 = data.of(CellTransistor::MPcc1);
        let s2 = data.of(CellTransistor::MPcc2);
        // MPcc1 at -6σ raises DRV1; MPcc2 at +6σ raises DRV1.
        assert!(s1.at_sigma(-6.0).unwrap().drv_ds1 > s1.at_sigma(6.0).unwrap().drv_ds1);
        assert!(s2.at_sigma(6.0).unwrap().drv_ds1 > s2.at_sigma(-6.0).unwrap().drv_ds1);
    }
}
