//! Fig. 5 regeneration: the measured category of every one of the 32
//! defect sites (the figure's red/blue/green colour coding), derived
//! from simulation rather than asserted.
//!
//! A defect is classified per reference tap by comparing the rail with
//! a full open injected against the fault-free rail
//! ([`regulator::classify_at_tap`]); sites whose class differs across
//! taps are the paper's green "both" category (Df2–Df5).

use process::PvtCondition;
use regulator::characterize::CharacterizeOptions;
use regulator::{classify_at_tap, Defect, DefectCategory, RegulatorDesign, VrefTap};
use sram::{ArrayLoad, CellInstance};

/// The classified die: `fs` at the nominal 1.1 V and 125 °C, the hot
/// worst case of Table II, where the array load is significant.
const PVT: PvtCondition = PvtCondition::new(process::ProcessCorner::FastNSlowP, 1.1, 125.0);

/// Measured classification of one defect.
#[derive(Debug, Clone)]
pub struct TaxonomyRow {
    /// The defect.
    pub defect: Defect,
    /// Per-tap classes, in the order of the report's `taps`.
    pub per_tap: Vec<DefectCategory>,
    /// The combined class (mixed when taps disagree between power and
    /// retention).
    pub measured: DefectCategory,
    /// The paper's class.
    pub expected: DefectCategory,
}

impl TaxonomyRow {
    /// Whether measurement matches the paper.
    pub fn matches(&self) -> bool {
        self.measured == self.expected
    }
}

/// The regenerated Fig. 5 classification.
#[derive(Debug, Clone)]
pub struct TaxonomyReport {
    /// One row per defect, Df1…Df32.
    pub rows: Vec<TaxonomyRow>,
    /// Taps used, column order.
    pub taps: Vec<VrefTap>,
}

impl TaxonomyReport {
    /// Number of rows matching the paper's classification.
    pub fn matching(&self) -> usize {
        self.rows.iter().filter(|r| r.matches()).count()
    }
}

impl std::fmt::Display for TaxonomyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut headers = vec!["Defect".to_string()];
        headers.extend(self.taps.iter().map(|t| t.to_string()));
        headers.push("measured".to_string());
        headers.push("paper".to_string());
        headers.push("match".to_string());
        let short = |c: &DefectCategory| match c {
            DefectCategory::IncreasedPower => "power",
            DefectCategory::RetentionFault => "DRF",
            DefectCategory::Mixed => "both",
            DefectCategory::Negligible => "-",
        };
        let mut t = crate::report::TextTable::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.defect.to_string()];
            cells.extend(row.per_tap.iter().map(|c| short(c).to_string()));
            cells.push(short(&row.measured).to_string());
            cells.push(short(&row.expected).to_string());
            cells.push(if row.matches() { "yes" } else { "NO" }.to_string());
            t.push_row(cells);
        }
        write!(f, "{t}")
    }
}

/// Combines per-tap classes into one verdict.
fn combine(per_tap: &[DefectCategory]) -> DefectCategory {
    let any = |c: DefectCategory| per_tap.contains(&c);
    let drf = any(DefectCategory::RetentionFault) || any(DefectCategory::Mixed);
    let power = any(DefectCategory::IncreasedPower) || any(DefectCategory::Mixed);
    match (drf, power) {
        (true, true) => DefectCategory::Mixed,
        (true, false) => DefectCategory::RetentionFault,
        (false, true) => DefectCategory::IncreasedPower,
        (false, false) => DefectCategory::Negligible,
    }
}

/// Runs the classification sweep over all 32 defects at each of
/// `taps` (the CLI passes all four: the mixed sites reveal themselves
/// only across taps). The Df8/Df11 transients use the coarse
/// characterization settings, which classify every site as the paper
/// does.
///
/// ```no_run
/// use drftest::taxonomy;
/// use regulator::VrefTap;
/// # fn main() -> Result<(), anasim::Error> {
/// let report = taxonomy(&VrefTap::ALL)?;
/// assert_eq!(report.matching(), 32); // all categories match the paper
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates solver failures.
pub fn taxonomy(taps: &[VrefTap]) -> Result<TaxonomyReport, anasim::Error> {
    let design = RegulatorDesign::lp40nm();
    let characterize = CharacterizeOptions::coarse();
    let base = CellInstance::symmetric(PVT);
    let load = ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7)?;
    let mut rows = Vec::with_capacity(32);
    for defect in Defect::all() {
        let mut per_tap = Vec::with_capacity(taps.len());
        for &tap in taps {
            per_tap.push(classify_at_tap(
                &design,
                PVT,
                tap,
                defect,
                &load,
                &characterize,
            )?);
        }
        let measured = combine(&per_tap);
        rows.push(TaxonomyRow {
            defect,
            per_tap,
            measured,
            expected: defect.expected_category(),
        });
    }
    Ok(TaxonomyReport {
        rows,
        taps: taps.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_rules() {
        use DefectCategory::*;
        assert_eq!(combine(&[RetentionFault, IncreasedPower]), Mixed);
        assert_eq!(combine(&[RetentionFault, Negligible]), RetentionFault);
        assert_eq!(combine(&[IncreasedPower, IncreasedPower]), IncreasedPower);
        assert_eq!(combine(&[Negligible, Negligible]), Negligible);
        // A per-tap mixed verdict propagates.
        assert_eq!(combine(&[Mixed, RetentionFault]), Mixed);
        assert_eq!(combine(&[Mixed, Negligible]), Mixed);
    }

    #[test]
    fn single_tap_subset_classifies_clear_cases() {
        // One tap keeps the test fast; the clear-cut defects classify
        // correctly even without the cross-tap view.
        let report = taxonomy(&[VrefTap::V74]).unwrap();
        assert_eq!(report.rows.len(), 32);
        let class_of = |n: u8| {
            report
                .rows
                .iter()
                .find(|r| r.defect == Defect::new(n))
                .unwrap()
                .measured
        };
        assert_eq!(class_of(16), DefectCategory::RetentionFault);
        assert_eq!(class_of(29), DefectCategory::RetentionFault);
        assert_eq!(class_of(6), DefectCategory::IncreasedPower);
        assert_eq!(class_of(13), DefectCategory::IncreasedPower);
        assert_eq!(class_of(18), DefectCategory::Negligible);
        assert_eq!(class_of(21), DefectCategory::Negligible);
    }
}
