//! Table II regeneration: minimum defect resistances causing DRF_DS,
//! side by side with the paper's published values.

use std::fmt;

use regulator::Defect;

use crate::campaign::completeness_footer;
use crate::defect_analysis::{table2 as campaign, Table2, Table2Options};
use crate::report::{format_min_resistance, TextTable};

/// The paper's published minimum resistances (Table II), ohms, per
/// defect for columns CS1, CS2, CS3, CS4, CS5; `None` is the paper's
/// `> 500M`.
pub fn paper_min_resistance(defect: Defect, cs_number: u8) -> Option<f64> {
    const K: f64 = 1.0e3;
    const M: f64 = 1.0e6;
    let row: [Option<f64>; 5] = match defect.number() {
        1 => [
            Some(9.76 * K),
            Some(97.65 * K),
            Some(390.62 * K),
            Some(10.25 * M),
            Some(91.79 * K),
        ],
        2 => [
            Some(9.76 * K),
            Some(97.65 * K),
            Some(390.62 * K),
            Some(10.25 * M),
            Some(91.79 * K),
        ],
        3 => [
            Some(19.53 * K),
            Some(195.31 * K),
            Some(488.28 * K),
            Some(33.20 * M),
            Some(191.40 * K),
        ],
        4 => [
            Some(19.53 * K),
            Some(195.31 * K),
            Some(488.28 * K),
            Some(33.20 * M),
            Some(190.31 * K),
        ],
        5 => [
            Some(2.36 * M),
            Some(3.26 * M),
            Some(3.41 * M),
            Some(97.65 * M),
            Some(2.48 * M),
        ],
        7 => [
            Some(976.56 * K),
            Some(3.90 * M),
            Some(33.20 * M),
            None,
            Some(2.21 * M),
        ],
        8 => [
            Some(29.78 * M),
            Some(257.81 * M),
            None,
            None,
            Some(153.51 * M),
        ],
        9 => [
            Some(976.56 * K),
            Some(7.81 * M),
            Some(50.78 * M),
            None,
            Some(4.64 * M),
        ],
        10 => [
            Some(2.92 * K),
            Some(78.12 * K),
            Some(253.90 * K),
            Some(6.83 * M),
            Some(61.52 * K),
        ],
        11 => [Some(3.90 * K), Some(59.57 * M), None, None, Some(39.23 * M)],
        12 => [
            Some(45.99 * K),
            Some(58.59 * K),
            Some(839.84 * K),
            None,
            Some(49.01 * K),
        ],
        16 => [
            Some(976.56),
            Some(19.53 * K),
            Some(19.53 * K),
            None,
            Some(2.92 * K),
        ],
        19 => [
            Some(195.31),
            Some(19.53 * K),
            Some(19.53 * K),
            None,
            Some(1.02 * K),
        ],
        23 => [
            Some(121.09 * K),
            Some(859.37 * K),
            Some(3.20 * M),
            Some(62.01 * M),
            Some(850.28 * K),
        ],
        26 => [
            Some(3.41 * K),
            Some(97.65 * K),
            Some(1.21 * M),
            Some(65.91 * M),
            Some(86.36 * K),
        ],
        29 => [
            Some(488.28),
            Some(19.53 * K),
            Some(19.53 * K),
            None,
            Some(1.17 * K),
        ],
        32 => [
            Some(4.88 * K),
            Some(21.68 * K),
            Some(26.90 * K),
            None,
            Some(15.43 * K),
        ],
        _ => return None,
    };
    if (1..=5).contains(&cs_number) {
        row[cs_number as usize - 1]
    } else {
        None
    }
}

/// The rendered experiment.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// The measured campaign.
    pub table: Table2,
}

impl Table2Report {
    /// Shape checks the paper calls out: CS1 needs the smallest
    /// resistance, CS4 the largest (or none), CS5 below CS2; Df16, Df19
    /// and Df29 are the most critical amplifier defects.
    pub fn shape_holds(&self) -> ShapeChecks {
        let mut ordering_ok = true;
        let mut cs5_below_cs2 = true;
        for row in &self.table.rows {
            let at = |n: u8| self.table.cell(row.defect, n).and_then(|c| c.min_ohms);
            if let (Some(c1), Some(c2)) = (at(1), at(2)) {
                ordering_ok &= c1 <= c2;
            }
            if let (Some(c2), Some(c3)) = (at(2), at(3)) {
                ordering_ok &= c2 <= c3 * 1.05;
            }
            if let (Some(c2), Some(c5)) = (at(2), at(5)) {
                cs5_below_cs2 &= c5 <= c2 * 1.05;
            }
        }
        // Most-critical check among the error-amplifier defects at CS1.
        let amp_defects: Vec<(Defect, f64)> = self
            .table
            .rows
            .iter()
            .filter(|r| !r.defect.in_voltage_source())
            .filter_map(|r| {
                self.table
                    .cell(r.defect, 1)
                    .and_then(|c| c.min_ohms)
                    .map(|o| (r.defect, o))
            })
            .collect();
        let critical_set = [Defect::new(16), Defect::new(19), Defect::new(29)];
        let mut sorted = amp_defects.clone();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let most_critical_match = sorted
            .iter()
            .take(3)
            .filter(|(d, _)| critical_set.contains(d))
            .count();
        ShapeChecks {
            cs_ordering: ordering_ok,
            cs5_below_cs2,
            critical_defects_in_top3: most_critical_match,
        }
    }
}

/// Outcome of the qualitative shape checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeChecks {
    /// CS1 ≤ CS2 ≤ CS3 for every defect with data.
    pub cs_ordering: bool,
    /// CS5 ≤ CS2 (extra load from 64 stressed cells).
    pub cs5_below_cs2: bool,
    /// How many of {Df16, Df19, Df29} are among the three smallest
    /// CS1 min-resistances of the amplifier defects (paper: all three).
    pub critical_defects_in_top3: usize,
}

impl fmt::Display for Table2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["Defect".to_string()];
        for cs in &self.table.case_studies {
            headers.push(format!("CS{} meas.", cs.number));
            headers.push(format!("CS{} paper", cs.number));
        }
        headers.push("worst PVT (meas.)".to_string());
        let mut t = TextTable::new(headers);
        for row in &self.table.rows {
            let mut cells = vec![row.defect.to_string()];
            let mut worst = String::new();
            for (cs, cell) in self.table.case_studies.iter().zip(&row.cells) {
                cells.push(format_min_resistance(cell.min_ohms));
                cells.push(format_min_resistance(paper_min_resistance(
                    row.defect, cs.number,
                )));
                if let Some(pvt) = cell.pvt {
                    if worst.is_empty() {
                        worst = pvt.to_string();
                    }
                }
            }
            cells.push(worst);
            t.push_row(cells);
        }
        write!(f, "{t}")?;
        if !self.table.coverage.is_complete() {
            write!(
                f,
                "\n{}",
                completeness_footer(&self.table.coverage, &self.table.failures)
            )?;
        }
        Ok(())
    }
}

/// Runs the Table II experiment.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(options: &Table2Options) -> Result<Table2Report, anasim::Error> {
    Ok(Table2Report {
        table: campaign(options)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::CaseStudy;
    use sram::StoredBit;

    #[test]
    fn paper_reference_values() {
        assert_eq!(paper_min_resistance(Defect::new(16), 1), Some(976.56));
        assert_eq!(paper_min_resistance(Defect::new(8), 3), None);
        assert_eq!(paper_min_resistance(Defect::new(5), 4), Some(97.65e6));
        // Non-table defects have no reference.
        assert_eq!(paper_min_resistance(Defect::new(18), 1), None);
    }

    #[test]
    fn quick_report_renders_with_paper_columns() {
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(19)];
        opts.case_studies = vec![CaseStudy::new(1, StoredBit::One)];
        let report = run(&opts).unwrap();
        let text = report.to_string();
        assert!(text.contains("Df19"));
        assert!(text.contains("CS1 paper"));
        assert!(text.contains("195.31"), "paper value shown: {text}");
        assert!(
            !text.contains("coverage:"),
            "complete runs render no footer: {text}"
        );
    }

    #[test]
    fn partial_report_renders_coverage_footer() {
        let mut opts = Table2Options::quick();
        opts.defects = vec![Defect::new(19)];
        opts.case_studies = vec![CaseStudy::new(1, StoredBit::One)];
        // Every point fails to converge.
        let table = crate::defect_analysis::table2_with(&opts, |_| {
            Err(anasim::Error::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            })
        })
        .unwrap();
        let report = Table2Report { table };
        let text = report.to_string();
        assert!(text.contains("coverage: 0/1"), "{text}");
        assert!(text.contains("unresolved: Df19 × CS1"), "{text}");
    }
}
