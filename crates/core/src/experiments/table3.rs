//! Table III regeneration: the optimized test flow, derived from a
//! measured coverage matrix and compared against the paper's three
//! iterations.

use std::fmt;

use crate::campaign::completeness_footer;
use crate::optimize::{
    build_coverage, escape_analysis, greedy_cover, CoverageMatrix, CoverageOptions,
};
use crate::report::{format_min_resistance, TextTable};
use crate::test_flow::TestFlow;

/// The rendered experiment.
#[derive(Debug, Clone)]
pub struct Table3Report {
    /// The measured coverage matrix.
    pub matrix: CoverageMatrix,
    /// The flow chosen by the greedy optimizer.
    pub optimized: TestFlow,
    /// The paper's published flow.
    pub paper: TestFlow,
    /// Whether the paper's flow covers the measured matrix.
    pub paper_flow_covers: bool,
    /// Time reduction of the optimized flow versus the exhaustive
    /// 12-combination flow.
    pub time_reduction: f64,
    /// Escape window (decades of defect resistance) the paper's flow
    /// gives up versus the exhaustive flow (0 = none).
    pub paper_flow_escape_decades: f64,
}

impl fmt::Display for Table3Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.optimized)?;
        writeln!(
            f,
            "time reduction vs exhaustive flow: {:.0}% (paper: 75%)",
            self.time_reduction * 100.0
        )?;
        writeln!(
            f,
            "paper's Table III flow covers the measured matrix: {}",
            self.paper_flow_covers
        )?;
        writeln!(
            f,
            "escape window of the paper's flow vs the exhaustive one: {:.2} decades",
            self.paper_flow_escape_decades
        )?;
        writeln!(f)?;
        writeln!(f, "coverage matrix (min failing resistance per combo):")?;
        let mut headers = vec!["Defect".to_string()];
        for combo in &self.matrix.combos {
            headers.push(format!("{:.1}V/{}", combo.vdd, combo.tap));
        }
        let mut t = TextTable::new(headers);
        for (d, defect) in self.matrix.defects.iter().enumerate() {
            let mut row = vec![defect.to_string()];
            for c in 0..self.matrix.combos.len() {
                let mut cell = if self.matrix.unusable[c] {
                    "n/a".to_string()
                } else {
                    format_min_resistance(self.matrix.min_r[d][c])
                };
                if self.matrix.maximized[d][c] {
                    cell.push('*');
                }
                row.push(cell);
            }
            t.push_row(row);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "(* = detection-maximizing combination for that defect)")?;
        if self.matrix.unusable.contains(&true) {
            writeln!(
                f,
                "(n/a = healthy Vreg below the cell's DRV: combination unusable, not searched)"
            )?;
        }
        if !self.matrix.coverage.is_complete() {
            writeln!(
                f,
                "{}",
                completeness_footer(&self.matrix.coverage, &self.matrix.failures)
            )?;
        }
        Ok(())
    }
}

/// Runs the Table III experiment: builds the coverage matrix, runs the
/// greedy optimizer, and checks the paper's flow against the measured
/// coverage.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(options: &CoverageOptions) -> Result<Table3Report, anasim::Error> {
    let matrix = build_coverage(options)?;
    let ds_time = options.characterize.ds_time;
    let optimized = greedy_cover(&matrix);
    let paper = TestFlow::paper_optimized(ds_time);
    let paper_indices: Vec<usize> = paper
        .iterations()
        .iter()
        .filter_map(|it| {
            matrix
                .combos
                .iter()
                .position(|c| (c.vdd - it.vdd).abs() < 1e-9 && c.tap == it.tap)
        })
        .collect();
    let paper_flow_covers = matrix.covers(&paper_indices);
    let exhaustive = TestFlow::exhaustive(ds_time);
    let time_reduction = optimized.time_reduction_vs(&exhaustive);
    let paper_flow_escape_decades = escape_analysis(&matrix, &paper).escape_decades();
    Ok(Table3Report {
        matrix,
        optimized,
        paper,
        paper_flow_covers,
        time_reduction,
        paper_flow_escape_decades,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_produces_small_flow() {
        let report = run(&CoverageOptions::quick()).unwrap();
        let n = report.optimized.iterations().len();
        assert!((1..=4).contains(&n), "optimized flow has {n} iterations");
        assert!(report.time_reduction >= 8.0 / 12.0 - 1e-9);
        let text = report.to_string();
        assert!(text.contains("time reduction"));
        assert!(text.contains("coverage matrix"));
    }
}
