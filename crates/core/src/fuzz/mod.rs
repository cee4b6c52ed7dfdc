//! Adversarial fault-injection harnesses.
//!
//! Two randomized testers built on the std-only [`drill`] harness, so
//! they run in the offline tier-1 gate:
//!
//! * [`functional`] — random write/read/power-mode sequences against
//!   the behavioural [`march::SimpleMemory`] with injected fault maps,
//!   asserting that the march engine's detection claims hold under
//!   arbitrary interleavings, geometries, and data backgrounds;
//! * [`netlist`] — an ERC-clean netlist generator feeding [`anasim`],
//!   asserting convergence-or-structured-error (never a panic) and
//!   scratch-vs-fresh bit identity.
//!
//! Every failure carries a per-case seed; replaying it is one CLI
//! command (`fuzz-functional --fuzz-seed <seed> --cases 1`).

pub mod functional;
pub mod netlist;

pub use functional::{claim_expectations, cross_check, fuzz_functional, ClaimExpectation};
pub use netlist::{fuzz_netlists, random_netlist};

/// Default fuzz seed: the DATE 2013 session date, matching the Monte
/// Carlo default so "the suite's seed" is one number.
pub const DEFAULT_SEED: u64 = 20130318;

/// Aggregate over the per-claim [`drill::Report`]s of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// One report per property checked.
    pub reports: Vec<drill::Report>,
}

impl FuzzSummary {
    /// Whether every property passed.
    pub fn ok(&self) -> bool {
        self.reports.iter().all(|r| r.ok())
    }

    /// Cases executed across all properties.
    pub fn total_cases(&self) -> u64 {
        self.reports.iter().map(|r| r.cases_run).sum()
    }

    /// The first failing property's failure, if any.
    pub fn first_failure(&self) -> Option<&drill::Failure> {
        self.reports.iter().find_map(|r| r.failure.as_ref())
    }
}

impl std::fmt::Display for FuzzSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for report in &self.reports {
            writeln!(f, "{report}")?;
        }
        if self.ok() {
            write!(
                f,
                "all {} properties passed ({} cases)",
                self.reports.len(),
                self.total_cases()
            )
        } else {
            let failed = self.reports.iter().filter(|r| !r.ok()).count();
            write!(f, "{failed} of {} properties FAILED", self.reports.len())
        }
    }
}
